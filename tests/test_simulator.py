import dataclasses
import hashlib

import numpy as np
import pytest

from matchlab import (
    Platform,
    ProductionFunction,
    SearchParams,
    SimConfig,
    SimOutcome,
    first_best_platform,
    glitch,
    make_grid,
    pooled_deviations,
    simulate,
    solve_dse,
)
from matchlab import simulator

from conftest import mixture_kernel, search_value


@pytest.fixture
def fast_params():
    # high discount rate keeps the truncation constraint satisfied on
    # short horizons
    return SearchParams(rho=1.0, alpha=0.5, r=1.0)


def small_cfg(**overrides):
    base = dict(agents_per_node=20, horizon=15.0, burn_in=1.0, seed=7,
                replications=2, collect_events=True)
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(agents_per_node=0),
    dict(horizon=10.0, burn_in=10.0),
    dict(horizon=10.0, burn_in=-1.0),
    dict(replications=0),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        small_cfg(**kwargs)


def test_truncation_guard(f_xy):
    platform = first_best_platform(make_grid(4), 0)
    slow = SearchParams(rho=1.0, alpha=0.5, r=0.05)  # r * window = 0.7
    with pytest.raises(ValueError, match="truncation"):
        simulate(platform, f_xy, slow, np.zeros(4), small_cfg())


def test_wage_length_checked(fast_params, f_xy):
    platform = first_best_platform(make_grid(4), 0)
    with pytest.raises(ValueError, match="length"):
        simulate(platform, f_xy, fast_params, np.zeros(5), small_cfg())


def test_inconsistent_platform_refused(fast_params, f_xy):
    from matchlab import Platform

    g = make_grid(4)
    kernel = np.eye(4)
    kernel[0, 0] -= 1e-3
    kernel[0, 1] += 1e-3
    platform = Platform(grid=g, cutoff=0, kernel=kernel, transfers=np.zeros(4))
    with pytest.raises(ValueError, match="consistent"):
        simulate(platform, f_xy, fast_params, np.zeros(4), small_cfg())


# ---------------------------------------------------------------------------
# event stream properties
# ---------------------------------------------------------------------------


def test_identical_seeds_reproduce_bitwise(fast_params, f_xy):
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, fast_params).w
    a = simulate(platform, f_xy, fast_params, w, small_cfg())
    b = simulate(platform, f_xy, fast_params, w, small_cfg())
    assert a.event_log == b.event_log
    assert np.array_equal(a.unmatched_fraction_by_node, b.unmatched_fraction_by_node)
    assert np.array_equal(a.mean_discounted_payoff_by_node,
                          b.mean_discounted_payoff_by_node)
    assert np.array_equal(a.mean_search_payoff_by_node, b.mean_search_payoff_by_node)
    c = simulate(platform, f_xy, fast_params, w, small_cfg(seed=8))
    assert c.event_log != a.event_log


def test_conservation_replay(fast_params, f_xy):
    """Replay the event log: matched agents always come in pairs, every
    formation involves two currently unmatched agents, and every formed
    match satisfies the acceptance rule."""
    g = make_grid(3)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, fast_params).w
    out = simulate(platform, f_xy, fast_params, w, small_cfg(replications=1))
    n_agents = 3 * 20
    F = f_xy.values(g)
    matched: set = set()
    for t, kind, a, b in out.event_log:
        if kind == "match":
            assert a not in matched and b not in matched and a != b
            na, nb = a // 20, b // 20
            assert F[na, nb] - w[na] - w[nb] >= 0
            matched.add(a)
            matched.add(b)
        elif kind == "divorce":
            assert a in matched and b in matched
            matched.discard(a)
            matched.discard(b)
        assert len(matched) % 2 == 0
        assert (n_agents - len(matched)) + len(matched) == n_agents


def test_every_available_meeting_matches_when_output_is_free(fast_params):
    g = make_grid(3)
    f0 = ProductionFunction.tabulated(g, np.zeros((3, 3)))
    platform = first_best_platform(g, 0)
    out = simulate(platform, f0, fast_params, np.zeros(3), small_cfg())
    assert out.rejected_meeting_count == 0
    kinds = {e[1] for e in out.event_log}
    assert "reject" not in kinds
    assert np.all(out.mean_discounted_payoff_by_node == 0.0)
    assert np.all(out.mean_search_payoff_by_node == 0.0)


def test_meeting_tally_matches_call_rate(fast_params, f_xy):
    """Only unmatched agents call, each at rate rho / 2, and a call is tallied
    once per participant: the tally over the unmatched agent-time estimates
    rho."""
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, fast_params).w
    cfg = small_cfg(agents_per_node=50, horizon=60.0, burn_in=2.0,
                    replications=4, collect_events=False)
    out = simulate(platform, f_xy, fast_params, w, cfg)
    window = cfg.horizon - cfg.burn_in
    exposure = (cfg.agents_per_node * window * cfg.replications
                * np.sum(out.unmatched_fraction_by_node))
    rate = out.meeting_count / exposure
    # the tally is two per Poisson call event
    se = 2.0 * np.sqrt(out.meeting_count / 2.0) / exposure
    assert abs(rate - fast_params.rho) <= 3.0 * se


def test_every_call_ends_in_a_failure_rejection_or_match(f_xy):
    """Every simulated meeting call comes from an unmatched agent and ends in
    exactly one failure, rejection or match; no event leaves the state as it
    was, so the log holds no miss."""
    params = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    platform = glitch(first_best_platform(make_grid(5), 0), 0.3)
    w = solve_dse(platform, f_xy, params).w
    cfg = small_cfg(agents_per_node=21, horizon=150.0, burn_in=0.0, seed=5)
    out = simulate(platform, f_xy, params, w, cfg)
    kinds = [event[1] for event in out.event_log]
    assert set(kinds) == {"fail", "reject", "match", "divorce"}
    assert out.meeting_count == 2 * (out.match_formation_count + out.failed_meeting_count
                                     + out.rejected_meeting_count)
    # with no burn-in the log and the tallies count the same events
    assert kinds.count("match") == out.match_formation_count
    assert kinds.count("fail") == out.failed_meeting_count
    assert kinds.count("reject") == out.rejected_meeting_count
    assert kinds.count("divorce") == out.divorce_count


def test_own_type_match_flow_is_half_the_output(monkeypatch, f_xy):
    """An agent matched with its own type earns exactly f(x, x) / 2: the
    wages cancel before they meet the output, so the diagonal of the flow
    table carries no rounding."""
    captured = []
    run = simulator._run_replication

    def recording(m, cum_rows, accept_rows, flow_rows, *rest):
        captured.append(flow_rows)
        return run(m, cum_rows, accept_rows, flow_rows, *rest)

    monkeypatch.setattr(simulator, "_run_replication", recording)
    params = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    g = make_grid(10)
    platform = glitch(first_best_platform(g, 0), 0.5)
    w = solve_dse(platform, f_xy, params).w
    assert np.all(w > 0)
    simulate(platform, f_xy, params, w,
             small_cfg(agents_per_node=2, horizon=150.0, replications=1, collect_events=False))
    F = f_xy.values(g)
    assert [row[i] for i, row in enumerate(captured[0])] == (0.5 * np.diag(F)).tolist()


def test_unmatched_fraction_draws_toward_balance(f_xy):
    params = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, params).w
    cfg = SimConfig(agents_per_node=100, horizon=150.0, burn_in=8.0, seed=42,
                    replications=4)
    out = simulate(platform, f_xy, params, w, cfg)
    dev = pooled_deviations(out.unmatched_fraction_by_node, out.se_unmatched_by_node,
                            np.full(4, 1.0 / 3.0))
    assert np.max(np.abs(dev)) <= 4.0
    assert out.rejected_meeting_count == 0
    assert np.all((out.unmatched_fraction_by_node >= 0)
                  & (out.unmatched_fraction_by_node <= 1))
    for tally in (out.match_formation_count, out.divorce_count, out.meeting_count,
                  out.failed_meeting_count, out.rejected_meeting_count):
        assert tally >= 0


def test_pooled_deviations_reject_doubled_wage(f_xy):
    """Doubling the reported wage leaves the dynamics unchanged on an
    assortative platform, so measured payoffs fall systematically short."""
    params = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, params).w
    cfg = SimConfig(agents_per_node=100, horizon=150.0, burn_in=8.0, seed=42,
                    replications=4)
    out = simulate(platform, f_xy, params, w, cfg)
    dev = pooled_deviations(out.mean_discounted_payoff_by_node, out.se_payoff_by_node,
                            2.0 * w)
    assert np.all(dev < 0)
    assert np.max(np.abs(dev)) > 4.0


def test_search_payoff_moves_with_r_and_mean_payoff_does_not(fast_params, f_xy):
    """Agents unmatched at burn-in earn the value of search: an unmatched
    agent meets at hazard rho = alpha (1 - u) / u, so the payoff is
    rho phi / (r + alpha + rho) with phi = f(x, x) / 2, that is f/5 at r = 1
    and f/9 at r = 3.  The payoff averaged over all agents is the mean flow
    (1 - u) phi = f/3 at both rates."""
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    phi = 0.5 * g.nodes ** 2
    cfg = SimConfig(agents_per_node=100, horizon=16.0, burn_in=6.0, seed=11,
                    replications=8)
    runs = {}
    for r, coeff in ((1.0, 1.0 / 5.0), (3.0, 1.0 / 9.0)):
        params = dataclasses.replace(fast_params, r=r)
        state = solve_dse(first_best_platform(g, 0), f_xy, params)
        hazard = params.alpha * (1.0 - state.u) / state.u
        predicted = search_value(hazard, phi, params)
        assert np.allclose(predicted, coeff * g.nodes ** 2)
        out = simulate(platform, f_xy, params, state.w, cfg)
        assert np.all(np.abs(pooled_deviations(out.mean_search_payoff_by_node,
                                               out.se_search_payoff_by_node,
                                               predicted)) <= 4.0)
        assert np.all(np.abs(pooled_deviations(out.mean_discounted_payoff_by_node,
                                               out.se_payoff_by_node,
                                               g.nodes ** 2 / 3.0)) <= 4.0)
        runs[r] = (out, predicted)
    # each rate's search statistic rejects the other rate's value of search
    for r, other in ((1.0, 3.0), (3.0, 1.0)):
        out = runs[r][0]
        assert np.max(np.abs(pooled_deviations(out.mean_search_payoff_by_node,
                                               out.se_search_payoff_by_node,
                                               runs[other][1]))) > 4.0


def test_search_payoff_is_nan_without_searchers(f_xy):
    """Fast meetings and rare divorces leave every agent matched at burn-in,
    so no node has a search statistic."""
    params = SearchParams(rho=50.0, alpha=0.01, r=1.0)
    g = make_grid(3)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, params).w
    cfg = SimConfig(agents_per_node=2, horizon=12.0, burn_in=4.0, seed=3, replications=2)
    out = simulate(platform, f_xy, params, w, cfg)
    assert np.all(np.isnan(out.mean_search_payoff_by_node))
    assert np.all(np.isnan(out.se_search_payoff_by_node))
    assert np.all(out.mean_discounted_payoff_by_node > 0.0)


def test_excluded_nodes_stay_out(fast_params, f_xy):
    g = make_grid(4)
    platform = first_best_platform(g, 2)
    w = solve_dse(platform, f_xy, fast_params).w
    out = simulate(platform, f_xy, fast_params, w, small_cfg())
    assert np.all(out.unmatched_fraction_by_node[:2] == 1.0)
    assert np.all(out.mean_discounted_payoff_by_node[:2] == 0.0)
    assert np.all(out.mean_search_payoff_by_node[:2] == 0.0)
    # agent ids in the log never exceed the included population
    touched = {e[2] for e in out.event_log} | {e[3] for e in out.event_log}
    touched.discard(-1)
    assert max(touched) < 2 * 20


def test_pooled_deviations_shape_guard(fast_params, f_xy):
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    w = solve_dse(platform, f_xy, fast_params).w
    out = simulate(platform, f_xy, fast_params, w, small_cfg())
    # length-one vectors would broadcast without the guard
    with pytest.raises(ValueError):
        pooled_deviations(out.mean_discounted_payoff_by_node, out.se_payoff_by_node,
                          np.ones(1))
    with pytest.raises(ValueError):
        pooled_deviations(out.mean_discounted_payoff_by_node, np.ones(1), np.ones(4))


# ---------------------------------------------------------------------------
# golden event streams
# ---------------------------------------------------------------------------


def _golden_runs():
    """An identity kernel; a glitched kernel with an odd population and no
    burn-in; a kernel whose rows hold zeros, so the cumulative rows that
    partner draws search have plateaus; and a run long enough to refill both
    blocks of buffered draws.  At the reference discount rate the second and
    third reject some meetings."""
    fast = SearchParams(rho=1.0, alpha=0.5, r=1.0)
    reference = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    yield "identity", first_best_platform(make_grid(4), 0), fast, small_cfg()
    yield ("glitch0.3", glitch(first_best_platform(make_grid(5), 0), 0.3), reference,
           small_cfg(agents_per_node=21, horizon=150.0, burn_in=0.0, seed=5))
    mixture = Platform(grid=make_grid(6), cutoff=0, kernel=mixture_kernel(6, 0.5, 0.0),
                       transfers=np.zeros(6))
    yield ("mixture", mixture, reference,
           small_cfg(agents_per_node=15, horizon=160.0, burn_in=20.0, seed=9))
    yield ("refill", glitch(first_best_platform(make_grid(3), 0), 0.5), fast,
           small_cfg(agents_per_node=20, horizon=4000.0, burn_in=10.0, seed=13,
                     replications=1, collect_events=False))


def _outcome_digest(out):
    h = hashlib.sha256()
    for name in ("unmatched_fraction_by_node", "se_unmatched_by_node",
                 "mean_discounted_payoff_by_node", "se_payoff_by_node",
                 "mean_search_payoff_by_node", "se_search_payoff_by_node"):
        h.update(np.asarray(getattr(out, name), dtype="<f8").tobytes())
    h.update(repr((out.match_formation_count, out.divorce_count, out.meeting_count,
                   out.failed_meeting_count, out.rejected_meeting_count)).encode())
    return h.hexdigest()


# (event log, outcome) digests per run: a run that moves them would also
# move every stored simulation artifact
GOLDEN = {
    "identity": ("951c3ea15fc25f07632e008593dd700ae88c9670b31099a21f62f39ef1b2639b",
                 "705b74b169e46ef79951322e26dd6a6967bb590197129e6b83caac3179e7c08a"),
    "glitch0.3": ("4f2239f4579858ecefa6dae60009b91e72ec664217ba8ccf39c254e8a06b326a",
                  "a432bcc2264dd2c1c9433a6128935b1062ea887b36cbe66727f266229e712c46"),
    "mixture": ("0bf0ed691fc89dce1fb86023a3fe6ed38a89f14518c210384644ce62f923ecd1",
                "ed619e85893566335543fcb3a0032c3c544b55a018d6473aa6623a9d3062e8be"),
    "refill": ("2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
               "45e1b2b54982f1d030813184be63c45c4c5f9af8925147e882292dcf2e273abc"),
}


def test_event_stream_matches_golden_digests(f_xy):
    """The event stream and every statistic are pinned bit for bit: a change
    to the order of random draws or to any floating-point operation of the
    event loop shows up here.  numpy's ``Generator`` streams are not promised
    across numpy versions (NEP 19), so a numpy upgrade may move these."""
    seen = {}
    kinds = set()
    for name, platform, params, cfg in _golden_runs():
        w = solve_dse(platform, f_xy, params).w
        out = simulate(platform, f_xy, params, w, cfg)
        seen[name] = (hashlib.sha256(repr(out.event_log).encode()).hexdigest(),
                      _outcome_digest(out))
        kinds |= {event[1] for event in out.event_log}
    assert kinds == {"fail", "reject", "match", "divorce"}
    assert seen == GOLDEN


def test_refill_run_refills_both_blocks(monkeypatch, f_xy):
    """The golden ``refill`` run draws past the first block of exponentials
    and of uniforms, so its digest pins the draws of a refilled block."""
    fetched = []
    for name in ("_uniform_block", "_exponential_block"):
        draw = getattr(simulator, name)
        monkeypatch.setattr(simulator, name,
                            lambda rng, draw=draw, name=name: fetched.append(name) or draw(rng))
    _, platform, params, cfg = next(run for run in _golden_runs() if run[0] == "refill")
    simulate(platform, f_xy, params, solve_dse(platform, f_xy, params).w, cfg)
    assert fetched.count("_uniform_block") >= 2
    assert fetched.count("_exponential_block") >= 2


@pytest.mark.parametrize("name, replications", [
    ("identity", 3), ("glitch0.3", 3), ("mixture", 3), ("identity", 1),
])
def test_worker_processes_change_no_bit(f_xy, name, replications):
    """Replications run on two worker processes and merged in replication
    order give the in-process outcome bit for bit, event log included.
    Three replications leave one worker a second task; a single replication
    runs without a pool."""
    platform, params, cfg = next((p, q, c) for run, p, q, c in _golden_runs() if run == name)
    cfg = dataclasses.replace(cfg, replications=replications)
    w = solve_dse(platform, f_xy, params).w
    serial = simulate(platform, f_xy, params, w, cfg, jobs=1)
    pooled = simulate(platform, f_xy, params, w, cfg, jobs=2)
    assert serial.event_log
    for field in dataclasses.fields(SimOutcome):
        a, b = getattr(serial, field.name), getattr(pooled, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def test_jobs_below_one_refused(fast_params, f_xy):
    platform = first_best_platform(make_grid(4), 0)
    with pytest.raises(ValueError, match="jobs"):
        simulate(platform, f_xy, fast_params, np.zeros(4), small_cfg(), jobs=0)
