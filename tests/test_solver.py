import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import root

from matchlab import (
    NonConvergenceError,
    Platform,
    ProductionFunction,
    SearchParams,
    SolverConfig,
    dse_residuals,
    first_best_platform,
    first_best_wage_coefficient,
    glitch,
    make_grid,
    solve_dse,
)
from matchlab import solver
from matchlab.core import _packed_acceptance, acceptance

from conftest import cubic_production, dense_kernel, fresh_python, mixture_kernel


def uniform_platform(n):
    g = make_grid(n)
    return Platform(grid=g, cutoff=0, kernel=np.full((n, n), 1.0 / n),
                    transfers=np.zeros(n))


def mixture_platform(n, a, b):
    return Platform(grid=make_grid(n), cutoff=0, kernel=mixture_kernel(n, a, b),
                    transfers=np.zeros(n))


def lu_solve(platform, f, params):
    """``solve_dse`` with every policy-step solve on the dense LU: the
    conjugate-gradient helper reports failure each time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pcg", lambda *args: None)
        return solve_dse(platform, f, params)


def damped_solve(platform, f, params, w_start=None):
    """``solve_dse`` through the damped loop alone: the first policy step
    finds its wage system singular and hands over at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_policy_wages", lambda *args: None)
        return solve_dse(platform, f, params, w_start=w_start)


# ---------------------------------------------------------------------------
# assortative platform: closed-form targets
# ---------------------------------------------------------------------------


def test_first_best_density_is_exact(params, f_xy):
    st_ = solve_dse(first_best_platform(make_grid(12), 0), f_xy, params)
    assert np.all(st_.u == params.alpha / (params.alpha + params.rho))


def test_first_best_wage_matches_closed_form(params, f_xy):
    g = make_grid(64)
    st_ = solve_dse(first_best_platform(g, 0), f_xy, params)
    # w(x) = x^2 / 5.3 at the reference rates
    assert np.max(np.abs(st_.w - g.nodes ** 2 / 5.3)) < 1e-8


def test_first_best_with_cutoff(params, f_xy):
    g = make_grid(10)
    st_ = solve_dse(first_best_platform(g, 4), f_xy, params)
    assert np.all(st_.w[:4] == 0.0)
    assert np.all(st_.u[:4] == 1.0)
    coeff = first_best_wage_coefficient(params)
    assert np.max(np.abs(st_.w[4:] - coeff * g.nodes[4:] ** 2)) < 1e-8


@pytest.mark.parametrize("rates", [(1.0, 0.5, 0.05), (2.0, 0.5, 0.05), (0.5, 2.0, 0.05)],
                         ids=["reference", "rho2", "alpha2"])
@pytest.mark.parametrize("production", ["xy", "xy+c", "cubic"])
@pytest.mark.parametrize("cutoff", [0, 7])
def test_identity_solve_is_the_closed_form(rates, production, cutoff):
    """An identity kernel returns the closed form bit for bit, with no sweep
    and no linear solve: ``first_best_wage_coefficient * f(x, x)`` and
    ``u_star`` on included nodes."""
    params = SearchParams(*rates)
    g = make_grid(40)
    f = {"xy": ProductionFunction.multiplicative(),
         "xy+c": ProductionFunction.multiplicative_plus_constant(0.3),
         "cubic": cubic_production(g)}[production]
    st_ = solve_dse(first_best_platform(g, cutoff), f, params)
    w = first_best_wage_coefficient(params) * np.diagonal(f.values(g))
    assert st_.w[cutoff:].tobytes() == w[cutoff:].tobytes()
    assert np.all(st_.u[cutoff:] == params.u_star)
    assert np.all(st_.w[:cutoff] == 0.0) and np.all(st_.u[:cutoff] == 1.0)
    assert st_.iterations == st_.steady_state_solves == 0
    assert st_.bellman_residual <= 1e-15


def test_near_identity_diagonal_kernel_takes_the_closed_form(params, f_xy):
    """Diagonal weights that miss 1 by 1e-13 enter the closed form: the state
    passes the residual recomputation to rounding and ignores the start."""
    n = 12
    g = make_grid(n)
    weights = 1.0 + 1e-13 * np.where(np.arange(n) % 2, 1.0, -1.0)
    platform = Platform(grid=g, cutoff=0, kernel=np.diag(weights), transfers=np.zeros(n))
    st_ = solve_dse(platform, f_xy, params)
    bell, bal, violations = dse_residuals(platform, f_xy, params, st_)
    assert bell <= 1e-15 and bal <= 1e-15 and violations == 0
    assert np.any(st_.u != params.u_star)  # the weights, not 1, set the density
    for w_start in (np.full(n, 5.0), np.diagonal(f_xy.values(g)) / 2):
        again = solve_dse(platform, f_xy, params, w_start=w_start)
        assert again.w.tobytes() == st_.w.tobytes() and again.u.tobytes() == st_.u.tobytes()


def test_closed_form_is_refused_past_tol_w(params):
    """The closed form goes through the Bellman check too: output near 1e9
    leaves rounding residuals above the default ``tol_w``."""
    with pytest.raises(NonConvergenceError, match="^closed-form state misses tol_w"):
        solve_dse(first_best_platform(make_grid(40), 0),
                  ProductionFunction.multiplicative_plus_constant(1e9), params)


def test_zero_production_equilibrium(params):
    g = make_grid(6)
    f0 = ProductionFunction.tabulated(g, np.zeros((6, 6)))
    u_star = params.alpha / (params.alpha + params.rho)
    for platform in (first_best_platform(g, 0), uniform_platform(6)):
        st_ = solve_dse(platform, f0, params)
        assert np.all(st_.w == 0.0)
        assert np.max(np.abs(st_.u - u_star)) < 1e-12
        assert np.all(st_.M)  # zero surplus is accepted at equality


def test_uniform_kernel_matches_newton_oracle(params, f_xy):
    """Independent oracle: simultaneous root of the wage and balance
    equations on the full-population kernel, acceptance assumed total and
    verified afterwards."""
    n = 4
    platform = uniform_platform(n)
    g = platform.grid
    F = f_xy.values(g)
    G = dense_kernel(platform)
    theta, rho, alpha = params.theta, params.rho, params.alpha

    def system(z):
        w, u = z[:n], z[n:]
        bell = w - theta * ((G * (F - w[:, None] - w[None, :])) @ u)
        bal = alpha * (1 - u) - rho * (G @ u)
        return np.concatenate([bell, bal])

    guess = np.concatenate([np.zeros(n), np.full(n, alpha / (alpha + rho))])
    sol = root(system, guess)
    assert np.max(np.abs(system(sol.x))) < 1e-12
    w_oracle, u_oracle = sol.x[:n], sol.x[n:]
    assert np.all(F - w_oracle[:, None] - w_oracle[None, :] >= 0)  # all-accept holds

    st_ = solve_dse(platform, f_xy, params)
    assert np.max(np.abs(st_.w - w_oracle)) < 1e-8
    assert np.max(np.abs(st_.u - u_oracle)) < 1e-8


# ---------------------------------------------------------------------------
# residual recomputation
# ---------------------------------------------------------------------------


def test_residuals_of_solver_output(params, f_xy):
    platform = uniform_platform(5)
    st_ = solve_dse(platform, f_xy, params)
    bell, bal, violations = dse_residuals(platform, f_xy, params, st_)
    assert bell <= 1e-10
    assert bal <= 1e-12 * params.alpha
    assert violations == 0


def test_residuals_detect_perturbed_wage(params, f_xy):
    from matchlab.core import DSEState

    platform = uniform_platform(5)
    st_ = solve_dse(platform, f_xy, params)
    w = st_.w.copy()
    w[2] += 0.1
    M = (f_xy.values(platform.grid) - w[:, None] - w[None, :]) >= 0
    bumped = DSEState(w=w, u=st_.u.copy(), M=M, bellman_residual=0, balance_residual=0)
    bell, _, _ = dse_residuals(platform, f_xy, params, bumped)
    assert bell >= 0.01


def test_residuals_count_flipped_acceptance(params, f_xy):
    from matchlab.core import DSEState

    platform = uniform_platform(5)
    st_ = solve_dse(platform, f_xy, params)
    M = st_.M.copy()
    assert M[4, 3]  # top pair surplus is positive
    M[4, 3] = False
    M[3, 4] = False
    flipped = DSEState(w=st_.w.copy(), u=st_.u.copy(), M=M,
                       bellman_residual=0, balance_residual=0)
    _, _, violations = dse_residuals(platform, f_xy, params, flipped)
    assert violations == 2


# ---------------------------------------------------------------------------
# behaviour of the iteration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("platform_maker", [
    lambda: first_best_platform(make_grid(16), 0),
    lambda: uniform_platform(6),
])
def test_idempotence(platform_maker, params, f_xy):
    platform = platform_maker()
    st_ = solve_dse(platform, f_xy, params)
    again = solve_dse(platform, f_xy, params, w_start=st_.w)
    assert again.iterations <= 2
    assert np.max(np.abs(again.w - st_.w)) <= 1e-10


def test_non_convergence_error_carries_residuals(params, f_xy):
    cfg = SolverConfig(max_outer=2)
    with pytest.raises(NonConvergenceError) as err:
        solve_dse(uniform_platform(6), f_xy, params, cfg)
    assert err.value.iterations == 2
    assert err.value.bellman_residual > 0
    assert err.value.period == 0
    assert err.value.flipping_pairs == ()


# (n, a, b, rho, alpha, r, period): mixture kernels on which policy iteration
# hands over and the damped loop then settles into a cycle of acceptance
# sets; small cases like those the equilibrium-contract property draws
CYCLES = [
    (3, 0.07, 0.0, 1.87, 1.76, 0.2, 2),
    (21, 0.150, 0.398, 1.70, 0.787, 0.728, 6),
]


@pytest.mark.parametrize("n, a, b, rho, alpha, r, period", CYCLES,
                         ids=[f"mixture{case[0]}" for case in CYCLES])
def test_cycling_acceptance_sets_fail_fast(n, a, b, rho, alpha, r, period, f_xy):
    with pytest.raises(NonConvergenceError) as err:
        solve_dse(mixture_platform(n, a, b), f_xy, SearchParams(rho=rho, alpha=alpha, r=r))
    exc = err.value
    assert exc.period == period
    assert exc.iterations <= 200
    assert f"cycle with period {period} after {exc.iterations} sweeps" in str(exc)
    assert exc.flipping_pairs
    i, j = exc.flipping_pairs[0]
    assert i <= j
    assert f"flipping pairs ({i}, {j})" in str(exc)
    assert exc.bellman_residual > 1e-6


@pytest.mark.parametrize("m", [3, 9, 17, 300])
def test_flipped_pairs_are_the_upper_triangle_of_the_unpacked_xor(m):
    """On random bytes, padding bits included, the pairs a cycle names are
    the row-major nonzero upper-triangle entries of the unpacked xor."""
    rng = np.random.default_rng(m)
    size = -(-m * m // 8)
    for density in (0.02, 0.5):
        packed, packed_before = (np.packbits(rng.random(8 * size) < density).tobytes()
                                 for _ in range(2))
        flipped = np.bitwise_xor(np.frombuffer(packed, np.uint8),
                                 np.frombuffer(packed_before, np.uint8))
        reference = np.nonzero(np.triu(np.unpackbits(flipped, count=m * m).reshape(m, m)))
        rows, cols = solver._flipped_pairs(packed, packed_before, m)
        assert np.array_equal(rows, reference[0]) and np.array_equal(cols, reference[1])
    rows, cols = solver._flipped_pairs(packed, packed, m)
    assert len(rows) == len(cols) == 0


# mixture kernels on which the damped loop alone cycles with this period, and
# policy iteration reaches a certified state: the reference rates, and a
# small case like those the equilibrium-contract property draws
DAMPED_CYCLES = [
    (400, 0.3, 0.3, 1.0, 0.5, 0.05, 2),
    (8, 0.26, 0.15, 2.36, 1.34, 0.59, 3),
]


@pytest.mark.parametrize("n, a, b, rho, alpha, r, period", DAMPED_CYCLES,
                         ids=[f"mixture{case[0]}" for case in DAMPED_CYCLES])
def test_policy_iteration_certifies_damped_cycles(n, a, b, rho, alpha, r, period, f_xy):
    platform = mixture_platform(n, a, b)
    p = SearchParams(rho=rho, alpha=alpha, r=r)
    with pytest.raises(NonConvergenceError) as err:
        damped_solve(platform, f_xy, p)
    assert err.value.period == period
    assert err.value.iterations <= 200
    st_ = solve_dse(platform, f_xy, p)
    bell, bal, violations = dse_residuals(platform, f_xy, p, st_)
    assert bell <= 1.2e-15
    assert bal <= 1.2e-15
    assert violations == 0
    assert st_.iterations <= 10


def test_never_repeating_stall_fails_fast(f_xy):
    """Acceptance sets that keep changing without repeating, while the Bellman
    residual stops improving, stop the solve as fast as a cycle does."""
    with pytest.raises(NonConvergenceError) as err:
        solve_dse(mixture_platform(30, 0.081, 0.641), f_xy,
                  SearchParams(rho=1.78, alpha=0.372, r=0.423))
    exc = err.value
    assert exc.period == 0
    assert exc.flipping_pairs == ()
    assert exc.iterations <= 200
    assert str(exc).startswith(
        f"no new best bellman residual over the last 64 of {exc.iterations} sweeps")
    assert exc.bellman_residual > 1e-6


def test_diverging_update_fails_fast(f_xy):
    """Under a fixed acceptance set the damped update is affine; on this kernel
    it diverges, and the solve stops long before the wages overflow."""
    with pytest.raises(NonConvergenceError) as err:
        solve_dse(mixture_platform(4, 0.21875, 0.0), f_xy,
                  SearchParams(rho=1.90625, alpha=1.28125, r=1.0))
    assert err.value.period == 1
    assert err.value.flipping_pairs == ()
    assert err.value.iterations <= 200
    assert str(err.value).startswith("damped update does not contract")


def test_non_convergence_error_round_trips_through_pickle(f_xy):
    n, a, b, rho, alpha, r, _ = CYCLES[1]
    with pytest.raises(NonConvergenceError) as err:
        solve_dse(mixture_platform(n, a, b), f_xy, SearchParams(rho=rho, alpha=alpha, r=r))
    again = pickle.loads(pickle.dumps(err.value))
    assert type(again) is NonConvergenceError
    assert str(again) == str(err.value)
    assert vars(again) == vars(err.value)


def test_policy_wages_refuse_a_singular_system():
    # det(diag(1 + A u) + A diag(u)) = 1 + u_0 + u_1 for this swap kernel
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([-0.5, -0.5])
    assert solver._policy_wages(A, u, A @ u, np.ones(2), 1.0, np.zeros(2)) is None


def test_singular_policy_step_hands_over_to_the_damped_loop(params, f_xy, monkeypatch):
    """A policy step whose wage system is singular hands over to the damped
    loop, restarted from the start: the state does not depend on the step
    that handed over, and the solves of every step count."""
    platform = glitch(first_best_platform(make_grid(40), 0), 0.5)
    damped = damped_solve(platform, f_xy, params)
    real_policy_wages = solver._policy_wages
    calls = []

    def singular_second(*args):
        calls.append(None)
        return None if len(calls) == 2 else real_policy_wages(*args)

    monkeypatch.setattr(solver, "_policy_wages", singular_second)
    st_ = solve_dse(platform, f_xy, params)
    assert len(calls) == 2
    assert st_.w.tobytes() == damped.w.tobytes() and st_.u.tobytes() == damped.u.tobytes()
    assert np.array_equal(st_.M, damped.M)
    assert st_.iterations == damped.iterations
    assert st_.steady_state_solves == damped.steady_state_solves + 1


def test_steady_state_solved_only_when_acceptance_changes(params, f_xy):
    dense = solve_dse(glitch(first_best_platform(make_grid(40), 0), 0.5), f_xy, params)
    assert 1 <= dense.steady_state_solves < dense.iterations
    diagonal = solve_dse(first_best_platform(make_grid(40), 0), f_xy, params)
    assert diagonal.steady_state_solves == 0


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.3, 0.5])
def test_policy_iteration_selects_the_most_accepted_pairs(n, epsilon, params, f_xy):
    """The selection rule: from the accept-all policy, policy iteration only
    removes pairs, and its equilibrium accepts every pair that the damped
    loop's equilibrium accepts from each of four starts."""
    platform = glitch(first_best_platform(make_grid(n), 0), epsilon)
    F = f_xy.values(platform.grid)
    st_ = solve_dse(platform, f_xy, params)
    starts = (np.zeros(n), np.diagonal(F) / 2, np.diagonal(F) / 5.3, np.full(n, F.max() / 2))
    for w_start in starts:
        damped = damped_solve(platform, f_xy, params, w_start)
        assert np.all(st_.M >= damped.M)


@pytest.mark.parametrize("epsilon", [0.01, 0.5])
def test_policy_steps_shrink_the_acceptance_sets(epsilon, params, f_xy, monkeypatch):
    """Each policy step's acceptance sets lie inside the previous step's, down
    to the returned state's, and no step hands over to the damped loop.  The
    loop holds each step's sets as packed bits, recorded here unpacked; the
    returned state's are the full array."""
    seen = []

    def recording_packed(Fb, w):
        packed = _packed_acceptance(Fb, w)
        m = len(w)
        seen.append(np.unpackbits(np.frombuffer(packed, np.uint8), count=m * m)
                    .view(bool).reshape(m, m))
        return packed

    def recording(*args, **kwargs):
        seen.append(acceptance(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(solver, "_packed_acceptance", recording_packed)
    monkeypatch.setattr(solver, "acceptance", recording)
    st_ = solve_dse(glitch(first_best_platform(make_grid(200), 0), epsilon), f_xy, params)
    assert np.all(seen[0])  # zero wages accept every pair
    assert len(seen) == st_.iterations + 1 <= 10  # one set a step, then the returned state's
    for before, after in zip(seen, seen[1:]):
        assert np.all(before >= after)
    assert np.array_equal(seen[-1], st_.M)


def _state_digest(state):
    h = hashlib.sha256()
    for values in (state.w, state.u):
        h.update(np.asarray(values, dtype="<f8").tobytes())
    h.update(np.packbits(state.M).tobytes())
    h.update(repr((state.bellman_residual, state.balance_residual,
                   state.iterations)).encode())
    return h.hexdigest()


# SHA-256 of (w, u, packbits(M), residuals, sweeps) of dense solves at the
# reference rates on one BLAS thread, with every policy-step solve on the LU:
# a change to any floating-point operation of the dense sweep or the LU
# policy step, or to the equilibrium it selects, shows up here.  Policy
# iteration certifies the glitched solves; on the mixture kernel it hands
# over, so that digest pins the damped loop
GOLDEN_DENSE = {
    "glitch0.5": "481cc6155280d2b4243edc9433c1133f03caed9c7fe9752f7f7ca52dda852213",
    "glitch0.01": "360db57a0b0a78ad2086388557a5ed526727e5ba73f35b84a7dd37b773d49ece",
    "mixture300": "03c0ccdcf1641e810cfe31f329412a3361339f47881094313ec143795ab704f1",
}
# the same solves on the default path, conjugate gradients in the policy
# steps: the glitched states move in the last bits of w and u, with the
# same M; the damped loop, and so the mixture digest, do not change
GOLDEN_PCG = {
    "glitch0.5": "948fbb5215be4f25082f73c1aa07d1e34bde61adfced7da0bfd4a0056587158b",
    "glitch0.01": "df25958bbc90c7711022d60aaa8ab6c9cc6d4b01b7cadd9c8095e7354ff41ec7",
    "mixture300": "03c0ccdcf1641e810cfe31f329412a3361339f47881094313ec143795ab704f1",
}


def golden_digests():
    """Digests of the golden dense solves at the reference rates, on the
    default conjugate-gradient path and on the LU fallback."""
    params = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    f = ProductionFunction.multiplicative()
    platforms = {
        "glitch0.5": glitch(first_best_platform(make_grid(200), 0), 0.5),
        "glitch0.01": glitch(first_best_platform(make_grid(200), 0), 0.01),
        "mixture300": mixture_platform(300, 0.3, 0.3),
    }
    return tuple({name: _state_digest(solve(platform, f, params))
                  for name, platform in platforms.items()}
                 for solve in (solve_dse, lu_solve))


def test_dense_solves_match_golden_digests():
    """The dense solves return the same bits from run to run, on the default
    conjugate-gradient path and on the LU fallback alike.  They run in a
    fresh interpreter that imports ``matchlab.cli`` first, so BLAS runs on
    the CLI's one thread whatever thread count this process started with:
    one-thread and threaded OpenBLAS round the mixture solve differently.
    The digests were taken under numpy 2.4.6 with its bundled OpenBLAS
    0.3.31 on an x86-64 Intel Xeon; LU, dot and matrix-product bits can
    differ under another BLAS build or CPU kernel, which may move them."""
    out = fresh_python("import json, matchlab.cli, test_solver\n"
                       "print(json.dumps(test_solver.golden_digests()))")
    pcg, dense = json.loads(out)
    assert pcg == GOLDEN_PCG
    assert dense == GOLDEN_DENSE


def _solve_both_ways(platform, f, params):
    """The default solve and the forced-LU one, after requiring that they
    agree (the same acceptance sets, wages within 1e-12) and that
    ``dse_residuals`` certifies both."""
    cfg = SolverConfig()
    states = solve_dse(platform, f, params), lu_solve(platform, f, params)
    for state in states:
        bell, bal, violations = dse_residuals(platform, f, params, state)
        assert bell <= cfg.tol_w and bal <= cfg.tol_u * params.alpha and violations == 0
    assert np.array_equal(states[0].M, states[1].M)
    assert np.max(np.abs(states[0].w - states[1].w)) <= 1e-12
    return states


@pytest.mark.parametrize("n, epsilon", [
    *(pytest.param(n, eps, id=f"glitch{eps}-n{n}")
      for n in (100, 200, 400) for eps in (0.01, 0.1, 0.3, 0.5)),
    pytest.param(300, None, id="mixture300"),
])
def test_conjugate_gradients_match_the_lu(n, epsilon, params, f_xy):
    """Conjugate gradients in the policy steps reach the certified state of
    the LU path, and no step falls back.  ``epsilon`` None is
    ``mixture_kernel(n, .3, .3)``."""
    platform = (mixture_platform(n, 0.3, 0.3) if epsilon is None
                else glitch(first_best_platform(make_grid(n), 0), epsilon))
    st_, lu = _solve_both_ways(platform, f_xy, params)
    assert st_.lu_fallbacks == 0 < lu.lu_fallbacks


def test_indefinite_balance_falls_back_to_the_lu(f_xy):
    """A reversal-heavy kernel at rho / alpha = 3 makes ``I + (rho/alpha) A``
    indefinite, conjugate gradients break down, and the LU answers: the
    state is the certified one of the LU path."""
    st_, _ = _solve_both_ways(mixture_platform(100, 0.1, 0.1), f_xy,
                              SearchParams(rho=1.5, alpha=0.5, r=0.05))
    assert st_.lu_fallbacks > 0


def test_pcg_refuses_a_breakdown_a_residual_and_the_iteration_cap(monkeypatch):
    """``p . K p <= 0`` on an indefinite system, a weighted residual above
    ``_PCG_RESIDUAL`` and the cap on a positive definite one all return
    None; otherwise the solution comes back."""
    indefinite = np.diag([1.0, -1.0])
    assert solver._pcg(lambda v: indefinite @ v, np.ones(2), np.diagonal(indefinite),
                       np.zeros(2)) is None
    K = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    x = solver._pcg(lambda v: K @ v, np.ones(3), np.diagonal(K), np.zeros(3))
    assert np.max(np.abs(K @ x - 1.0)) <= 1e-15
    # the residual, 2.2e-16 in two rows, weighs 2.2e-10 at weight 1e6
    assert solver._pcg(lambda v: K @ v, np.ones(3), np.diagonal(K), np.zeros(3),
                       1e6) is None
    monkeypatch.setattr(solver, "_PCG_MAX_ITER", 1)
    assert solver._pcg(lambda v: K @ v, np.ones(3), np.diagonal(K), np.zeros(3)) is None


def test_inconsistent_platform_refused(params, f_xy):
    g = make_grid(4)
    kernel = np.eye(4)
    kernel[0, 0] -= 1e-3
    kernel[0, 1] += 1e-3
    platform = Platform(grid=g, cutoff=0, kernel=kernel, transfers=np.zeros(4))
    with pytest.raises(ValueError, match="consistent"):
        solve_dse(platform, f_xy, params)


def test_acceptance_matrix_symmetric(params, f_xy):
    for platform in (first_best_platform(make_grid(20), 3), uniform_platform(9)):
        st_ = solve_dse(platform, f_xy, params)
        assert np.array_equal(st_.M, st_.M.T)


def test_wage_bounded_by_best_output(params, f_xy):
    for platform in (first_best_platform(make_grid(20), 3), uniform_platform(9)):
        st_ = solve_dse(platform, f_xy, params)
        best = f_xy.values(platform.grid).max(axis=1)
        assert np.all(st_.w >= 0.0)
        assert np.all(st_.w <= best)


def test_density_floor_on_assortative_families(params, f_xy):
    """On assortative and glitched-assortative kernels the steady-state
    density never falls below alpha / (alpha + rho).  (Kernels that mix
    types with very unequal acceptance can legitimately dip below: a type
    whose partners are plentiful re-matches faster than the assortative
    rate.)"""
    floor = params.alpha / (params.alpha + params.rho)
    platforms = [first_best_platform(make_grid(30), 0)]
    platforms += [glitch(first_best_platform(make_grid(30), 0), eps)
                  for eps in (0.1, 0.01)]
    for platform in platforms:
        st_ = solve_dse(platform, f_xy, params)
        assert np.all(st_.u >= floor - 1e-12)
        assert np.all(st_.u <= 1.0)


@given(n=st.integers(min_value=2, max_value=10),
       a=st.floats(min_value=0.0, max_value=1.0),
       b=st.floats(min_value=0.0, max_value=1.0),
       rho=st.floats(min_value=0.3, max_value=2.5),
       alpha=st.floats(min_value=0.3, max_value=2.5),
       r=st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_equilibrium_contract_on_symmetric_kernels(n, a, b, rho, alpha, r):
    """Whatever consistent kernel the solver accepts, the returned state
    satisfies the fixed-point conditions and is a valid density."""
    total = a + b
    if total > 1.0:
        a, b = a / total, b / total
    platform = mixture_platform(n, a, b)
    p = SearchParams(rho=rho, alpha=alpha, r=r)
    f = ProductionFunction.multiplicative()
    try:
        st_ = solve_dse(platform, f, p)
    except NonConvergenceError as exc:
        # lopsided acceptance-filtered kernels can lack a density-valued
        # steady state, and the damped update can stall; refusing is the
        # contract, but a stall must be refused long before max_outer
        assert exc.iterations < SolverConfig().max_outer
        assume(False)
    bell, bal, violations = dse_residuals(platform, f, p, st_)
    assert bell <= 1e-9
    assert bal <= 1e-11
    assert violations == 0
    assert np.all((st_.u >= 0.0) & (st_.u <= 1.0))
    assert np.array_equal(st_.M, st_.M.T)
