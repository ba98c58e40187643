"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Criterion 4 (payoff recovery) checks simulated payoffs against
the values the equilibrium predicts for them; the README's "Criterion 4"
section explains how those values relate to the wage.
"""

import itertools
import time

import numpy as np
import pytest

from matchlab import (
    Platform,
    ProductionFunction,
    SearchParams,
    SimConfig,
    audit,
    design,
    envelope_transfers,
    first_best_platform,
    first_best_wage_coefficient,
    glitch,
    involution_oracle,
    make_grid,
    optimal_exclusion,
    pooled_deviations,
    private_info_transfers,
    prop4_oracle,
    simulate,
    solve_dse,
)
from matchlab.core import available_cpus

from conftest import cubic_production, search_value

RATE_LATTICE = [0.5, 1.0, 2.0]
REFERENCE = SearchParams(rho=1.0, alpha=0.5, r=0.05)


def report(number, ok, detail):
    print(f"\n[criterion {number:>2}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def reference_simulation():
    """Shared run for the simulation criteria: assortative platform, f = xy,
    rho = 1, alpha = 0.5, r = 0.05, 10 nodes, 200 agents per node, horizon
    2000 with burn-in 200, 8 replications on one worker process per
    available CPU."""
    grid = make_grid(10)
    f = ProductionFunction.multiplicative()
    platform = first_best_platform(grid, 0)
    state = solve_dse(platform, f, REFERENCE)
    cfg = SimConfig(agents_per_node=200, horizon=2000.0, burn_in=200.0,
                    seed=20240817, replications=8)
    start = time.perf_counter()
    outcome = simulate(platform, f, REFERENCE, state.w, cfg, jobs=available_cpus())
    elapsed = time.perf_counter() - start
    return outcome, state, elapsed


def test_criterion_01_steady_state_density():
    grid = make_grid(1000)
    f = ProductionFunction.multiplicative()
    platform = first_best_platform(grid, 0)
    start = time.perf_counter()
    worst = 0.0
    for rho, alpha, r in itertools.product(RATE_LATTICE, repeat=3):
        state = solve_dse(platform, f, SearchParams(rho, alpha, r))
        worst = max(worst, float(np.max(np.abs(state.u - alpha / (alpha + rho)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"density dev {worst:.2e} (tol 1e-10), 27 solves in {elapsed:.2f}s (< 1s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_closed_form_wage():
    grid = make_grid(1000)
    platform = first_best_platform(grid, 0)
    productions = [ProductionFunction.multiplicative(),
                   ProductionFunction.multiplicative_plus_constant(0.2)]
    start = time.perf_counter()
    worst = 0.0
    for f in productions:
        fdiag = np.asarray(f.eval(grid.nodes, grid.nodes))
        for rho, alpha, r in itertools.product(RATE_LATTICE, repeat=3):
            params = SearchParams(rho, alpha, r)
            state = solve_dse(platform, f, params)
            target = first_best_wage_coefficient(params) * fdiag
            worst = max(worst, float(np.max(np.abs(state.w - target))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(2, ok, f"wage dev {worst:.2e} (tol 1e-8), 54 solves in {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_03_simulation_density(reference_simulation):
    outcome, _, elapsed = reference_simulation
    worst = float(np.max(np.abs(pooled_deviations(
        outcome.unmatched_fraction_by_node, outcome.se_unmatched_by_node,
        np.full_like(outcome.unmatched_fraction_by_node, 1.0 / 3.0)))))
    ok = (worst <= 3.0 and outcome.rejected_meeting_count == 0 and elapsed < 60.0)
    report(3, ok, f"worst node {worst:.2f} pooled SEs (tol 3), "
                  f"{outcome.rejected_meeting_count} rejected meetings, "
                  f"sim {elapsed:.1f}s (< 60s)")
    assert worst <= 3.0
    assert outcome.rejected_meeting_count == 0
    assert elapsed < 60.0


def test_criterion_04_payoff_recovery(reference_simulation):
    """Simulated r-scaled discounted payoffs against the values the
    equilibrium predicts for them.

    The payoff averaged over every agent of a node estimates the mean flow
    ``(1 - u_i) phi_i`` with ``phi_i = f(x_i, x_i) / 2``; ``r`` cancels out of
    it.  The payoff averaged over the agents unmatched at burn-in estimates
    the value of search ``V(h_i) = h_i phi_i / (r + alpha + h_i)`` at the
    unmatched meeting hazard ``h_i = alpha (1 - u_i) / u_i`` that the flow
    balance sets (criteria 1 and 3).  The wage is ``V(rho u_i)``: the Bellman
    recursion prices the slower hazard ``rho u_i``, so both statistics sit
    above it by predicted ratios (5.3/3 and 5.3/3.1 at the reference rates);
    the README sets out this gap.  Both checks allow four pooled relative
    standard errors.
    """
    outcome, state, _ = reference_simulation
    phi = 0.5 * make_grid(10).nodes ** 2  # f = xy on the assortative platform
    u = state.u
    mean_flow = (1.0 - u) * phi
    search = search_value(REFERENCE.alpha * (1.0 - u) / u, phi, REFERENCE)
    worst_all = float(np.max(np.abs(pooled_deviations(
        outcome.mean_discounted_payoff_by_node, outcome.se_payoff_by_node, mean_flow))))
    worst_search = float(np.max(np.abs(pooled_deviations(
        outcome.mean_search_payoff_by_node, outcome.se_search_payoff_by_node, search))))
    ok = worst_all <= 4.0 and worst_search <= 4.0

    def ratio(values):
        return float(np.median(values / state.w))

    report(4, ok,
           f"all agents: worst node {worst_all:.2f} pooled SEs from (1-u) f/2 (tol 4), "
           f"payoff/wage {ratio(outcome.mean_discounted_payoff_by_node):.3f} "
           f"(predicted {ratio(mean_flow):.3f}); "
           f"unmatched at burn-in: worst node {worst_search:.2f} pooled SEs from V(h) "
           f"(tol 4), payoff/wage {ratio(outcome.mean_search_payoff_by_node):.3f} "
           f"(predicted {ratio(search):.3f})")
    assert worst_all <= 4.0
    assert worst_search <= 4.0


def test_simulation_node_independence(reference_simulation):
    """On the assortative platform the empirical unmatched fraction carries
    no node structure: max spread within four pooled standard errors."""
    outcome, state, _ = reference_simulation
    spread = np.ptp(pooled_deviations(outcome.unmatched_fraction_by_node,
                                      outcome.se_unmatched_by_node, state.u))
    assert spread <= 4.0


def test_criterion_05_optimal_exclusion():
    grid = make_grid(1000)
    start = time.perf_counter()
    ex = optimal_exclusion(grid, ProductionFunction.multiplicative())
    ex_bonus = optimal_exclusion(grid, ProductionFunction.multiplicative_plus_constant(0.2))
    elapsed = time.perf_counter() - start
    profit_zero = float(ex.profit_curve[0])
    k_half = int(np.searchsorted(grid.nodes, 0.5))
    profit_half = float(ex.profit_curve[k_half])
    ok = (abs(ex.x_tilde - 0.5) <= 1.0 / 1000
          and abs(profit_zero - 1.0 / 3.0) <= 2e-3
          and abs(profit_half - 5.0 / 12.0) <= 2e-3
          and ex_bonus.cutoff_index == 0
          and elapsed < 1.0)
    report(5, ok, f"x_tilde {ex.x_tilde:.4f} (target 0.5), profit(0) {profit_zero:.5f}, "
                  f"profit(0.5) {profit_half:.5f}, bonus cutoff {ex_bonus.cutoff_index}, "
                  f"{elapsed:.2f}s (< 1s)")
    assert abs(ex.x_tilde - 0.5) <= 1.0 / 1000
    assert abs(profit_zero - 1.0 / 3.0) <= 2e-3
    assert abs(profit_half - 5.0 / 12.0) <= 2e-3
    assert ex_bonus.cutoff_index == 0
    assert elapsed < 1.0


def test_criterion_06_envelope_agreement():
    """Numeric envelope transfers against the closed form under refinement.

    Both built-in productions have quadratic diagonals on which every
    stencil in the pipeline is exact (gaps at machine noise), so the
    convergence order is measured on a strictly supermodular cubic table
    with an exact derivative table.
    """
    sizes = [125, 250, 500, 1000]
    gaps_cubic = {}
    gaps_xy = {}
    for n in sizes:
        grid = make_grid(n)
        for label, f in (("cubic", cubic_production(grid)),
                         ("xy", ProductionFunction.multiplicative())):
            platform = first_best_platform(grid, 0)
            state = solve_dse(platform, f, REFERENCE)
            t_env = envelope_transfers(platform, f, REFERENCE, state)
            t_closed = private_info_transfers(grid, f, REFERENCE, 0)
            gap = float(np.max(np.abs(t_env - t_closed)))
            (gaps_cubic if label == "cubic" else gaps_xy)[n] = gap
    bounds_ok = all(gaps_cubic[n] <= 5.0 / n ** 2 and gaps_xy[n] <= 5.0 / n ** 2
                    for n in sizes)
    orders = [float(np.log2(gaps_cubic[n] / gaps_cubic[2 * n])) for n in (125, 250, 500)]
    order_ok = min(orders) >= 1.9
    report(6, bounds_ok and order_ok,
           f"cubic gaps {[f'{gaps_cubic[n]:.1e}' for n in sizes]} vs 5/n^2, "
           f"orders {[f'{o:.2f}' for o in orders]} (tol 1.9)")
    assert bounds_ok
    assert order_ok


def test_criterion_07_ic_ir_certification():
    grid = make_grid(1000)
    f = ProductionFunction.multiplicative()
    k = int(np.searchsorted(grid.nodes, 0.5))
    result = design(grid, f, REFERENCE, cutoff=k)
    good = audit(result.platform, f, REFERENCE, result.dse)

    grabby = Platform(grid=grid, cutoff=k, kernel=result.platform.runs[3],
                      transfers=result.dse.w.copy())
    bad = audit(grabby, f, REFERENCE, result.dse)

    ok = (good.ic_max_violation <= 1e-8 and good.ir_min_slack >= -1e-12
          and bad.ic_max_violation > 0.0)
    report(7, ok, f"designed ic {good.ic_max_violation:.2e} (tol 1e-8), "
                  f"ir {good.ir_min_slack:.2e} (tol -1e-12); "
                  f"corrupted ic {bad.ic_max_violation:.3e} (> 0)")
    assert good.ic_max_violation <= 1e-8
    assert good.ir_min_slack >= -1e-12
    assert bad.ic_max_violation > 0.0


def test_criterion_08_rent_minimization_oracle():
    expected_counts = {3: 4, 4: 10, 5: 26, 6: 76, 7: 232}
    productions = [ProductionFunction.multiplicative(),
                   ProductionFunction.multiplicative_plus_constant(0.2)]
    start = time.perf_counter()
    ok = True
    for m in range(3, 8):
        for f in productions:
            minimal, scanned, _ = involution_oracle(m, f, REFERENCE)
            ok = ok and minimal and scanned == expected_counts[m]
    elapsed = time.perf_counter() - start
    report(8, ok and elapsed < 10.0,
           f"identity minimal over {sum(expected_counts.values())} involutions x 2 "
           f"productions in {elapsed:.2f}s (< 10s)")
    assert ok
    assert elapsed < 10.0


def test_criterion_09_upper_set_oracle():
    productions = [ProductionFunction.multiplicative(),
                   ProductionFunction.multiplicative_plus_constant(0.2)]
    start = time.perf_counter()
    results = [prop4_oracle(n, f, REFERENCE)
               for n in (3, 4, 5) for f in productions]
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 60.0
    report(9, ok, f"no certified non-upper inclusion set on grids up to 5 "
                  f"({len(results)} scans in {elapsed:.2f}s, < 60s)")
    assert all(results)
    assert elapsed < 60.0


def test_criterion_10_glitch_convergence():
    grid = make_grid(200)
    f = ProductionFunction.multiplicative()
    base = first_best_platform(grid, 0)
    target = first_best_wage_coefficient(REFERENCE) * grid.nodes ** 2
    dists = []
    for eps in (0.1, 0.01, 0.001):
        state = solve_dse(glitch(base, eps), f, REFERENCE)
        dists.append(float(np.max(np.abs(state.w - target))))
    ok = dists[0] > dists[1] > dists[2]
    report(10, ok, "wage distances " + ", ".join(f"{d:.2e}" for d in dists)
           + " strictly decreasing in the glitch weight")
    assert dists[0] > dists[1] > dists[2]


def test_criterion_11_comparative_statics():
    grid = make_grid(16)
    f = ProductionFunction.multiplicative()
    fdiag = grid.nodes ** 2  # strictly positive on the whole grid
    ok = True

    # meeting rate: wage up, unmatched density down, at every lattice pair
    for alpha, r in itertools.product(RATE_LATTICE, repeat=2):
        for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
            w_lo = first_best_wage_coefficient(SearchParams(lo, alpha, r)) * fdiag
            w_hi = first_best_wage_coefficient(SearchParams(hi, alpha, r)) * fdiag
            ok &= bool(np.all(w_hi > w_lo))
            ok &= alpha / (alpha + hi) < alpha / (alpha + lo)

    # divorce rate: the sign of the wage response matches the sign of
    # r - alpha (evaluated where the comparison is exact, rho = r)
    inc = first_best_wage_coefficient(SearchParams(2.0, 1.0, 2.0)) \
        - first_best_wage_coefficient(SearchParams(2.0, 0.5, 2.0))
    dec = first_best_wage_coefficient(SearchParams(0.5, 2.0, 0.5)) \
        - first_best_wage_coefficient(SearchParams(0.5, 1.0, 0.5))
    ok &= inc > 0 and dec < 0

    # r = alpha: the alpha-derivative vanishes (symmetric difference at the
    # self-similar point rho = alpha = r)
    h = 1e-4
    flat = abs(first_best_wage_coefficient(SearchParams(1.0, 1.0 + h, 1.0))
               - first_best_wage_coefficient(SearchParams(1.0, 1.0 - h, 1.0)))
    ok &= flat <= 1e-12

    report(11, ok, f"rho-monotonicity exact on the lattice; alpha response "
                   f"sign matches sign(r - alpha); |flat-point gap| {flat:.1e} (tol 1e-12)")
    assert ok
