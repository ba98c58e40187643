import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import (
    Platform,
    ProductionFunction,
    SearchParams,
    audit,
    design,
    enumerate_involutions,
    envelope_transfers,
    first_best_platform,
    first_best_wage_coefficient,
    glitch,
    informational_rent,
    involution_rent,
    make_grid,
    optimal_exclusion,
    pairing_wage,
    private_info_transfers,
    solve_dse,
    transfer_coefficient,
)
from matchlab import designer
from matchlab.core import RESIDUAL_TOL

from conftest import TabulatedWithDerivative, cubic_production, dense_kernel, dense_platform


# ---------------------------------------------------------------------------
# assortative platforms and their closed forms
# ---------------------------------------------------------------------------


def test_first_best_platform_is_identity():
    p = first_best_platform(make_grid(4), 0)
    assert p.is_diagonal and np.array_equal(p.runs[3], np.ones(4))
    assert p.consistency_defect() == 0.0


def test_first_best_platform_with_cutoff():
    p = first_best_platform(make_grid(4), 2)
    assert p.is_diagonal and np.array_equal(p.runs[3], np.ones(2))
    assert np.arange(p.cutoff, p.grid.n).tolist() == [2, 3]


def test_first_best_dse_reference_values(params, f_xy):
    g = make_grid(40)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    assert np.allclose(st.w, g.nodes ** 2 / 5.3, atol=1e-15)
    assert np.all(st.u == 1.0 / 3.0)
    assert st.bellman_residual < 1e-15


def test_first_best_dse_agrees_with_solver(params, f_xy):
    """The closed form against an iterative reference: the same identity
    platform solved by the dense path, which runs on its kernel held as the
    dense identity matrix."""
    g = make_grid(64)
    closed = solve_dse(first_best_platform(g, 5), f_xy, params)
    solved = solve_dse(dense_platform(first_best_platform(g, 5)), f_xy, params)
    assert solved.iterations > 0 and solved.steady_state_solves > 0
    assert np.max(np.abs(closed.w - solved.w)) < 1e-15
    assert np.max(np.abs(closed.u - solved.u)) < 1e-15
    assert np.array_equal(closed.M, solved.M)


def test_first_best_dse_zero_production(params):
    g = make_grid(4)
    f0 = ProductionFunction.tabulated(g, np.zeros((4, 4)))
    assert np.all(solve_dse(first_best_platform(g, 0), f0, params).w == 0.0)


def test_perfect_info_extracts_everything(params, f_xy):
    """Full-extraction transfers (t = w) leave every type exactly zero surplus."""
    g = make_grid(16)
    base = first_best_platform(g, 0)
    st = solve_dse(base, f_xy, params)
    grabby = Platform(grid=g, cutoff=0, kernel=base.runs[3], transfers=st.w.copy())
    assert audit(grabby, f_xy, params, st).ir_min_slack == 0.0


# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------


def test_envelope_on_constant_production(params):
    g = make_grid(12)
    fc = ProductionFunction.tabulated(g, np.full((12, 12), 0.7))
    st = solve_dse(first_best_platform(g, 0), fc, params)
    t = envelope_transfers(first_best_platform(g, 0), fc, params, st)
    assert np.array_equal(t, st.w)


def test_envelope_four_node_hand_computation(params, f_xy):
    """Trapezoid cumulation recomputed with bare scalars as the oracle."""
    g = make_grid(4)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    t = envelope_transfers(first_best_platform(g, 0), f_xy, params, st)

    x = [0.125, 0.375, 0.625, 0.875]
    coeff = first_best_wage_coefficient(params)
    w = [coeff * xi * xi for xi in x]
    h = 0.25
    # wage slope: 3-point one-sided at the ends, centered inside
    wp = [(-3 * w[0] + 4 * w[1] - w[2]) / (2 * h),
          (w[2] - w[0]) / (2 * h),
          (w[3] - w[1]) / (2 * h),
          (3 * w[3] - 4 * w[2] + w[1]) / (2 * h)]
    theta_u = params.theta / 3.0
    slope = [theta_u * (x[i] - wp[i]) for i in range(4)]
    expected = [w[0]]
    cum = 0.0
    for i in range(1, 4):
        cum += 0.5 * (slope[i - 1] + slope[i]) * h
        expected.append(w[i] - cum)
    assert np.allclose(t, expected, atol=1e-15)


def test_envelope_requires_equilibrium(params, f_xy):
    g = make_grid(8)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    from matchlab.core import DSEState

    broken = DSEState(w=st.w * 2.0, u=st.u.copy(), M=st.M.copy(),
                      bellman_residual=0, balance_residual=0)
    with pytest.raises(ValueError, match="does not solve"):
        envelope_transfers(first_best_platform(g, 0), f_xy, params, broken)


def test_private_info_coefficient_reference(params, f_xy):
    # theta = 10/11 at the reference rates, so the transfer scale is 5/53
    assert params.theta == pytest.approx(10.0 / 11.0, abs=1e-15)
    assert transfer_coefficient(params) == pytest.approx(5.0 / 53.0, abs=1e-15)
    g = make_grid(5)  # cutoff node value exactly 0.5
    t = private_info_transfers(g, f_xy, params, 2)
    expected = np.where(np.arange(5) >= 2, 5.0 / 53.0 * (g.nodes ** 2 + 0.25), 0.0)
    assert np.allclose(t, expected, atol=1e-15)


def test_private_info_binds_at_cutoff(params, f_xy):
    g = make_grid(5)
    t = private_info_transfers(g, f_xy, params, 2)
    w_cut = first_best_wage_coefficient(params) * 0.25
    assert t[2] == pytest.approx(w_cut, abs=1e-16)


rates = st.floats(min_value=1e-3, max_value=1e3)


@given(rho=rates, alpha=rates, r=rates, k=st.integers(min_value=0, max_value=11))
@settings(max_examples=200, deadline=None)
def test_private_info_is_mean_of_wage_and_cutoff_wage(rho, alpha, r, k):
    """t(x) = (w(x) + w(x_tilde)) / 2 with the assortative wage w."""
    params = SearchParams(rho, alpha, r)
    g = make_grid(12)
    f = ProductionFunction.multiplicative_plus_constant(0.1)
    w = solve_dse(first_best_platform(g, k), f, params).w
    t = private_info_transfers(g, f, params, k)
    np.testing.assert_allclose(t[k:], 0.5 * (w[k:] + w[k]), rtol=1e-12, atol=0.0)
    assert np.all(t[:k] == 0.0)


def test_wage_coefficient_is_the_unit_pairing_wage():
    # The two forms are equal in exact arithmetic but round differently: on
    # this grid about half the triples differ in the last bits.  Assortative
    # wages (and so design.csv) use first_best_wage_coefficient's rounding,
    # and involution_rent and the oracle use the pairing form, so neither
    # replaces the other without changing written results.
    values = np.logspace(-3, 3, 14)
    for rho, alpha, r in itertools.product(values, repeat=3):
        params = SearchParams(float(rho), float(alpha), float(r))
        a = first_best_wage_coefficient(params)
        b = pairing_wage(params, 1.0)
        assert abs(a - b) <= 4 * np.spacing(max(a, b)), (rho, alpha, r)


def test_private_info_zero_production(params):
    g = make_grid(4)
    f0 = ProductionFunction.tabulated(g, np.zeros((4, 4)))
    assert np.all(private_info_transfers(g, f0, params, 1) == 0.0)


def test_participation_slack_nondecreasing(params, f_xy):
    # w - t = (w(x) - w(x_tilde)) / 2: nonnegative and nondecreasing
    g = make_grid(200)
    k = 60
    st = solve_dse(first_best_platform(g, k), f_xy, params)
    t = private_info_transfers(g, f_xy, params, k)
    slack = st.w[k:] - t[k:]
    assert slack[0] == pytest.approx(0.0, abs=1e-16)
    assert np.all(slack >= -1e-16)
    assert np.all(np.diff(slack) >= 0)


@pytest.mark.parametrize("n", [125, 250])
def test_envelope_matches_closed_form_under_refinement(params, n):
    g = make_grid(n)
    fc = cubic_production(g)
    st = solve_dse(first_best_platform(g, 0), fc, params)
    t_env = envelope_transfers(first_best_platform(g, 0), fc, params, st)
    t_closed = private_info_transfers(g, fc, params, 0)
    assert np.max(np.abs(t_env - t_closed)) <= 5.0 / n ** 2


# ---------------------------------------------------------------------------
# informational rent
# ---------------------------------------------------------------------------


def test_rent_against_analytic_derivative(params, f_xy):
    """Oracle: differentiate the closed-form wage analytically,
    m(x) = (1 - x) theta u (f_x(x,x) - w'(x)) with w'(x) = 2 coeff x."""
    g = make_grid(1000)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    rent, total = informational_rent(first_best_platform(g, 0), f_xy, params, st)
    coeff = first_best_wage_coefficient(params)
    theta_u = params.theta / 3.0
    analytic = (1 - g.nodes) * theta_u * (g.nodes - 2 * coeff * g.nodes)
    assert np.max(np.abs(rent - analytic)) < 1e-6
    assert total == pytest.approx(np.sum(analytic) * g.mass, abs=1e-6)


def test_rent_constant_production(params):
    g = make_grid(10)
    fc = ProductionFunction.tabulated(g, np.full((10, 10), 0.3))
    st = solve_dse(first_best_platform(g, 0), fc, params)
    rent, total = informational_rent(first_best_platform(g, 0), fc, params, st)
    assert np.all(rent == 0.0)
    assert total == 0.0


def test_rent_vanishes_at_top(params, f_xy):
    g = make_grid(1000)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    rent, _ = informational_rent(first_best_platform(g, 0), f_xy, params, st)
    # the (1 - x) weight kills the top node as the grid refines
    assert rent[-1] < 1e-4
    assert rent[-1] < rent[500]


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,count", [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26),
                                     (6, 76), (7, 232)])
def test_involution_counts(m, count):
    perms = list(enumerate_involutions(m))
    assert len(perms) == count
    assert len(set(perms)) == count
    for perm in perms:
        assert all(perm[perm[i]] == i for i in range(m))


def test_involution_rent_identity_matches_rent_total(params, f_xy):
    g = make_grid(100)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    _, total = informational_rent(first_best_platform(g, 0), f_xy, params, st)
    ident = involution_rent(g, f_xy, params, 0, tuple(range(100)))
    assert ident == pytest.approx(total, abs=1e-4)


def test_reversal_costs_more_than_identity(params, f_xy):
    g = make_grid(40)
    ident = involution_rent(g, f_xy, params, 0, tuple(range(40)))
    reversal = involution_rent(g, f_xy, params, 0, tuple(range(39, -1, -1)))
    assert reversal > ident


def test_identity_minimizes_over_all_involutions(params, f_xy):
    g = make_grid(5)
    rents = {perm: involution_rent(g, f_xy, params, 0, perm)
             for perm in enumerate_involutions(5)}
    assert min(rents, key=rents.get) == tuple(range(5))


def test_involution_rent_rejects_non_involution(params, f_xy):
    with pytest.raises(ValueError, match="involution"):
        involution_rent(make_grid(3), f_xy, params, 0, (1, 2, 0))


# ---------------------------------------------------------------------------
# exclusion
# ---------------------------------------------------------------------------


def test_multiplicative_exclusion_example(f_xy):
    g = make_grid(1000)
    ex = optimal_exclusion(g, f_xy)
    assert abs(ex.x_tilde - 0.5) <= 1.0 / 1000
    assert ex.profit_curve[0] == pytest.approx(1.0 / 3.0, abs=2e-3)
    k_half = int(np.searchsorted(g.nodes, 0.5))
    assert ex.profit_curve[k_half] == pytest.approx(5.0 / 12.0, abs=2e-3)
    assert ex.cutoff_index == int(np.argmax(ex.profit_curve))
    assert not ex.full_inclusion  # phi has a sign change


def test_constant_bonus_makes_full_inclusion_optimal():
    g = make_grid(1000)
    fc = ProductionFunction.multiplicative_plus_constant(0.2)
    ex = optimal_exclusion(g, fc)
    assert ex.cutoff_index == 0
    assert ex.full_inclusion


def test_constant_production_full_inclusion():
    g = make_grid(50)
    f1 = ProductionFunction.tabulated(g, np.ones((50, 50)))
    ex = optimal_exclusion(g, f1)
    assert ex.cutoff_index == 0
    assert ex.profit_curve[0] == pytest.approx(2.0, abs=1e-12)
    assert ex.full_inclusion


def test_strictly_increasing_virtual_output_unique_cutoff():
    # f = xy + (x + y)/2 has phi = 2x^2 + x/2 - 1/2, strictly increasing,
    # with its root at (sqrt(17) - 1) / 8
    n = 200
    g = make_grid(n)
    x = g.nodes
    table = np.add.outer(x, x) / 2.0 + np.outer(x, x)
    dx = np.broadcast_to(x[None, :], (n, n)) + 0.5
    f3 = TabulatedWithDerivative(g, table, dx)
    ex = optimal_exclusion(g, f3)
    assert ex.unique
    root = (np.sqrt(17.0) - 1.0) / 8.0
    assert abs(ex.x_tilde - root) <= 1.0 / n
    sign_changes = np.where(np.diff(np.sign(ex.phi)) > 0)[0]
    assert len(sign_changes) == 1
    assert abs(sign_changes[0] + 1 - ex.cutoff_index) <= 1


# ---------------------------------------------------------------------------
# glitching
# ---------------------------------------------------------------------------


def test_glitch_limits(f_xy):
    g = make_grid(4)
    base = first_best_platform(g, 2)
    # excluded nodes keep self-search rows: the identity, one diagonal run a row
    identity = glitch(base, 0.0)
    assert identity.is_diagonal and np.array_equal(identity.runs[3], np.ones(4))
    assert np.array_equal(dense_kernel(glitch(base, 1.0)), np.full((4, 4), 0.25))


def test_glitch_mixture_arithmetic():
    base = first_best_platform(make_grid(10), 0)
    mixed = glitch(base, 0.01)
    kernel = dense_kernel(mixed)
    assert kernel[0, 0] == pytest.approx(0.991, abs=1e-15)
    assert kernel[0, 1] == pytest.approx(0.001, abs=1e-18)
    assert mixed.cutoff == 0
    mixed.require_consistent()
    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-14)


def test_glitch_requires_consistency():
    g = make_grid(3)
    kernel = np.eye(3)
    kernel[0, 0] -= 1e-3
    kernel[0, 1] += 1e-3
    p = Platform(grid=g, cutoff=0, kernel=kernel, transfers=np.zeros(3))
    with pytest.raises(ValueError, match="consistent"):
        glitch(p, 0.5)


def test_glitch_epsilon_range():
    base = first_best_platform(make_grid(3), 0)
    with pytest.raises(ValueError):
        glitch(base, 1.5)


# ---------------------------------------------------------------------------
# end-to-end design
# ---------------------------------------------------------------------------


def test_design_accounting(params, f_xy):
    g = make_grid(100)
    result = design(g, f_xy, params, cutoff="auto")
    assert result.x_tilde == optimal_exclusion(g, f_xy).x_tilde
    k = result.platform.cutoff
    assert result.profit == float(np.sum(result.platform.transfers[k:]) * g.mass)
    assert result.rent_total >= 0.0
    rent, total = informational_rent(result.platform, f_xy, params, result.dse)
    assert np.array_equal(result.rent, rent) and result.rent_total == total


def test_design_fixed_cutoff(params, f_xy):
    g = make_grid(10)
    result = design(g, f_xy, params, cutoff=3)
    assert result.platform.cutoff == 3
    assert np.all(result.platform.transfers[:3] == 0.0)


# ---------------------------------------------------------------------------
# comparative statics of the closed forms
# ---------------------------------------------------------------------------


def test_meeting_rate_monotonicity(f_xy):
    g = make_grid(30)
    for alpha in (0.5, 1.0, 2.0):
        for r in (0.5, 1.0, 2.0):
            lo = solve_dse(first_best_platform(g, 0), f_xy, SearchParams(1.0, alpha, r))
            hi = solve_dse(first_best_platform(g, 0), f_xy, SearchParams(2.0, alpha, r))
            assert np.all(hi.w > lo.w)      # f(x,x) > 0 on the whole grid
            assert np.all(hi.u < lo.u)


def test_divorce_rate_monotonicity_matches_discount_side(f_xy):
    # the wage scale rises in alpha below the discount rate and falls above
    # it; tested where the two-sided comparison is exact (rho equal to r)
    g = make_grid(8)
    fdiag = g.nodes ** 2

    def scale(rho, alpha, r):
        return first_best_wage_coefficient(SearchParams(rho, alpha, r))

    assert scale(2.0, 1.0, 2.0) > scale(2.0, 0.5, 2.0)      # r > alpha: rising
    assert scale(0.5, 2.0, 0.5) < scale(0.5, 1.0, 0.5)      # r < alpha: falling
    # at rho = alpha = r the alpha-derivative vanishes: symmetric perturbation
    h = 1e-4
    gap = abs(scale(1.0, 1.0 + h, 1.0) - scale(1.0, 1.0 - h, 1.0))
    assert gap <= 1e-12


_AT, _PAST = RESIDUAL_TOL, float(np.nextafter(RESIDUAL_TOL, np.inf))


@pytest.mark.parametrize("residuals, accepted", [
    ((_AT, 0.0, 0), True), ((0.0, _AT, 0), True),
    ((_PAST, 0.0, 0), False), ((0.0, _PAST, 0), False), ((0.0, 0.0, 1), False),
], ids=["bellman-at", "balance-at", "bellman-past", "balance-past", "one-violation"])
def test_rent_and_envelope_refuse_states_past_the_residual_threshold(
        params, f_xy, monkeypatch, residuals, accepted):
    """Residuals of exactly ``RESIDUAL_TOL`` pass; one float more, or one
    acceptance violation, is refused."""
    platform = first_best_platform(make_grid(4), 0)
    st = solve_dse(platform, f_xy, params)
    monkeypatch.setattr(designer, "dse_residuals", lambda *args: residuals)
    for fn in (envelope_transfers, informational_rent):
        if accepted:
            fn(platform, f_xy, params, st)
        else:
            with pytest.raises(ValueError, match="does not solve"):
                fn(platform, f_xy, params, st)
