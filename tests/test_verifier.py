import itertools

import numpy as np
import pytest

from matchlab import (
    Platform,
    ProductionFunction,
    SearchParams,
    audit,
    design,
    enumerate_involutions,
    first_best_platform,
    first_best_wage_coefficient,
    involution_oracle,
    make_grid,
    prop4_oracle,
    solve_dse,
)
from matchlab import verifier
from matchlab.core import CONSISTENCY_TOL, RESIDUAL_TOL
from matchlab.solver import DENSITY_TOL
from matchlab.verifier import (
    IC_TOL,
    IR_TOL,
    RENT_TOL,
    AuditReport,
    masked_config_ic,
)

from conftest import gain_args, mask_prices, one_shot_worst, two_product_gains


@pytest.fixture
def designed(params, f_xy):
    """n=40 market with the optimal transfers, cutoff at type one half."""
    g = make_grid(40)
    return design(g, f_xy, params, cutoff=20)


# ---------------------------------------------------------------------------
# deviation values
# ---------------------------------------------------------------------------


def _reference_gains(platform, f, params, dse):
    """The full gain matrix of a platform by the two-product reference, after
    checking that the incentive scan finds its worst deviation: the same pair,
    and the same gain within 1e-12 of the gains' scale."""
    args = gain_args(platform, f, params, dse)
    gains = two_product_gains(*args)
    worst_gain, worst = verifier._incentive_gains(*args)
    reference_gain, reference_worst = one_shot_worst(gains, args)
    assert worst == reference_worst
    assert abs(worst_gain - reference_gain) <= 1e-12 * np.max(np.abs(gains))
    return gains


def test_excluded_report_worth_nothing(params, f_xy):
    """Reporting an excluded type forfeits search and pays nothing, so a type
    charged more than any report can earn prefers it; the audit names the
    highest excluded node as the report."""
    g = make_grid(10)
    base = first_best_platform(g, 4)
    st = solve_dse(base, f_xy, params)
    t = st.w + 1.0
    t[:4] = 0.0
    overcharged = Platform(grid=g, cutoff=4, kernel=base.kernel, transfers=t)
    report = audit(overcharged, f_xy, params, st)
    loss = t[4:] - st.w[4:]                 # what the truthful report costs
    assert report.ic_max_violation == float(np.max(loss))
    assert report.worst_misreport == (g.nodes[4 + int(np.argmax(loss))], g.nodes[3])


def test_misreport_four_node_hand_value(params, f_xy):
    """Single-atom kernel rows make the deviation value one product; with zero
    transfers the gain is that value less the truthful wage."""
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    st = solve_dse(platform, f_xy, params)

    x = [0.125, 0.375, 0.625, 0.875]
    coeff = first_best_wage_coefficient(params)
    i, j = 3, 1
    f_ij = x[i] * x[j]
    w_i, w_j = coeff * x[i] ** 2, coeff * x[j] ** 2
    assert f_ij - w_i - w_j >= 0  # the pair is mutually acceptable
    hand = params.theta * (1.0 / 3.0) * (f_ij - w_i - w_j)
    gains = _reference_gains(platform, f_xy, params, st)
    assert gains[i, j] == pytest.approx(hand - w_i, abs=1e-15)


def test_misreport_single_crossing(designed, params, f_xy):
    """Column increments of the gain matrix grow with the true type wherever
    both columns are reachable (the transfers shift whole columns and the
    truthful payoff whole rows, so neither moves the differences)."""
    platform, st = designed.platform, designed.dse
    k = platform.cutoff
    W = _reference_gains(platform, f_xy, params, st)[k:, :]
    M = st.M[k:, k:]
    for j in range(W.shape[1] - 1):
        reachable = M[:, j] & M[:, j + 1]
        diffs = (W[:, j + 1] - W[:, j])[reachable]
        assert np.all(np.diff(diffs) >= -1e-12)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def test_designed_platform_certifies(designed, params, f_xy):
    report = audit(designed.platform, f_xy, params, designed.dse)
    assert report.ic_max_violation <= 1e-8
    assert report.ir_min_slack >= -1e-12
    assert report.consistency_defect == 0.0
    assert report.certified()


def test_full_extraction_fails_under_hidden_types(designed, params, f_xy):
    grabby = Platform(grid=designed.platform.grid, cutoff=designed.platform.cutoff,
                      kernel=designed.platform.kernel,
                      transfers=designed.dse.w.copy())
    report = audit(grabby, f_xy, params, designed.dse)
    assert report.ic_max_violation > 1e-3
    assert not report.certified()
    true_type, reported = report.worst_misreport
    assert reported < true_type  # gains come from understating the type


def test_audit_reads_consistency_defect(params, f_xy):
    g = make_grid(6)
    kernel = np.eye(6)
    kernel[0, 0] -= 1e-3
    kernel[0, 1] += 1e-3
    platform = Platform(grid=g, cutoff=0, kernel=kernel, transfers=np.zeros(6))
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    report = audit(platform, f_xy, params, st)
    assert report.consistency_defect == pytest.approx(1e-3, abs=1e-18)
    assert not report.certified()


def test_audit_is_pure(designed, params, f_xy):
    a = audit(designed.platform, f_xy, params, designed.dse)
    b = audit(designed.platform, f_xy, params, designed.dse)
    assert a.ic_max_violation == b.ic_max_violation
    assert a.worst_misreport == b.worst_misreport
    assert a.row_smoothness == b.row_smoothness


def test_diagonal_of_gain_matrix_is_zero(designed, params, f_xy):
    """Truthful reports gain exactly zero, so on the designed platform, where
    no misreport gains, the scan's worst is the first truthful report."""
    gains = _reference_gains(designed.platform, f_xy, params, designed.dse)
    k = designed.platform.cutoff
    assert np.all(np.diagonal(gains[k:, :]) == 0.0)
    args = gain_args(designed.platform, f_xy, params, designed.dse)
    assert verifier._incentive_gains(*args) == (0.0, (k, k))


def test_row_smoothness_values(params, f_xy):
    g = make_grid(8)
    st = solve_dse(first_best_platform(g, 0), f_xy, params)
    ident = audit(first_best_platform(g, 0), f_xy, params, st)
    assert ident.row_smoothness == pytest.approx(1.0, abs=1e-15)

    flat = Platform(grid=g, cutoff=0, kernel=np.full((8, 8), 0.125),
                    transfers=np.zeros(8))
    st_flat = solve_dse(flat, f_xy, params)
    assert audit(flat, f_xy, params, st_flat).row_smoothness == 0.0


# ---------------------------------------------------------------------------
# brute-force inclusion oracle
# ---------------------------------------------------------------------------


def test_oracle_small_grids(params, f_xy):
    assert prop4_oracle(4, f_xy, params) is True


def test_oracle_zero_production_is_vacuous(params):
    g = make_grid(2)
    f0 = ProductionFunction.tabulated(g, np.zeros((2, 2)))
    assert prop4_oracle(2, f0, params) is True


def test_oracle_rejects_large_grids(params, f_xy):
    with pytest.raises(ValueError):
        prop4_oracle(7, f_xy, params)
    with pytest.raises(ValueError):
        involution_oracle(13, f_xy, params)


def test_involution_oracle_finds_a_cheaper_pairing_of_submodular_output(params):
    """On ``f = x + y - x y``, whose cross partial is negative, some
    non-assortative pairing leaves less rent than the identity."""
    g = make_grid(4)
    x = g.nodes
    f = ProductionFunction.tabulated(g, x[:, None] + x[None, :] - np.outer(x, x))
    minimal, scanned, identity_rent = involution_oracle(4, f, params)
    assert (minimal, scanned) == (False, 10)
    assert identity_rent == pytest.approx(0.04315, abs=1e-5)


def test_non_upper_mask_with_surplus_violates_ic(params, f_xy):
    # include only the bottom type of a two-type market: the excluded top
    # type profitably mimics it
    gain = masked_config_ic(2, f_xy, params, mask=(0,), perm=(0,))
    assert gain > 1e-4


def test_mixed_mask_violates_ic(params, f_xy):
    # keep nodes {0, 2} of a four-type market: node 3 mimics node 2
    gain = masked_config_ic(4, f_xy, params, mask=(0, 2), perm=(0, 1))
    assert gain > 1e-4


@pytest.mark.parametrize("mask, perm", [((0, 2, 3), (1, 2, 0)), ((2, 0), (0, 1)),
                                        ((0, 5), (0, 1)), ((0, 2), (0,))],
                         ids=["not-an-involution", "unsorted-mask", "node-out-of-range",
                              "perm-length"])
def test_masked_config_ic_rejects_malformed_input(params, f_xy, mask, perm):
    with pytest.raises(ValueError):
        masked_config_ic(4, f_xy, params, mask=mask, perm=perm)


def _reference_mask_ic(n, f, params, mask, perm):
    """The oracle's valuation spelled pair by pair: pairing wages, envelope
    transfers by the trapezoid rule from the lowest mask node
    (``conftest.mask_prices``), then every (true, reported) pair except the
    truthful one."""
    F = f.values(make_grid(n))
    theta, u = params.theta, params.u_star
    m = len(mask)
    partner = [mask[p] for p in perm]
    w, transfers = mask_prices(n, f, params, mask, perm)
    t = transfers[list(mask)]

    def accepts(i, j):
        return F[i, j] - w[i] - w[j] >= 0.0

    excluded = [e for e in range(n) if e not in mask]
    worst = -np.inf
    for a in range(m):
        i, base = mask[a], w[mask[a]] - t[a]
        for b in range(m):
            if a != b:
                pb = partner[b]
                value = theta * u * accepts(i, pb) * (F[i, pb] - w[i] - w[pb])
                worst = max(worst, value - t[b] - base)
        if excluded:
            worst = max(worst, -base)
    for e in excluded:
        for b in range(m):
            pb = partner[b]
            s0 = u * accepts(e, pb)
            value = theta * s0 * (F[e, pb] - w[pb]) / (1.0 + theta * s0)
            worst = max(worst, value - t[b])
    return worst


@pytest.mark.parametrize("kind, c", [("xy", 0.0), ("xy+c", 0.2)])
def test_masked_config_ic_matches_pairwise_reference(params, kind, c):
    """Every mask and pairing of a four-type and of a six-type market, the
    largest the oracle scans: the oracle's gain, priced on the nodes
    relabelled with the mask last, is the pairwise reference on the grid's
    own labels, with the truthful report counted as a gain of zero."""
    f = ProductionFunction(kind, c=c)
    for n in (4, 6):
        for size in range(1, n + 1):
            for mask in itertools.combinations(range(n), size):
                for perm in enumerate_involutions(size):
                    gain = masked_config_ic(n, f, params, mask=mask, perm=perm)
                    reference = _reference_mask_ic(n, f, params, mask, perm)
                    assert gain >= 0.0
                    assert abs(gain - max(reference, 0.0)) <= 1e-15


# ---------------------------------------------------------------------------
# certification thresholds
# ---------------------------------------------------------------------------


_CLEAN_REPORT = dict(consistency_defect=0.0, ir_min_slack=0.0, ic_max_violation=0.0,
                     worst_misreport=(0.5, 0.5), bellman_residual=0.0, balance_residual=0.0,
                     acceptance_violations=0, row_smoothness=0.0)


def test_certification_thresholds():
    assert ((CONSISTENCY_TOL, IR_TOL, IC_TOL, RESIDUAL_TOL, RENT_TOL, DENSITY_TOL)
            == (1e-10, 1e-12, 1e-8, 1e-6, 1e-12, 1e-12))


@pytest.mark.parametrize("field, edge, outward", [
    ("consistency_defect", CONSISTENCY_TOL, np.inf),
    ("ir_min_slack", -IR_TOL, -np.inf),
    ("ic_max_violation", IC_TOL, np.inf),
    ("bellman_residual", RESIDUAL_TOL, np.inf),
    ("balance_residual", RESIDUAL_TOL, np.inf),
])
def test_certified_at_each_threshold_and_not_one_float_past(field, edge, outward):
    assert AuditReport(**{**_CLEAN_REPORT, field: edge}).certified()
    past = float(np.nextafter(edge, outward))
    assert not AuditReport(**{**_CLEAN_REPORT, field: past}).certified()


def test_one_acceptance_violation_is_not_certified():
    assert AuditReport(**_CLEAN_REPORT).certified()
    assert not AuditReport(**{**_CLEAN_REPORT, "acceptance_violations": 1}).certified()


def test_oracle_certifies_by_the_audit_ic_threshold(params, f_xy, monkeypatch):
    """With every gain forgiven, non-upper masks with positive wages certify,
    so the oracle reads ``IC_TOL`` rather than a threshold of its own."""
    assert prop4_oracle(3, f_xy, params)
    monkeypatch.setattr(verifier, "IC_TOL", np.inf)
    assert not prop4_oracle(3, f_xy, params)
