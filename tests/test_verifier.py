import numpy as np
import pytest

from matchlab import (
    Platform,
    ProductionFunction,
    SearchParams,
    audit,
    design,
    first_best_dse,
    first_best_platform,
    first_best_wage_coefficient,
    make_grid,
    misreport_value,
    perfect_info_transfers,
    prop4_oracle,
    solve_dse,
)
from matchlab.verifier import masked_config_ic


@pytest.fixture
def designed(params, f_xy):
    """n=40 market with the optimal transfers, cutoff at type one half."""
    g = make_grid(40)
    return design(g, f_xy, params, cutoff=20)


# ---------------------------------------------------------------------------
# deviation values
# ---------------------------------------------------------------------------


def test_truthful_report_recovers_wage(params, f_xy):
    g = make_grid(12)
    platform = first_best_platform(g, 0)
    st = solve_dse(platform, f_xy, params)
    for i in (0, 5, 11):
        assert misreport_value(platform, f_xy, params, st, i, i) == \
            pytest.approx(st.w[i], abs=1e-9)


def test_excluded_report_worth_nothing(params, f_xy):
    g = make_grid(10)
    platform = first_best_platform(g, 4)
    st = first_best_dse(g, f_xy, params, 4)
    assert misreport_value(platform, f_xy, params, st, 7, 2) == 0.0


def test_misreport_four_node_hand_value(params, f_xy):
    """Single-atom kernel rows make the deviation value one product."""
    g = make_grid(4)
    platform = first_best_platform(g, 0)
    st = first_best_dse(g, f_xy, params, 0)

    x = [0.125, 0.375, 0.625, 0.875]
    coeff = first_best_wage_coefficient(params)
    i, j = 3, 1
    f_ij = x[i] * x[j]
    w_i, w_j = coeff * x[i] ** 2, coeff * x[j] ** 2
    assert f_ij - w_i - w_j >= 0  # the pair is mutually acceptable
    hand = params.theta * (1.0 / 3.0) * (f_ij - w_i - w_j)
    assert misreport_value(platform, f_xy, params, st, i, j) == \
        pytest.approx(hand, abs=1e-15)


def test_misreport_single_crossing(designed, params, f_xy):
    """Column increments of the deviation-value matrix grow with the true
    type wherever both columns are reachable."""
    platform, st = designed.platform, designed.dse
    g = platform.grid
    k = platform.cutoff
    W = np.array([[misreport_value(platform, f_xy, params, st, i, j)
                   for j in range(k, g.n)] for i in range(k, g.n)])
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
                      transfers=perfect_info_transfers(designed.dse))
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
    st = first_best_dse(g, f_xy, params, 0)
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
    from matchlab.verifier import deviation_gains

    gains = deviation_gains(designed.platform, f_xy, params, designed.dse)
    k = designed.platform.cutoff
    assert np.all(np.diagonal(gains[k:, :]) == 0.0)


def test_row_smoothness_values(params, f_xy):
    g = make_grid(8)
    st = first_best_dse(g, f_xy, params, 0)
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


def test_non_upper_mask_with_surplus_violates_ic(params, f_xy):
    # include only the bottom type of a two-type market: the excluded top
    # type profitably mimics it
    gain = masked_config_ic(2, f_xy, params, mask=(0,), perm=(0,))
    assert gain > 1e-4


def test_mixed_mask_violates_ic(params, f_xy):
    # keep nodes {0, 2} of a four-type market: node 3 mimics node 2
    gain = masked_config_ic(4, f_xy, params, mask=(0, 2), perm=(0, 1))
    assert gain > 1e-4
