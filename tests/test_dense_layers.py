"""The dense layers against their one-shot forms, and their memory budgets.

``ProductionFunction.values`` and ``dx_values`` evaluate any block of the
output table; ``acceptance``, ``dse_residuals``,
``Platform.consistency_defect`` and the verifier's row smoothness run in row
blocks, and ``glitch`` builds its mixture as runs; each must give the bits
of the one-shot expression kept here as its reference.  The incentive scan
prices included rows by one product over the masked surplus; its worst
deviation must be the worst entry of the full two-product ``S0``/``S1`` gain
matrix (``conftest.two_product_gains``), the same pair with the gain within
1e-12 of the gains' scale, and it must find the same deviation whether it
reads a held output table or evaluates each block, and whether it reads a
kernel matrix or a platform's kernel a block at a time.  The budget tests
bound each layer's peak traced allocation above its inputs at n = 1000, and
that of the assortative and glitched commands, none of which reads the dense
kernel from ``Platform.kernel``.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import (
    DSEState,
    Platform,
    ProductionFunction,
    SearchParams,
    audit,
    design,
    dse_residuals,
    enumerate_involutions,
    make_grid,
    solve_dse,
)
from matchlab import cli, core, designer, verifier
from matchlab.core import acceptance, load_platform, save_platform
from matchlab.designer import first_best_platform, glitch, misreport_value_slope

from conftest import (
    TabulatedWithDerivative,
    cubic_production,
    dense_kernel,
    dense_platform,
    gain_args,
    mask_prices,
    mixture_kernel,
    one_shot_worst,
    reference_runs,
    two_product_gains,
)

#: Rows per block in the blocked-pass tests.
_ROWS = 4


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture
def four_row_blocks(monkeypatch):
    """Make a row-blocked pass over ``n`` columns take ``_ROWS`` rows a block."""
    def set_columns(n):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * n * _ROWS)
    return set_columns


def _random_platform(m, seed):
    """A dense row-stochastic kernel, not symmetric, on ``m`` included nodes,
    the top of a grid of at least two."""
    n = max(m, 2)
    raw = np.random.default_rng(seed).random((m, m))
    return Platform(grid=make_grid(n), cutoff=n - m,
                    kernel=raw / raw.sum(axis=1, keepdims=True), transfers=np.zeros(n))


# n = 1 and 3 rows fit in one four-row block, 4 fill it and 5 take one row
# more; the row smoothness blocks the n - 1 row differences, so there n = 5
# fills one block and 6 takes one row more
_SIZES = (1, 3, 4, 5, 6)


@pytest.mark.parametrize("n", _SIZES)
def test_blocked_acceptance_is_the_one_shot_rule(four_row_blocks, n):
    four_row_blocks(n)
    rng = np.random.default_rng(n)
    # sixteenths, so that some pairs sit at exactly zero surplus
    F = rng.integers(0, 16, (n, n)) / 16.0
    w = rng.integers(0, 8, n) / 16.0
    reference = (F - w[:, None]) - w[None, :] >= 0.0
    assert np.array_equal(acceptance(F, w), reference)


# at the default block bytes, 2 to 17 rows sit in one partial block of each
# pass, 131 and 257 take several surplus blocks; in blocks of 8 rows, 8 fill
# one, 9, 15 and 17 end in a partial block, and 131 and 257 take many
@pytest.mark.parametrize("eight_rows", [False, True], ids=["default", "eight_rows"])
@pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 15, 17, 131, 257])
def test_packed_acceptance_and_its_masked_kernel_are_the_bool_arrays(monkeypatch, m,
                                                                     eight_rows):
    """The policy loop's acceptance sets, packed from blocks of rows, are the
    ``np.packbits`` bytes of the whole bool array, and the masked kernel
    built from those bytes is the one built from that array, bit for bit."""
    if eight_rows:
        monkeypatch.setattr(core, "_BLOCK_BYTES", 64 * m)
    rng = np.random.default_rng(m)
    # sixteenths, so that some pairs sit at exactly zero surplus
    F = rng.integers(0, 16, (m, m)) / 16.0
    w = rng.integers(0, 8, m) / 16.0
    F[0, 0] = 2.0 * w[0]
    M = acceptance(F, w)
    assert M[0, 0]  # zero surplus accepts
    packed = core._packed_acceptance(F, w)
    assert packed == np.packbits(M).tobytes()
    platform = _random_platform(m, m)
    assert _bits(core._masked_kernel(platform, packed)) == _bits(core._masked_kernel(platform, M))


def _productions(grid):
    """One output of each kind on ``grid``: ``xy``, ``xy+c``, and the table
    ``xy (x + y) / 2`` with its derivative table and without, when its
    derivative is a central difference."""
    x = grid.nodes
    table = x[:, None] * x[None, :] * (x[:, None] + x[None, :]) / 2.0
    return (ProductionFunction.multiplicative(),
            ProductionFunction.multiplicative_plus_constant(0.3),
            cubic_production(grid), ProductionFunction.tabulated(grid, table))


@st.composite
def table_blocks(draw):
    """A grid of up to 600 nodes, a cutoff, and a block of rows that
    straddles the cutoff or an edge of the incentive scan's ``_GAIN_ROWS``
    blocks, with a slice or an index array of columns."""
    n = draw(st.integers(2, 600))
    k = draw(st.integers(0, n - 1))
    edge = draw(st.sampled_from([k] + [e for e in range(0, n, verifier._GAIN_ROWS)]))
    lo = max(0, edge - draw(st.integers(0, 40)))
    rows = slice(lo, min(n, edge + draw(st.integers(1, 40))))
    cols = draw(st.one_of(
        st.just(slice(k, n)),
        st.builds(lambda a, b: slice(min(a, b), max(a, b) + 1),
                  st.integers(0, n - 1), st.integers(0, n - 1)),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True).map(
            lambda idx: np.array(sorted(idx)))))
    return n, rows, cols


@settings(max_examples=60, deadline=None)
@given(drawn=table_blocks())
def test_table_blocks_are_slices_of_the_whole_table(drawn):
    n, rows, cols = drawn
    grid = make_grid(n)
    for f in _productions(grid):
        assert _bits(f.values(grid, rows, cols)) == _bits(f.values(grid)[rows][:, cols])
        assert _bits(f.dx_values(grid, rows, cols)) == _bits(f.dx_values(grid)[rows][:, cols])
        index = np.arange(n)[rows]
        assert _bits(f.values(grid, index, cols)) == _bits(f.values(grid)[rows][:, cols])


@pytest.mark.parametrize("n, k", [(3, 0), (5, 0), (5, 2), (10, 4), (10, 6), (10, 9)])
def test_acceptance_from_f_is_the_held_table_rule(four_row_blocks, n, k):
    """The acceptance sets from ``f`` a row block at a time, with and
    without the included block held, are those of the whole table, in
    blocks that the cutoff falls inside or on the edge of."""
    four_row_blocks(n)
    grid = make_grid(n)
    w = np.zeros(n)
    w[k:] = np.random.default_rng(n + k).integers(0, 8, n - k) / 16.0
    for f in _productions(grid):
        F = f.values(grid)
        reference = (F - w[:, None]) - w[None, :] >= 0.0
        assert np.array_equal(acceptance(f, w, grid), reference)
        assert np.array_equal(acceptance(f, w, grid, held=F[k:, k:].copy()), reference)


@pytest.mark.parametrize("n, k", [(5, 0), (10, 6), (50, 17)])
def test_blocked_residuals_and_slope_are_the_one_shot_ones(four_row_blocks, params, n, k):
    """``dse_residuals`` and ``misreport_value_slope`` on a dense kernel
    above a cutoff, with some acceptance flags flipped, against the
    one-shot ``A o F`` and ``A o F_x`` products and rule, in blocks of four
    rows of n columns (at n = 50, six rows of the 33 included ones)."""
    four_row_blocks(n)
    grid = make_grid(n)
    platform = Platform(grid=grid, cutoff=k, kernel=_symmetric_kernel(n - k, n),
                        transfers=np.zeros(n))
    rng = np.random.default_rng(n + k)
    w, u = np.zeros(n), np.ones(n)
    w[k:], u[k:] = rng.random(n - k) / 4.0, rng.random(n - k)
    for f in _productions(grid):
        F = f.values(grid)
        M = (F - w[:, None]) - w[None, :] >= 0.0
        M[k, k:] = ~M[k, k:]
        M[0, 0] = not M[0, 0]
        state = DSEState(w=w, u=u, M=M, bellman_residual=0.0, balance_residual=0.0)
        A = platform.kernel * M[k:, k:]
        wb, ub = w[k:], u[k:]
        au = A @ ub
        total = (A * F[k:, k:]) @ ub - wb * au - A @ (wb * ub)
        bellman = float(np.max(np.abs(wb - params.theta * total)))
        balance = float(np.max(np.abs(params.alpha * (1.0 - ub) - params.rho * au)))
        violations = int(np.sum(M != ((F - w[:, None]) - w[None, :] >= 0.0)))
        assert violations >= 1
        got = dse_residuals(platform, f, params, state)
        assert _bits(got[:2]) == _bits((bellman, balance)) and got[2] == violations
        wprime = designer._derivative(wb, 1.0 / n)
        slope = params.theta * ((A * f.dx_values(grid)[k:, k:]) @ ub - wprime * au)
        assert _bits(misreport_value_slope(platform, f, params, state)[k:]) == _bits(slope)


@pytest.mark.parametrize("n", _SIZES)
def test_blocked_consistency_defect_is_the_one_shot_max(four_row_blocks, n):
    four_row_blocks(n)
    platform = _random_platform(n, n)
    G = platform.kernel
    assert _bits(platform.consistency_defect()) == _bits(np.max(np.abs(G - G.T)))


@pytest.mark.parametrize("n", _SIZES)
def test_blocked_row_smoothness_is_the_one_shot_modulus(four_row_blocks, n):
    four_row_blocks(n)
    platform = _random_platform(n, n)
    G = platform.kernel
    reference = (0.0 if n < 2
                 else np.max(np.sum(np.abs(np.diff(np.cumsum(G, axis=1), axis=0)), axis=1)))
    assert _bits(verifier._row_smoothness(platform)) == _bits(reference)


def test_blocked_passes_at_the_default_block_size():
    """At n = 1000 a pass takes several blocks of the default size, the last
    one short."""
    platform = _random_platform(1000, 7)
    G = platform.kernel
    assert len(core._row_blocks(1000, 1000)) > 1
    assert _bits(platform.consistency_defect()) == _bits(np.max(np.abs(G - G.T)))
    cdf = np.cumsum(G, axis=1)
    assert (_bits(verifier._row_smoothness(platform))
            == _bits(np.max(np.sum(np.abs(np.diff(cdf, axis=0)), axis=1))))
    w = G.diagonal() / 2
    assert np.array_equal(acceptance(G, w), (G - w[:, None]) - w[None, :] >= 0.0)


def _symmetric_kernel(m, seed):
    """A dense symmetric row-stochastic kernel: a random mix of three
    symmetrized permutation matrices."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    kernel = np.zeros((m, m))
    for c in weights:
        perm = np.eye(m)[rng.permutation(m)]
        kernel += c * (perm + perm.T) / 2.0
    return kernel


@pytest.mark.parametrize("n, cutoff", [(2, 1), (6, 0), (6, 2), (50, 17)])
@pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.5, 1.0])
def test_glitch_is_the_one_shot_mixture(n, cutoff, epsilon):
    platform = Platform(grid=make_grid(n), cutoff=cutoff,
                        kernel=_symmetric_kernel(n - cutoff, n), transfers=np.zeros(n))
    padded = np.eye(n)
    padded[cutoff:, cutoff:] = platform.kernel
    reference = (1.0 - epsilon) * padded + epsilon / n * np.ones((n, n))
    assert _bits(dense_kernel(glitch(platform, epsilon).kernel)) == _bits(reference)


# ---------------------------------------------------------------------------
# diagonal kernels, one run per row, against the dense identity
# ---------------------------------------------------------------------------

#: Grid sizes and cutoffs of the diagonal-path tests: n = 7 takes one
#: block, n = 50 several blocks of four rows, and a cutoff of 17 falls
#: inside the block of rows 16 to 19.
_DIAGONAL_CASES = [(7, 0), (7, 3), (50, 0), (50, 17)]


def _diagonal_platforms(n, k, transfers=None):
    """The identity platform above cutoff ``k`` and one whose diagonal
    entries lie a few ulp off one, so adjacent rows differ: each one
    diagonal run per row, with its dense reference
    (``conftest.dense_platform``)."""
    grid = make_grid(n)
    transfers = np.zeros(n) if transfers is None else transfers
    wobble = 1.0 + np.random.default_rng(n + k).integers(-4, 5, n - k) * 2.0 ** -45
    for kernel in (np.ones(n - k), wobble):
        platform = Platform(grid=grid, cutoff=k, kernel=kernel, transfers=transfers)
        assert platform.is_diagonal and platform.kernel.shape == (n - k,)
        yield platform, dense_platform(platform)


def _flipped_state(platform, f, params):
    """The closed-form equilibrium with the acceptance flags of the first
    included node's own pair and of pair (n - 1, 0) flipped, so ``A`` has a
    zero on its diagonal and two pairs break the acceptance rule."""
    dse = solve_dse(platform, f, params)
    k = platform.cutoff
    M = dse.M.copy()
    M[k, k] = not M[k, k]
    M[-1, 0] = not M[-1, 0]
    return DSEState(w=dse.w, u=dse.u, M=M, bellman_residual=0.0, balance_residual=0.0)


@pytest.mark.parametrize("n, k", _DIAGONAL_CASES)
def test_diagonal_residuals_and_slope_are_the_dense_ones(four_row_blocks, params, n, k):
    """``dse_residuals`` and ``misreport_value_slope`` on a diagonal kernel
    give the bits of their dense paths on the same kernel taken for a dense
    one.  The
    last output's derivative table is negated, so the masked diagonal entry
    of ``A o F_x`` is -0.0, which the dense product sums to +0.0."""
    four_row_blocks(n)
    for platform, dense in _diagonal_platforms(n, k):
        grid = platform.grid
        falling = TabulatedWithDerivative(grid, cubic_production(grid).values(grid),
                                          -cubic_production(grid).dx_values(grid))
        for f in _productions(grid) + (falling,):
            state = _flipped_state(platform, f, params)
            got = dse_residuals(platform, f, params, state)
            assert got[2] == 2
            assert _bits(got[:2]) == _bits(dse_residuals(dense, f, params, state)[:2])
            assert got[2] == dse_residuals(dense, f, params, state)[2]
            assert (_bits(misreport_value_slope(platform, f, params, state))
                    == _bits(misreport_value_slope(dense, f, params, state)))


@pytest.mark.parametrize("n, k", _DIAGONAL_CASES)
def test_diagonal_gains_are_the_dense_ones(monkeypatch, params, n, k):
    """The incentive scan on a diagonal kernel finds the worst pair and the
    bits of its gain that the dense product finds, with zero and with
    designed transfers, from the held table and from ``f``, in one block
    and in blocks of four rows."""
    f = ProductionFunction.multiplicative()
    designed = design(make_grid(n), f, params, cutoff=k).platform.transfers
    for rows in (verifier._GAIN_ROWS, _ROWS):
        monkeypatch.setattr(verifier, "_GAIN_ROWS", rows)
        for transfers in (None, designed):
            for platform, dense in _diagonal_platforms(n, k, transfers):
                dse = solve_dse(platform, f, params)
                args = gain_args(platform, f, params, dse)
                reference = verifier._incentive_gains(*gain_args(dense, f, params, dse))
                for got in (verifier._incentive_gains(*args),
                            verifier._incentive_gains(args[0], f, *args[2:], platform.grid)):
                    assert got[1] == reference[1] and _bits(got[0]) == _bits(reference[0])


def test_diagonal_gains_keep_the_products_positive_zero():
    """An excluded type that rejects every included one, at zero transfers:
    each of its gains is a masked -0.0 times the kernel, which the dense
    product sums to +0.0, and the scan on the diagonal reports that +0.0."""
    n, k = 3, 1
    w = np.array([0.0, 0.5, 0.5])
    F = np.full((n, n), 0.1)
    args = [0.5, F, w, np.full(n, 0.5), acceptance(F, w), np.eye(n - k), np.zeros(n), k]
    assert not args[4][:, k:].any()
    reference = verifier._incentive_gains(*args)
    args[5] = Platform(grid=make_grid(n), cutoff=k, kernel=np.ones(n - k), transfers=args[6])
    assert args[5].is_diagonal
    got = verifier._incentive_gains(*args)
    assert got == reference == (0.0, (0, 1))
    assert _bits(got[0]) == _bits(reference[0]) == _bits(0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 50])
def test_diagonal_smoothness_and_defect_are_the_dense_ones(four_row_blocks, n):
    """Row smoothness and the consistency defect of a diagonal kernel have
    the bits of the dense blocked passes, in blocks that the m - 1 row
    differences fill or overrun."""
    four_row_blocks(n)
    for k in (0, 1):
        for platform, dense in _diagonal_platforms(n, k):
            assert (_bits(verifier._row_smoothness(platform))
                    == _bits(verifier._row_smoothness(dense)))
            assert _bits(platform.consistency_defect()) == _bits(dense.consistency_defect()) \
                == _bits(0.0)


@pytest.mark.parametrize("n, k", _DIAGONAL_CASES)
def test_diagonal_platform_files_are_the_dense_ones(tmp_path, f_xy, n, k):
    """``save_platform`` writes the bytes of the dense kernel's runs for a
    diagonal one, one run per row found entry by entry, and
    ``load_platform`` reads them back to the diagonal, bit for bit."""
    for at, (platform, dense) in enumerate(_diagonal_platforms(n, k)):
        diagonal_dir, dense_dir = tmp_path / f"g{at}", tmp_path / f"dense{at}"
        save_platform(platform, f_xy, str(diagonal_dir))
        save_platform(dense, f_xy, str(dense_dir))
        for name in ("platform.csv", "transfers.csv", "manifest.txt"):
            assert (diagonal_dir / name).read_bytes() == (dense_dir / name).read_bytes()
        assert (diagonal_dir / "platform.csv").read_bytes() == reference_runs(platform.kernel, k)
        loaded, _ = load_platform(str(diagonal_dir))
        assert loaded.is_diagonal and _bits(loaded.kernel) == _bits(platform.kernel)


def test_dense_diagonal_kernels_are_stored_as_their_diagonal():
    """The constructor stores a dense kernel whose nonzeros are all diagonal
    as one diagonal run per row, which the accessor gives as the vector,
    and so does the ``glitch`` of weight zero; one with any off-diagonal
    mass is not diagonal, even mass too small to move a row sum."""
    grid = make_grid(6)
    platform = Platform(grid=grid, cutoff=2, kernel=np.eye(4), transfers=np.zeros(6))
    assert platform.is_diagonal and _bits(platform.kernel) == _bits(np.ones(4))
    assert _bits(glitch(platform, 0.0).kernel) == _bits(np.ones(6))
    assert not glitch(platform, 0.5).is_diagonal
    assert not Platform(grid=grid, cutoff=0, kernel=mixture_kernel(6, 0.5, 0.5),
                        transfers=np.zeros(6)).is_diagonal
    speck = np.eye(4)
    speck[0, 1] = speck[1, 0] = 1e-300
    assert speck.sum(axis=1)[0] == 1.0
    held = Platform(grid=grid, cutoff=2, kernel=speck, transfers=np.zeros(6))
    assert not held.is_diagonal and _bits(held.kernel) == _bits(speck)


def _assert_matches_two_products(args):
    """The scan's worst deviation is the two-product reference's: the same
    pair, and the same gain within 1e-12 of the gains' scale."""
    reference = two_product_gains(*args)
    scale = np.max(np.abs(reference))
    worst_gain, worst = verifier._incentive_gains(*args)
    reference_gain, reference_worst = one_shot_worst(reference, args)
    assert abs(worst_gain - reference_gain) <= 1e-12 * scale
    assert worst == reference_worst


def test_fused_gains_match_two_products_below_a_cutoff(params, f_xy, monkeypatch):
    """A dense kernel above a cutoff of 17 on 50 nodes, with the designed
    transfers: the excluded rows take the self-consistent form.  In blocks
    of four rows, the excluded rows end in the one-row block of row 16."""
    grid = make_grid(50)
    transfers = design(grid, f_xy, params, cutoff=17).platform.transfers
    platform = Platform(grid=grid, cutoff=17, kernel=mixture_kernel(33, 0.3, 0.3),
                        transfers=transfers)
    dse = solve_dse(platform, f_xy, params)
    args = (params.theta, f_xy.values(grid), dse.w, dse.u, dse.M,
            platform.kernel, platform.transfers, 17)
    _assert_matches_two_products(args)
    monkeypatch.setattr(verifier, "_GAIN_ROWS", _ROWS)
    _assert_matches_two_products(args)
    # the scan evaluating each block of f finds what it finds in the held table
    assert (verifier._incentive_gains(args[0], f_xy, *args[2:], grid)
            == verifier._incentive_gains(*args))


def test_fused_gains_match_two_products_on_masked_pairings(params, monkeypatch):
    """Every mask and pairing of a five-type market with output ``xy + 0.2``,
    each valued on the permutation kernel ``_mask_config_ic`` builds, in one
    block and in blocks of two rows.  The scan reads the nodes relabelled
    with the others first and the mask last, each in grid order, which is
    checked against that order built here and the pairwise wages and
    transfers (``conftest.mask_prices``), so that the mask's columns stay in
    step with the kernel's."""
    f = ProductionFunction.multiplicative_plus_constant(0.2)
    F = f.values(make_grid(5))
    seen = []
    fused = verifier._incentive_gains

    def record(*args):
        seen.append(args)
        return fused(*args)

    monkeypatch.setattr(verifier, "_incentive_gains", record)
    for size in range(1, 6):
        for mask in itertools.combinations(range(5), size):
            for perm in enumerate_involutions(size):
                verifier.masked_config_ic(5, f, params, mask, perm)
                order = [i for i in range(5) if i not in mask] + list(mask)
                w, t = mask_prices(5, f, params, mask, perm)
                _, F_seen, w_seen, _, _, _, t_seen, cutoff = seen[-1]
                assert cutoff == 5 - size
                assert _bits(F_seen) == _bits(F[np.ix_(order, order)])
                assert _bits(w_seen) == _bits(w[order])
                assert np.max(np.abs(t_seen - t[order])) <= 1e-15
    monkeypatch.undo()
    assert len(seen) == sum(len(list(enumerate_involutions(size))) * len(list(
        itertools.combinations(range(5), size))) for size in range(1, 6))
    for rows in (verifier._GAIN_ROWS, 2):
        monkeypatch.setattr(verifier, "_GAIN_ROWS", rows)
        for args in seen:
            _assert_matches_two_products(args)


def _random_gain_args(n, cutoff, seed):
    """Gain-scan arguments on ``n`` true types above ``cutoff``: a random
    output table, wages, densities, acceptance sets, transfers and a dense
    row-stochastic kernel, not an equilibrium."""
    rng = np.random.default_rng(seed)
    m = n - cutoff
    raw = rng.random((m, m))
    t = rng.random(n) / 8.0
    t[:cutoff] = 0.0
    return (0.5, rng.random((n, n)), rng.random(n) / 4.0, rng.random(n),
            rng.random((n, n)) < 0.7, raw / raw.sum(axis=1, keepdims=True), t, cutoff)


# in four-row blocks: 1 and 3 true types fit in one block, 4 fill it, 5 take
# one row more, and a cutoff of 6 on 10 ends the excluded rows in the
# two-row block of rows 4 and 5
@pytest.mark.parametrize("n, cutoff", [(1, 0), (3, 0), (4, 0), (5, 0), (5, 2), (10, 6)])
def test_blocked_worst_deviation_is_the_full_matrix_max(monkeypatch, n, cutoff):
    args = _random_gain_args(n, cutoff, n + cutoff)
    _assert_matches_two_products(args)
    monkeypatch.setattr(verifier, "_GAIN_ROWS", _ROWS)
    _assert_matches_two_products(args)


def test_blocked_worst_deviation_keeps_argmax_ties_and_nans(monkeypatch):
    """Between blocks, the first of equal gains in row-major order stays the
    worst, and a NaN gain wins, as ``argmax`` picks them."""
    monkeypatch.setattr(verifier, "_GAIN_ROWS", _ROWS)
    n, cutoff = 10, 6
    zero = np.zeros(n)
    args = [0.5, np.zeros((n, n)), zero, np.ones(n), np.ones((n, n), dtype=bool),
            np.full((n - cutoff, n - cutoff), 1.0 / (n - cutoff)), zero, cutoff]
    assert verifier._incentive_gains(*args) == (0.0, (0, cutoff))
    args[1] = args[1].copy()
    args[1][9, cutoff:] = np.nan
    gain, worst = verifier._incentive_gains(*args)
    assert np.isnan(gain) and worst == (9, cutoff)


def test_blocked_worst_deviation_in_every_kind_of_row(monkeypatch):
    """Over random markets of 10 types above a cutoff of 6, in four-row
    blocks, the worst deviation lands in the full block of excluded rows 0
    to 3, in the short block of excluded rows 4 and 5 that ends at the
    cutoff, in the included rows 6 to 9, and on an excluded report; the
    scan finds each."""
    monkeypatch.setattr(verifier, "_GAIN_ROWS", _ROWS)
    n, cutoff = 10, 6
    kinds = set()
    for seed in range(40):
        args = _random_gain_args(n, cutoff, seed)
        _assert_matches_two_products(args)
        i, j = one_shot_worst(two_product_gains(*args), args)[1]
        if j < cutoff:
            kinds.add("excluded report")
        elif i < cutoff:
            kinds.add("short excluded row" if i >= _ROWS else "excluded row")
        else:
            kinds.add("included row")
    assert kinds == {"excluded row", "short excluded row", "included row", "excluded report"}


def test_blocked_gains_at_the_default_block_size():
    """A cutoff of 100 on 300 true types puts all excluded rows in one short
    block and the included rows in another; a cutoff of 999 on 1000 ends the
    excluded rows in a short block and leaves a one-row included block.
    The reference is one product."""
    for n, cutoff in ((300, 100), (1000, 999)):
        assert verifier._GAIN_ROWS < n and cutoff % verifier._GAIN_ROWS
        _assert_matches_two_products(_random_gain_args(n, cutoff, 11))


@pytest.mark.parametrize("cutoff", ["auto", 999])
def test_fused_gains_match_two_products_on_designed_platforms(params, f_xy, cutoff):
    """The designed n = 1000 platform that the benchmark verifies: ``auto``
    puts the cutoff at 500, so the excluded rows end in the short block of
    rows 256 to 499, and a cutoff of 999 leaves a one-row included block."""
    designed = design(make_grid(1000), f_xy, params, cutoff=cutoff)
    k = designed.platform.cutoff
    assert k == {"auto": 500, 999: 999}[cutoff] and k % verifier._GAIN_ROWS
    args = gain_args(designed.platform, f_xy, params, designed.dse)
    _assert_matches_two_products(args)
    assert (verifier._incentive_gains(args[0], f_xy, *args[2:], designed.platform.grid)
            == verifier._incentive_gains(*args))


# ---------------------------------------------------------------------------
# memory budgets
# ---------------------------------------------------------------------------

_N = 1000


def _peak_arrays(fn, *args):
    """Peak traced allocation of ``fn(*args)`` above what was allocated
    before the call, in n-by-n float64 arrays at n = ``_N``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (8.0 * _N * _N)


@pytest.fixture(scope="module")
def glitched_state():
    """The ``solve --n 1000 --epsilon 0.5`` platform and its equilibrium."""
    f, params = ProductionFunction.multiplicative(), SearchParams(rho=1.0, alpha=0.5, r=0.05)
    platform = glitch(first_best_platform(make_grid(_N), 0), 0.5)
    return platform, f, params, solve_dse(platform, f, params)


@pytest.fixture(scope="module")
def designed():
    """The ``design --n 1000 --cutoff auto`` result: 500 nodes excluded."""
    f, params = ProductionFunction.multiplicative(), SearchParams(rho=1.0, alpha=0.5, r=0.05)
    return design(make_grid(_N), f, params, "auto")


# the bool result of acceptance counts as an eighth of an array; no layer
# but the dense solve holds an n-by-n output table, and it holds besides only
# the masked kernel of its policy loop, whose acceptance sets are packed bits
# (2.13 arrays measured); the identity solve holds the acceptance sets and
# one block of f; glitch builds runs, and its row-sum check expands an
# eighth-array block of the kernel at a time (0.17 arrays measured)
@pytest.mark.parametrize("layer, bound", [
    ("audit", 1.5),
    ("audit_designed", 0.5),
    ("solve_dse", 2.25),
    ("solve_dse_identity", 0.3),
    ("misreport_value_slope", 1.25),
    ("glitch", 0.2),
    ("consistency_defect", 0.5),
    ("acceptance", 0.5),
])
def test_dense_layer_memory_budget(glitched_state, designed, layer, bound):
    platform, f, params, dse = glitched_state
    call = {
        "audit": (audit, platform, f, params, dse),
        "audit_designed": (audit, designed.platform, f, params, designed.dse),
        "solve_dse": (solve_dse, platform, f, params),
        "solve_dse_identity": (solve_dse, first_best_platform(platform.grid, 0), f, params),
        "misreport_value_slope": (misreport_value_slope, platform, f, params, dse),
        "glitch": (glitch, first_best_platform(platform.grid, 0), 0.5),
        "consistency_defect": (platform.consistency_defect,),
        "acceptance": (acceptance, f.values(platform.grid), dse.w),
    }[layer]
    assert _peak_arrays(*call) <= bound


def test_assortative_commands_hold_no_output_table(tmp_path):
    """The identity ``solve --n 1000``, ``design --n 1000 --cutoff auto``,
    ``verify`` on the design and a one-process ``sweep``, run through
    ``cli.run``, allocate less than half an n-by-n float array at their
    peak: none holds the output table, its derivative table, a full gain
    matrix or the identity kernel as a matrix."""
    rates = ["--rho", "1", "--alpha", "0.5", "--r", "0.05", "--f", "xy"]
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("sweep_rho=0.5,1\n")
    statuses = []
    for argv in (["solve", "--n", str(_N), *rates, "--out", str(tmp_path / "s")],
                 ["design", "--n", str(_N), "--cutoff", "auto", *rates, "--out", str(tmp_path)],
                 ["verify", "--platform", str(tmp_path), "--out", str(tmp_path / "v")],
                 ["sweep", "--n", str(_N), *rates, "--jobs", "1", "--config", str(sweep),
                  "--out", str(tmp_path / "w")]):
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert _peak_arrays(lambda: statuses.append(cli.run(cfg))) < 0.5, argv[0]
    assert statuses == [0, 0, 0, 0]


def test_glitched_commands_hold_no_kernel_matrix(tmp_path):
    """``solve --n 1000 --epsilon 0.5`` and ``verify`` on its directory, run
    through ``cli.run``: the solve holds the output block and the masked
    kernel ``A`` of its policy loop, whose acceptance sets are packed bits
    (2.14 n-by-n arrays measured; 2.49 while the loop held them as bool
    arrays), the verify ``A`` or the incentive scan's blocks (1.32), and
    neither holds the kernel matrix, which took each one n-by-n array more
    (3.48 and 2.31 while the kernel was stored dense)."""
    rates = ["--rho", "1", "--alpha", "0.5", "--r", "0.05", "--f", "xy"]
    solved = tmp_path / "s"
    statuses = []
    for argv, bound in (
            (["solve", "--n", str(_N), "--epsilon", "0.5", *rates, "--out", str(solved)], 2.25),
            (["verify", "--platform", str(solved), "--out", str(tmp_path / "v")], 1.5)):
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert _peak_arrays(lambda: statuses.append(cli.run(cfg))) <= bound, argv[0]
    assert statuses == [0, 1]  # the zero-transfer platform is not incentive compatible


def test_commands_never_read_the_kernel_accessor(tmp_path, monkeypatch):
    """Every command, on identity and glitched kernels, built or loaded, runs
    with ``Platform.kernel`` refusing to build the dense kernel; the
    zero-transfer solves are not incentive compatible, so their verify
    exits 1."""
    def refuse(platform):
        raise AssertionError("a command read Platform.kernel")

    monkeypatch.setattr(Platform, "kernel", property(refuse))
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("sweep_rho=0.5,1\n")
    sim = tmp_path / "sim.cfg"
    sim.write_text("agents_per_node=4\nhorizon=200\nburn_in=50\nreplications=1\n")
    dirs = {name: str(tmp_path / name) for name in ("g", "i", "d")}
    runs = [
        (["solve", "--n", "30", "--epsilon", "0.5", "--out", dirs["g"]], 0),
        (["solve", "--n", "30", "--cutoff", "0.3", "--out", dirs["i"]], 0),
        (["design", "--n", "30", "--cutoff", "auto", "--out", dirs["d"]], 0),
        (["verify", "--platform", dirs["g"], "--out", str(tmp_path / "vg")], 1),
        (["verify", "--platform", dirs["i"], "--out", str(tmp_path / "vi")], 1),
        (["verify", "--platform", dirs["d"], "--out", str(tmp_path / "vd")], 0),
        (["solve", "--platform", dirs["g"], "--epsilon", "0.1", "--out", str(tmp_path / "gg")], 0),
        (["sweep", "--n", "30", "--epsilon", "0.5", "--jobs", "1", "--config", str(sweep),
          "--out", str(tmp_path / "sw")], 0),
        (["sweep", "--platform", dirs["g"], "--jobs", "1", "--config", str(sweep),
          "--out", str(tmp_path / "swp")], 0),
        (["simulate", "--n", "6", "--epsilon", "0.5", "--jobs", "1", "--config", str(sim),
          "--out", str(tmp_path / "sg")], 0),
        (["simulate", "--n", "6", "--jobs", "1", "--config", str(sim),
          "--out", str(tmp_path / "si")], 0),
        (["oracle", "--out", str(tmp_path / "o")], 0),
    ]
    for argv, status in runs:
        assert cli.run(cli.resolve_config(cli.build_parser().parse_args(argv))) == status, argv


@pytest.mark.parametrize("n, cutoff", [(50, 17), (300, 0)])
def test_gains_read_a_platform_as_its_kernel_matrix(monkeypatch, params, f_xy, n, cutoff):
    """The incentive scan finds the same worst deviation, bit for bit, on a
    platform, whose kernel it reads a block of rows at a time, as on its
    kernel matrix, in blocks of the default size and of four rows."""
    grid = make_grid(n)
    transfers = design(grid, f_xy, params, cutoff=cutoff).platform.transfers
    platform = Platform(grid=grid, cutoff=cutoff, kernel=mixture_kernel(n - cutoff, 0.3, 0.3),
                        transfers=transfers)
    dse = solve_dse(platform, f_xy, params)
    args = gain_args(platform, f_xy, params, dse)
    for rows in (verifier._GAIN_ROWS, _ROWS):
        monkeypatch.setattr(verifier, "_GAIN_ROWS", rows)
        reference = verifier._incentive_gains(*args[:5], platform.kernel, *args[6:])
        got = verifier._incentive_gains(*args)
        assert got[1] == reference[1] and _bits(got[0]) == _bits(reference[0])
