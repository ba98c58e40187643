import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchlab import core
from matchlab import (
    DSEState,
    Platform,
    ProductionFunction,
    SearchParams,
    TypeGrid,
    load_platform,
    make_grid,
    save_platform,
)
from matchlab.core import (
    acceptance,
    format_float,
    ordered_map,
    read_columns,
    write_columns,
)
from matchlab.designer import first_best_platform, glitch

from conftest import (
    TABLE_DAMAGES,
    dense_kernel,
    mixture_kernel,
    reference_csv,
    reference_runs,
    write_table,
)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_make_grid_two_nodes():
    g = make_grid(2)
    assert g.nodes.tolist() == [0.25, 0.75]
    assert g.mass == 0.5


def test_make_grid_four_nodes():
    assert make_grid(4).nodes.tolist() == [0.125, 0.375, 0.625, 0.875]


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
def test_make_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        make_grid(bad)


@given(n=st.integers(min_value=2, max_value=257))
@settings(max_examples=50)
def test_grid_invariants(n):
    g = make_grid(n)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 1
    assert n * g.mass == pytest.approx(1.0, abs=1e-15)


def test_grid_nodes_are_immutable():
    g = make_grid(4)
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0


# ---------------------------------------------------------------------------
# search parameters
# ---------------------------------------------------------------------------


def test_theta_is_recomputed():
    p = SearchParams(rho=1.0, alpha=0.5, r=0.05)
    assert p.theta == 1.0 / (2.0 * 0.55)
    assert SearchParams(rho=2.0, alpha=0.5, r=0.5).theta == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(rho=0.0, alpha=0.5, r=0.05),
    dict(rho=1.0, alpha=-1.0, r=0.05),
    dict(rho=1.0, alpha=0.5, r=0.0),
    dict(rho=float("nan"), alpha=0.5, r=0.05),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SearchParams(**kwargs)


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------


def test_acceptance_accepts_a_tie():
    """Zero surplus accepts; a one-ulp shortfall rejects."""
    F = np.array([[1.0, 0.75], [0.75, 0.5]])
    M = acceptance(F, np.array([0.5, np.nextafter(0.25, 1.0)]))
    assert M.tolist() == [[True, False], [False, False]]


def test_acceptance_is_the_sign_of_surplus(f_xy):
    """Every pair of a grid with two excluded (zero-wage) nodes.  Half the
    diagonal output as wage makes an included node's own pair a tie; node 4
    asks for more and rejects its own type."""
    g = make_grid(7)
    w = 0.5 * g.nodes ** 2
    w[:2] = 0.0
    w[4] *= 1.5
    M = acceptance(f_xy.values(g), w)
    x = g.nodes

    def surplus(i, j):
        return float(f_xy.eval(x[i], x[j])) - float(w[i]) - float(w[j])

    expected = [[surplus(i, j) >= 0 for j in range(7)] for i in range(7)]
    assert M.tolist() == expected
    assert M[3, 3] and surplus(3, 3) == 0.0
    assert not M.all() and M.any()


def test_surplus_zero_wages(f_xy):
    """At zero wages the surplus is the output: node 2 sits exactly at 0.5,
    so its own pair accepts up to a wage of 0.125 each and not one ulp more."""
    g = make_grid(5)
    F = f_xy.values(g)
    assert F[2, 2] == 0.25
    assert acceptance(F, np.zeros(5)).all()
    w = np.zeros(5)
    w[2] = 0.125
    assert acceptance(F, w)[2, 2]
    w[2] = np.nextafter(0.125, 1.0)
    assert not acceptance(F, w)[2, 2]


def test_surplus_at_reference_wage(params, f_xy):
    # w(x) = x^2 / 5.3 at the reference rates; at x = y = 0.5 the net
    # surplus is 0.25 - 2 * 0.25 / 5.3
    g = make_grid(5)
    w = params.rho * params.alpha / (2 * ((params.r + params.alpha)
        * (params.alpha + params.rho) + params.rho * params.alpha)) * g.nodes ** 2
    F = f_xy.values(g)
    assert F[2, 2] - w[2] - w[2] == pytest.approx(0.15566037735849056, abs=1e-15)
    assert acceptance(F, w)[2, 2]


def test_surplus_negative_for_zero_output():
    g = make_grid(4)
    f0 = ProductionFunction.tabulated(g, np.zeros((4, 4)))
    w = np.full(4, 0.1)
    assert not acceptance(f0.values(g), w)[0, 3]
    assert not acceptance(f0.values(g), w).any()


def test_surplus_index_check(f_xy):
    g = make_grid(4)
    M = acceptance(f_xy.values(g), np.zeros(4))
    with pytest.raises(IndexError):
        M[0, 4]
    with pytest.raises(ValueError):
        acceptance(f_xy.values(g), np.zeros(5))


# ---------------------------------------------------------------------------
# production functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 7, 64])
@pytest.mark.parametrize("make", [
    ProductionFunction.multiplicative,
    lambda: ProductionFunction.multiplicative_plus_constant(0.2),
])
def test_builtin_supermodularity(n, make):
    """Every adjacent-cell cross difference of a built-in output table is
    positive: strict supermodularity on the grid, each ordered quadruple of
    nodes being a sum of such cells."""
    F = make().values(make_grid(n))
    assert np.all(F[1:, 1:] - F[1:, :-1] - F[:-1, 1:] + F[:-1, :-1] > 0)


def test_zero_table_is_weakly_monotone_not_supermodular():
    g = make_grid(3)
    f0 = ProductionFunction.tabulated(g, np.zeros((3, 3)))
    assert float(f0.eval(0.3, 0.8)) == 0.0


def test_asymmetric_table_rejected():
    g = make_grid(3)
    table = np.outer(g.nodes, g.nodes)
    table[0, 1] += 1e-9
    with pytest.raises(ValueError, match="asymmetric"):
        ProductionFunction.tabulated(g, table)


def test_decreasing_table_rejected():
    g = make_grid(3)
    table = np.outer(1 - g.nodes, 1 - g.nodes)
    with pytest.raises(ValueError, match="nondecreasing"):
        ProductionFunction.tabulated(g, table)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_production_data_rejected(bad):
    g = make_grid(3)
    table = np.outer(g.nodes, g.nodes)
    with pytest.raises(ValueError, match="finite"):
        ProductionFunction.multiplicative_plus_constant(bad)
    spoiled = table.copy()
    spoiled[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ProductionFunction.tabulated(g, spoiled)


def test_tabulated_interpolation_matches_bilinear_source():
    # xy is itself bilinear, so interpolation and the derivative stencil
    # reproduce it up to roundoff away from the clamped edges
    g = make_grid(50)
    table = np.outer(g.nodes, g.nodes)
    ft = ProductionFunction.tabulated(g, table)
    pts = np.linspace(g.nodes[0], g.nodes[-1], 13)
    assert np.allclose(ft.eval(pts[:, None], pts[None, :]), pts[:, None] * pts[None, :],
                       atol=1e-12)
    interior = pts[2:-2]
    assert np.allclose(ft.d_dx(interior[:, None], interior[None, :]),
                       np.broadcast_to(interior[None, :], (9, 9)), atol=1e-9)


# ---------------------------------------------------------------------------
# platforms
# ---------------------------------------------------------------------------


def test_platform_row_sum_enforced():
    g = make_grid(3)
    bad = np.eye(3)
    bad[0, 0] = 0.9
    with pytest.raises(ValueError, match="sum to 1"):
        Platform(grid=g, cutoff=0, kernel=bad, transfers=np.zeros(3))


def _nudged_glitch(nudge):
    """The dense eps = 0.5 glitched kernel on five nodes, with ``nudge``
    added to one off-diagonal entry of its middle row."""
    kernel = dense_kernel(glitch(first_best_platform(make_grid(5), 0), 0.5))
    kernel[2, 4] += nudge
    return kernel


def _row_sum_deviation(kernel):
    """The deviation that the ``Platform`` constructor refuses ``kernel``
    with, read from its one-line message."""
    with pytest.raises(ValueError) as refused:
        Platform(grid=make_grid(len(kernel)), cutoff=0, kernel=kernel,
                 transfers=np.zeros(len(kernel)))
    match = re.fullmatch(r"kernel rows must sum to 1 \(max deviation (\S+)\)", str(refused.value))
    assert match, str(refused.value)
    return float(match[1])


def test_platform_row_sum_tolerance_on_runs():
    """A row sum is checked to ``ROW_SUM_TOL`` (1e-12) on every kind of
    kernel: a glitched row 2e-12 over is refused and one 5e-13 over is
    kept, a diagonal entry 2e-12 under 1 is refused, and so is a dense
    kernel with a row of zeros."""
    assert _row_sum_deviation(_nudged_glitch(2e-12)) == pytest.approx(2e-12, rel=1e-3)
    kept = Platform(grid=make_grid(5), cutoff=0, kernel=_nudged_glitch(5e-13),
                    transfers=np.zeros(5))
    assert dense_kernel(kept)[2, 4] == 0.1 + 5e-13
    assert _row_sum_deviation(np.array([1.0 - 2e-12, 1.0, 1.0, 1.0, 1.0])) \
        == pytest.approx(2e-12, rel=1e-3)
    zero_row = np.eye(5)
    zero_row[3, 3] = 0.0
    assert _row_sum_deviation(zero_row) == 1.0


def test_platform_row_sum_of_length_one_runs():
    """A kernel with no two equal neighbours in a row is one run an entry,
    and rows that sum to 1 to rounding are kept."""
    raw = np.random.default_rng(5).random((6, 6))
    kernel = raw / raw.sum(axis=1, keepdims=True)
    p = Platform(grid=make_grid(6), cutoff=0, kernel=kernel, transfers=np.zeros(6))
    _, cols, lasts, _ = p.runs
    assert len(cols) == 36 and np.array_equal(cols, lasts)
    assert dense_kernel(p).tobytes() == kernel.tobytes()


def test_platform_rejects_negative_entries():
    g = make_grid(2)
    bad = np.array([[1.5, -0.5], [-0.5, 1.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        Platform(grid=g, cutoff=0, kernel=bad, transfers=np.zeros(2))


def test_platform_rejects_non_finite_kernel():
    g = make_grid(3)
    with pytest.raises(ValueError, match="finite"):
        Platform(grid=g, cutoff=0, kernel=np.full((3, 3), np.nan), transfers=np.zeros(3))


def test_platform_rejects_non_finite_transfers():
    g = make_grid(3)
    with pytest.raises(ValueError, match="finite"):
        Platform(grid=g, cutoff=0, kernel=np.eye(3), transfers=np.array([0.0, np.nan, np.inf]))


def test_platform_transfers_zero_on_excluded():
    g = make_grid(3)
    t = np.array([0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="excluded"):
        Platform(grid=g, cutoff=1, kernel=np.eye(2), transfers=t)


def test_consistency_defect_reads_asymmetry():
    g = make_grid(4)
    kernel = np.eye(4)
    kernel[0, 0] -= 1e-3
    kernel[0, 1] += 1e-3
    p = Platform(grid=g, cutoff=0, kernel=kernel, transfers=np.zeros(4))
    assert p.consistency_defect() == pytest.approx(1e-3, abs=1e-18)
    with pytest.raises(ValueError, match=r"^platform is not consistent \(defect 0\.001\); "):
        p.require_consistent()
    assert Platform(grid=g, cutoff=0, kernel=np.eye(4),
                    transfers=np.zeros(4)).consistency_defect() == 0.0


def test_is_diagonal_reads_kernel_support():
    g = make_grid(4)
    assert first_best_platform(g, 1).is_diagonal
    assert not glitch(first_best_platform(g, 0), 0.5).is_diagonal
    # nodes 0 and 1 meet each other and node 2 meets itself: a zero diagonal
    # entry with every nonzero entry but one off the diagonal
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert not Platform(grid=make_grid(3), cutoff=0, kernel=swap,
                        transfers=np.zeros(3)).is_diagonal
    # a diagonal kernel with a zero diagonal entry has a zero row, so it is
    # never a platform kernel
    with pytest.raises(ValueError, match="sum to 1"):
        Platform(grid=make_grid(3), cutoff=0, kernel=np.diag([1.0, 0.0, 1.0]),
                 transfers=np.zeros(3))


def test_constructors_freeze_the_callers_arrays_without_a_copy():
    """``TypeGrid``, ``Platform`` and ``DSEState`` hold the arrays they are
    given and mark them read-only, all but the kernel: a platform stores its
    kernel as runs, so the caller's matrix or diagonal stays writable, and
    its dense block is the matrix, or the diagonal on a diagonal of zeros."""
    nodes = (np.arange(3) + 0.5) / 3
    grid = TypeGrid(n=3, nodes=nodes, mass=1 / 3)
    kernel, transfers = np.full((3, 3), 1 / 3), np.zeros(3)
    platform = Platform(grid=grid, cutoff=0, kernel=kernel, transfers=transfers)
    w, u, M = np.zeros(3), np.ones(3), np.ones((3, 3), dtype=bool)
    state = DSEState(w=w, u=u, M=M, bellman_residual=0.0, balance_residual=0.0)
    for given, held in ((nodes, grid.nodes), (transfers, platform.transfers), (w, state.w),
                        (u, state.u), (M, state.M)):
        assert held is given and not given.flags.writeable
    for given in (kernel, np.eye(3), np.ones(3)):
        built = Platform(grid=grid, cutoff=0, kernel=given, transfers=np.zeros(3))
        assert given.flags.writeable
        assert np.array_equal(dense_kernel(built), given if given.ndim == 2 else np.diag(given))
    assert Platform(grid=grid, cutoff=0, kernel=np.eye(3), transfers=np.zeros(3)).is_diagonal


def test_inclusion_is_an_upper_set_by_construction():
    """The kernel covers the included nodes alone, the top of the grid from
    the cutoff on: its dense block is 3-by-3 under cutoff 2 on five nodes,
    and a 5-by-5 kernel there is refused."""
    g = make_grid(5)
    p = Platform(grid=g, cutoff=2, kernel=np.eye(3), transfers=np.zeros(5))
    assert p.kernel_block(slice(None)).shape == (3, 3)
    with pytest.raises(ValueError, match=r"kernel shape \(5, 5\) does not match 3 included nodes"):
        Platform(grid=g, cutoff=2, kernel=np.eye(5), transfers=np.zeros(5))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _read_all(outdir):
    import os
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_platform_roundtrip_bit_exact(tmp_path, f_xy):
    g = make_grid(6)
    kernel = mixture_kernel(4, 0.37, 0.21)
    t = np.zeros(6)
    t[2:] = 0.1 + 0.01 * np.arange(4) / 3.0
    p = Platform(grid=g, cutoff=2, kernel=kernel, transfers=t)

    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    save_platform(p, f_xy, str(d1))
    loaded, production = load_platform(str(d1))
    assert loaded.cutoff == 2
    assert np.array_equal(dense_kernel(loaded), dense_kernel(p))
    assert np.array_equal(loaded.transfers, p.transfers)
    assert production.kind == "xy"
    save_platform(loaded, production, str(d2))
    assert _read_all(d1) == _read_all(d2)


def test_tabulated_roundtrip(tmp_path):
    g = make_grid(4)
    ft = ProductionFunction.tabulated(g, np.outer(g.nodes, g.nodes))
    p = Platform(grid=g, cutoff=0, kernel=np.eye(4), transfers=np.zeros(4))
    save_platform(p, ft, str(tmp_path / "t"))
    loaded, production = load_platform(str(tmp_path / "t"))
    assert production.kind == "table"
    assert np.array_equal(production.values(g), ft.values(g))


@given(a=st.floats(min_value=0.0, max_value=1.0),
       b=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=2, max_value=9))
@settings(max_examples=40)
def test_roundtrip_property(tmp_path_factory, a, b, n):
    total = a + b
    if total > 1.0:
        a, b = a / total, b / total
    kernel = mixture_kernel(n, a, b)
    g = make_grid(n)
    p = Platform(grid=g, cutoff=0, kernel=kernel, transfers=np.zeros(n))
    outdir = tmp_path_factory.mktemp("plat")
    save_platform(p, ProductionFunction.multiplicative(), str(outdir))
    loaded, _ = load_platform(str(outdir))
    assert np.array_equal(dense_kernel(loaded), dense_kernel(p))


@pytest.mark.parametrize("x, text", [
    (0.0005, "0.0005"), (1.0, "1"), (-0.0, "-0"), (0.1, "0.1"),
    (1 / 3, "0.3333333333333333"), (1e16, "1e+16"), (5e-324, "5e-324"),
    (float("nan"), "nan"), (float("-inf"), "-inf"),
])
def test_float_format_is_the_shortest_round_trip_text(x, text):
    assert format_float(x) == text


@given(x=st.floats(allow_nan=False))
@example(x=5e-324)
@example(x=-2.2250738585072014e-308)
@example(x=1.7976931348623157e308)
@example(x=-0.0)
@settings(max_examples=400)
def test_float_format_roundtrips(x):
    text = format_float(x)
    assert float(text).hex() == x.hex()  # bit for bit, the sign of zero included
    assert len(text) <= len(repr(x))


# ---------------------------------------------------------------------------
# golden bytes: the writer against a line-by-line reference
# ---------------------------------------------------------------------------


def reference_pairs(header, rows, cols, values=None):
    """The artifact bytes of one formatted line per entry."""
    lines = [header]
    for t, (a, b) in enumerate(zip(rows, cols)):
        lines.append(f"{a},{b}" if values is None else f"{a},{b},{format_float(values[t])}")
    return ("\n".join(lines) + "\n").encode()


def test_platform_csv_golden_all_distinct_with_cutoff(tmp_path, f_xy):
    g = make_grid(9)
    k = 3
    kernel = np.random.default_rng(7).random((6, 6))
    kernel[1, 4] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    p = Platform(grid=g, cutoff=k, kernel=kernel, transfers=np.zeros(9))
    save_platform(p, f_xy, str(tmp_path))
    rows, cols = np.nonzero(kernel)
    assert len(np.unique(kernel[rows, cols])) == len(rows) == 35
    expected = reference_runs(p, k)
    assert expected.count(b"\n") == 36  # a run per nonzero entry
    assert (tmp_path / "platform.csv").read_bytes() == expected


def test_platform_csv_golden_over_two_write_blocks(tmp_path, f_xy):
    # 88 800 runs of one entry each: more than one write block
    kernel = np.random.default_rng(11).random((300, 300))
    kernel[:, ::97] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    p = Platform(grid=make_grid(302), cutoff=2, kernel=kernel, transfers=np.zeros(302))
    save_platform(p, f_xy, str(tmp_path))
    expected = reference_runs(p, 2)
    assert expected.count(b"\n") - 1 == 88_800 > core._BLOCK_ROWS
    assert (tmp_path / "platform.csv").read_bytes() == expected


def test_platform_csv_golden_glitched(tmp_path, f_xy):
    p = glitch(first_best_platform(make_grid(300), 0), 0.5)
    save_platform(p, f_xy, str(tmp_path))
    expected = reference_runs(p, 0)
    # at most three runs a row: left of the diagonal, the diagonal, right of it
    assert 600 < expected.count(b"\n") - 1 <= 900
    assert (tmp_path / "platform.csv").read_bytes() == expected


@st.composite
def run_kernels(draw):
    """(n, cutoff, kernel): a mixture of the identity, the reversal, the
    uniform kernel and a block-uniform kernel on random consecutive blocks;
    every one is symmetric and row-stochastic and has long runs of equal entries."""
    k = draw(st.sampled_from([0, 0, 1, 7]))
    m = draw(st.integers(1 if k else 2, 40))
    sizes = []
    while sum(sizes) < m:
        sizes.append(draw(st.integers(1, m - sum(sizes))))
    blocks = np.zeros((m, m))
    edges = np.cumsum([0] + sizes)
    for lo, hi in zip(edges[:-1], edges[1:]):
        blocks[lo:hi, lo:hi] = 1.0 / (hi - lo)
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=4, max_size=4))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    a, b, c, d = (w / sum(weights) for w in weights)
    kernel = a * np.eye(m) + b * np.eye(m)[::-1] + (c / m) * np.ones((m, m)) + d * blocks
    return m + k, k, kernel


@given(drawn=run_kernels())
@settings(max_examples=100, deadline=None)
def test_platform_runs_roundtrip_property(tmp_path_factory, drawn):
    """Every run-structured kernel loads back bit for bit, and re-saves byte for byte."""
    n, k, kernel = drawn
    p = Platform(grid=make_grid(n), cutoff=k, kernel=kernel, transfers=np.zeros(n))
    d1, d2 = tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b")
    save_platform(p, ProductionFunction.multiplicative(), str(d1))
    assert (d1 / "platform.csv").read_bytes() == reference_runs(p, k)
    loaded, production = load_platform(str(d1))
    assert np.array_equal(dense_kernel(loaded).view(np.int64), dense_kernel(p).view(np.int64))
    save_platform(loaded, production, str(d2))
    assert _read_all(d1) == _read_all(d2)


def _glitch_reference(n, epsilon):
    """The ``glitch`` of an identity platform, above any cutoff (excluded
    nodes meet themselves), as the dense mixture built in place: the bits of
    ``(1 - eps) G + eps/n``."""
    mixed = np.eye(n)
    mixed *= 1.0 - epsilon
    mixed += epsilon / n
    return mixed


def _stored_platforms():
    """(label, platform, its dense kernel, cutoff) for each way a kernel
    enters a platform: a dense matrix, a diagonal, and ``glitch`` at four
    weights above two cutoffs."""
    grid = make_grid(7)
    yield "dense", Platform(grid=grid, cutoff=2, kernel=mixture_kernel(5, 0.3, 0.3),
                            transfers=np.zeros(7)), mixture_kernel(5, 0.3, 0.3), 2
    wobble = 1.0 + np.array([0, 1, -1, 0, 2]) * 2.0 ** -45
    yield "diagonal", Platform(grid=grid, cutoff=2, kernel=wobble,
                               transfers=np.zeros(7)), np.diag(wobble), 2
    for k in (0, 3):
        for epsilon in (0.0, 0.01, 0.5, 1.0):
            yield (f"glitch{epsilon}-k{k}", glitch(first_best_platform(grid, k), epsilon),
                   _glitch_reference(7, epsilon), 0)


def test_stored_runs_resave_to_the_dense_kernels_runs(tmp_path, f_xy):
    """Every stored kernel saves to the runs of its dense kernel, found entry
    by entry, loads back to the same runs and saves again byte for byte; its
    full block is that dense kernel, bit for bit, and on a diagonal kernel
    its run values are the diagonal."""
    for label, platform, dense, k in _stored_platforms():
        first, again = tmp_path / label / "a", tmp_path / label / "b"
        save_platform(platform, f_xy, str(first))
        assert (first / "platform.csv").read_bytes() == reference_runs(dense, k), label
        loaded, production = load_platform(str(first))
        save_platform(loaded, production, str(again))
        assert _read_all(first) == _read_all(again), label
        for held in (platform, loaded):
            assert held.kernel_block(slice(None)).tobytes() == dense.tobytes(), label
            if held.is_diagonal:
                assert held.runs[3].tobytes() == np.diagonal(dense).tobytes(), label
            assert held.is_diagonal == (np.count_nonzero(dense) == np.count_nonzero(
                np.diagonal(dense)))


def test_split_runs_in_a_file_merge_to_maximal_runs(tmp_path, f_xy):
    """A hand-written ``platform.csv`` whose equal runs are split, with a
    zero run, loads to the maximal runs of its kernel: it saves as the runs
    ``row_runs`` finds in the dense kernel."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "platform.csv").write_text(
        "i,j,j_last,G\n"
        "1,1,2,0.25\n1,3,3,0.25\n1,4,4,0.25\n"   # one run split in three
        "2,1,2,0.25\n2,3,4,0.25\n"                # and in two
        "3,1,1,0.5\n3,2,2,0\n3,3,3,0.5\n"        # a zero run between two halves
        "4,1,1,0.125\n4,2,3,0.25\n4,4,4,0.375\n")
    (src / "transfers.csv").write_text("i,t\n0,0\n1,0\n2,0\n3,0\n4,0\n")
    (src / "manifest.txt").write_text("n=5\ncutoff=1\nf.kind=xy\nf.c=0\n")
    dense = np.array([[0.25] * 4, [0.25] * 4, [0.5, 0.0, 0.5, 0.0],
                      [0.125, 0.25, 0.25, 0.375]])
    loaded, production = load_platform(str(src))
    assert dense_kernel(loaded).tobytes() == dense.tobytes()
    assert [len(a) for a in loaded.runs] == [7] * 4  # 1 + 1 + 2 + 3 runs
    save_platform(loaded, production, str(tmp_path / "out"))
    assert (tmp_path / "out" / "platform.csv").read_bytes() == reference_runs(dense, 1)


@st.composite
def kernel_blocks(draw):
    """A kernel from ``run_kernels``, or a dense kernel with no equal
    neighbours, and a block of it: row and column slices and a bool mask or
    none."""
    n, k, kernel = draw(run_kernels())
    m = n - k
    if draw(st.booleans()):
        raw = np.random.default_rng(draw(st.integers(0, 99))).random((m, m)) + 0.5
        kernel = raw / raw.sum(axis=1, keepdims=True)
    bounds = [st.integers(0, m), st.integers(0, m)]
    rows = slice(*sorted(draw(st.tuples(*bounds))))
    cols = slice(*sorted(draw(st.tuples(*bounds))))
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    seed = draw(st.one_of(st.none(), st.integers(0, 99)))
    mask = None if seed is None else np.random.default_rng(seed).random(shape) < 0.7
    return n, k, kernel, rows, cols, mask


@given(drawn=kernel_blocks())
@settings(max_examples=150, deadline=None)
def test_kernel_blocks_are_the_dense_blocks(drawn):
    """Every block of the stored kernel, masked or not, into a fresh array
    or into ``out``, has the bits of the same block of the dense kernel,
    whether the block is written over its longest segment's value or
    segment by segment."""
    n, k, kernel, rows, cols, mask = drawn
    p = Platform(grid=make_grid(n), cutoff=k, kernel=kernel, transfers=np.zeros(n))
    reference = kernel[rows, cols] if mask is None else kernel[rows, cols] * mask
    assert p.kernel_block(rows, cols, mask).tobytes() == reference.tobytes()
    out = np.full((n - k + 1, n - k + 1), np.nan)
    view = out[1:1 + reference.shape[0], 1:1 + reference.shape[1]]
    assert p.kernel_block(rows, cols, mask, out=view) is view
    assert view.tobytes() == reference.tobytes()


def test_kernel_block_refuses_a_step():
    """A row or column slice whose step is not 1 is refused, naming the
    step, where it would give a block of other rows; a negative start still
    counts from the end."""
    kernel = mixture_kernel(6, 0.3, 0.3)
    p = Platform(grid=make_grid(6), cutoff=0, kernel=kernel, transfers=np.zeros(6))
    for rows, cols, refused in ((slice(0, 6, 2), slice(None), "rows step 2"),
                                (slice(5, None, -1), slice(None), "rows step -1"),
                                (slice(None), slice(1, 5, 3), "cols step 3")):
        with pytest.raises(ValueError, match=refused):
            p.kernel_block(rows, cols)
    assert p.kernel_block(slice(-2, None)).tobytes() == kernel[4:].tobytes()


def test_table_csv_golden_with_zero_entries(tmp_path):
    g = make_grid(7)
    table = np.maximum(np.outer(g.nodes, g.nodes) - 0.1, 0.0)
    table[0, 0] = -0.0
    assert np.count_nonzero(table == 0.0) > 1
    ft = ProductionFunction.tabulated(g, table)
    p = Platform(grid=g, cutoff=0, kernel=np.eye(7), transfers=np.zeros(7))
    save_platform(p, ft, str(tmp_path))
    stored = ft._table
    rows, cols = np.indices((7, 7)).reshape(2, -1)
    expected = reference_pairs("i,j,f", rows, cols, stored.ravel())
    assert b"\n0,0,-0\n" in expected
    assert (tmp_path / "table.csv").read_bytes() == expected
    _, production = load_platform(str(tmp_path))
    assert np.array_equal(production._table.view(np.int64), stored.view(np.int64))


@given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=200)
def test_reader_returns_every_written_value_bit_exact(tmp_path_factory, values):
    values = np.array(values + [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0])
    path = tmp_path_factory.mktemp("cols") / "v.csv"
    rows = np.arange(len(values))
    write_columns(str(path), "i,j,v", [rows, rows[::-1], values])
    assert path.read_bytes() == reference_pairs("i,j,v", rows, rows[::-1], values)
    i, j, back = read_columns(str(path), 3, 2, 0, len(values))
    assert i.dtype == j.dtype == np.int64
    assert np.array_equal(i, rows) and np.array_equal(j, rows[::-1])
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


def test_columns_golden_mixed_kinds(tmp_path):
    ints = np.array([3, -1, 0, 3, 7, -1])
    wide = np.array([0, 10 ** 12, -5, 10 ** 12, 2, 2])   # too wide to label by range
    floats = np.array([-0.0, 0.0, np.nan, -np.inf, 5e-324, 0.1])
    text = ["match", "miss", "", "divorce", "miss", "a_b"]
    write_columns(str(tmp_path / "m.csv"), "a,b,c,d", [ints, wide, floats, text])
    expected = reference_csv("a,b,c,d", zip(ints.tolist(), wide.tolist(), floats, text))
    assert "\n3,0,-0,match\n" in expected and "\n0,-5,nan,\n" in expected
    assert (tmp_path / "m.csv").read_text() == expected


def test_columns_header_only_and_length_mismatch(tmp_path):
    write_columns(str(tmp_path / "e.csv"), "i,x,s",
                  [np.arange(0), np.zeros(0), np.array([], dtype=str)])
    assert (tmp_path / "e.csv").read_bytes() == b"i,x,s\n"
    with pytest.raises(ValueError, match="length"):
        write_columns(str(tmp_path / "bad.csv"), "i,x", [np.arange(3), np.zeros(2)])


_COLUMN_KINDS = {
    "small_int": (st.integers(-5, 20), np.int64),
    "wide_int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "float": (st.one_of(st.floats(), st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 5e-324,
                                                      -2.2250738585072009e-308])), float),
    # a NUL is refused (see below); a lone surrogate has no UTF-8
    "string": (st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                       max_size=6), str),
    # drawn as runs, up to three blocks long (see column_mixes)
    "float_runs": (st.sampled_from([0.0, -0.0, np.nan, -np.nan, 0.5, np.inf]), float),
}


@st.composite
def column_mixes(draw):
    """(rows per block, header, columns as lists): row counts straddle the block edges."""
    block = draw(st.integers(1, 6))
    nrows = max(0, block * draw(st.integers(0, 4)) + draw(st.sampled_from([-1, 0, 1])))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "float_runs":
            # long runs that cross block edges, with 0.0 beside -0.0 and NaN runs
            values = []
            while len(values) < nrows:
                values += [draw(_COLUMN_KINDS[kind][0])] * draw(st.integers(1, 3 * block))
            columns.append((kind, values[:nrows]))
        else:
            columns.append((kind, draw(st.lists(_COLUMN_KINDS[kind][0],
                                                min_size=nrows, max_size=nrows))))
    header = draw(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0\n")))
    return block, header, columns


@given(mix=column_mixes())
@settings(max_examples=200, deadline=None)
def test_columns_golden_across_block_edges(tmp_path_factory, mix):
    """Every column mix writes the bytes of one line per row, across many
    block boundaries."""
    block, header, columns = mix
    path = tmp_path_factory.mktemp("mix") / "m.csv"
    arrays = [np.array(values, dtype=_COLUMN_KINDS[kind][1]) for kind, values in columns]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ROWS", block)
        write_columns(str(path), header, arrays)
    rows = zip(*(values for _, values in columns))
    assert path.read_bytes() == reference_csv(header, rows).encode("utf-8")


def test_columns_refuse_nul_in_strings_and_unknown_dtypes(tmp_path):
    """Padding is NUL, so a string entry holding one would lose it silently:
    it is refused, naming the file, and nothing is written."""
    path = tmp_path / "nul.csv"
    with pytest.raises(ValueError, match=r"nul\.csv: a string entry holds a NUL byte"):
        write_columns(str(path), "i,s", [np.arange(2), np.array(["ok", "a\0b"])])
    assert not path.exists()
    with pytest.raises(TypeError, match="dtype bool"):
        write_columns(str(tmp_path / "b.csv"), "b", [np.array([True, False])])
    write_columns(str(path), "é,s", [np.arange(2), np.array(["naïve", "日本"])])
    assert path.read_bytes() == "é,s\n0,naïve\n1,日本\n".encode("utf-8")


def test_platform_in_17_digit_text_loads_and_resaves_short(tmp_path):
    """A directory in 17-significant-digit text, as older artifacts hold it,
    loads to the same bits and saves again in the shortest round-trip text."""
    p = glitch(first_best_platform(make_grid(5), 0), 0.5)
    transfers = np.array([0.0, 0.1, 1.0 / 3.0, -0.0, 2.5e-7])
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    kernel = dense_kernel(p)
    rows, cols = np.nonzero(kernel)
    (old / "platform.csv").write_text("i,j,j_last,G\n" + "".join(
        f"{i},{j},{j},{kernel[i, j]:.17g}\n" for i, j in zip(rows, cols)))
    (old / "transfers.csv").write_text(
        "i,t\n" + "".join(f"{i},{t:.17g}\n" for i, t in enumerate(transfers)))
    (old / "manifest.txt").write_text("n=5\ncutoff=0\nf.kind=xy\nf.c=0\n")
    assert "0.10000000000000001" in (old / "platform.csv").read_text()

    loaded, production = load_platform(str(old))
    assert np.array_equal(dense_kernel(loaded).view(np.int64), kernel.view(np.int64))
    assert np.array_equal(loaded.transfers.view(np.int64), transfers.view(np.int64))
    save_platform(loaded, production, str(new))
    assert (new / "platform.csv").read_bytes() == reference_runs(p, 0)
    assert (new / "transfers.csv").read_text() == reference_csv("i,t", enumerate(transfers))
    assert "\n1,0.1\n" in (new / "transfers.csv").read_text()
    assert len((new / "platform.csv").read_bytes()) < len((old / "platform.csv").read_bytes())


def test_transfers_csv_golden_with_negative_zero(tmp_path, f_xy):
    g = make_grid(5)
    transfers = np.array([-0.0, 0.0, 0.1, 1.0 / 3.0, 0.1])
    p = Platform(grid=g, cutoff=2, kernel=np.eye(3), transfers=transfers)
    save_platform(p, f_xy, str(tmp_path))
    expected = reference_csv("i,t", enumerate(transfers))
    assert expected.startswith("i,t\n0,-0\n")
    assert (tmp_path / "transfers.csv").read_text() == expected


# ---------------------------------------------------------------------------
# malformed platform artifacts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, text", [
    pytest.param("platform.csv", "i,j,j_last,G\n2,2,2,0.5\n2.5,3,3,0.5\n",
                 id="platform.csv-index-not-an-integer"),
    pytest.param("platform.csv", "i,j,j_last,G\n1,2,2,1\n2,2,2,1\n3,3,3,1\n4,4,4,1\n",
                 id="platform.csv-below-the-cutoff"),
    pytest.param("platform.csv", "i,j,j_last,G\n2,5,5,1\n3,3,3,1\n4,4,4,1\n",
                 id="platform.csv-at-n"),
    pytest.param("platform.csv", "i,j,j_last,G\n2,2,2,1\n3,3,3\n4,4,4,1\n",
                 id="platform.csv-short-row"),
    pytest.param("platform.csv", "i,j,j_last,G\n2,2,2\n3,3,3\n4,4,4\n",
                 id="platform.csv-a-column-missing-throughout"),
    pytest.param("platform.csv", "i,j,j_last,G\n2,x,2,1\n", id="platform.csv-not-a-number"),
    ("transfers.csv", "i,t\n-1,0\n"),
    ("transfers.csv", "i,t\n5,0\n"),
    ("transfers.csv", "i,t\n0,0,0\n"),
    ("transfers.csv", "i,t\n0,0\n1,0\n2,0\n3,0\n"),          # a node missing
    ("transfers.csv", "i,t\n0,0\n1,0\n2,0\n3,0\n4,0\n4,0\n"),  # a node repeated
    ("transfers.csv", "i,t\n0,0\n1,0\n3,0\n2,0\n4,0\n"),      # nodes out of order
    ("transfers.csv", "i,t\n"),                                  # header only
    ("table.csv", "i,j,f\n0,5,0\n"),
    ("table.csv", "i,j,f\n0,0\n"),
])
def test_load_platform_rejects_bad_rows(tmp_path, name, text):
    g = make_grid(5)
    p = Platform(grid=g, cutoff=2, kernel=mixture_kernel(3, 0.5, 0.2), transfers=np.zeros(5))
    save_platform(p, ProductionFunction.tabulated(g, np.outer(g.nodes, g.nodes)), str(tmp_path))
    load_platform(str(tmp_path))
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=name):
        load_platform(str(tmp_path))


_RUNS = "i,j,j_last,G\n"
_ORDER = "runs must be in row-major order and must not overlap"


@pytest.mark.parametrize("text, message", [
    (_RUNS + "2,2,2,1\n3,3,3,1\n4,4,3,1\n", "a run ends before it starts"),
    (_RUNS + "2,2,2,1\n3,3,3,1\n4,4,5,1\n", r"node indices must be integers in \[2, 5\)"),
    (_RUNS + "2,2,3,0.5\n2,3,4,0.5\n3,3,3,1\n4,4,4,1\n", _ORDER),
    (_RUNS + "3,3,3,1\n2,2,2,1\n4,4,4,1\n", _ORDER),
    (_RUNS + "2,2,1\n3,3,1\n4,4,1\n", "expected 4 columns per row, found 3"),
    (_RUNS + "2,2,2,1\n3,3,3\n4,4,4,1\n", ""),          # short row
    ("i,j,G\n2,2,1\n3,3,1\n4,4,1\n", "header must be i,j,j_last,G, found 'i,j,G'"),
    ("i,j,G,x\n2,2,2,1\n3,3,3,1\n4,4,4,1\n", "header must be i,j,j_last,G"),
], ids=["j_last-below-j", "j_last-at-n", "overlap", "out-of-order", "three-columns",
        "short-row", "entry-layout", "unknown-header"])
def test_load_platform_rejects_bad_runs(tmp_path, f_xy, text, message):
    g = make_grid(5)
    save_platform(Platform(grid=g, cutoff=2, kernel=np.eye(3), transfers=np.zeros(5)),
                  f_xy, str(tmp_path))
    assert (tmp_path / "platform.csv").read_text() == _RUNS + "2,2,2,1\n3,3,3,1\n4,4,4,1\n"
    (tmp_path / "platform.csv").write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'platform.csv'}: ") + message):
        load_platform(str(tmp_path))


@pytest.mark.parametrize("key", ["n", "cutoff", "f.kind"])
def test_load_platform_names_a_missing_manifest_key(tmp_path, f_xy, key):
    save_platform(first_best_platform(make_grid(4), 1), f_xy, str(tmp_path))
    path = tmp_path / "manifest.txt"
    kept = [line for line in path.read_text().splitlines() if not line.startswith(key + "=")]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError) as info:
        load_platform(str(tmp_path))
    assert str(info.value) == f"{path}: missing key {key!r}"


# ---------------------------------------------------------------------------
# ordered process map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_ordered_map_returns_results_in_task_order(jobs):
    assert ordered_map(pow, [(2, k) for k in range(7)], jobs) == [2 ** k for k in range(7)]
    assert ordered_map(pow, [], jobs) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_ordered_map_raises_a_worker_exception(jobs):
    with pytest.raises(ValueError, match="'x'"):
        ordered_map(int, [("1",), ("x",), ("3",)], jobs)


def test_load_table_reads_a_complete_table(tmp_path):
    g = make_grid(4)
    production = core.load_table(write_table(tmp_path / "table.csv"), g)
    expected = np.outer(np.arange(1, 5), np.arange(1, 5)) / 16
    assert np.array_equal(production.values(g), expected)


@pytest.mark.parametrize("damage", TABLE_DAMAGES)
def test_load_table_needs_every_pair_once_in_row_major_order(tmp_path, damage):
    """A pair missing, repeated or out of order is refused with the file's
    name, as is a file with only its header."""
    path = write_table(tmp_path / "table.csv", damage)
    message = (f"{re.escape(path)}: rows must list every pair \\(i, j\\) of the nodes "
               "0 to 3 once each, in row-major order")
    with pytest.raises(ValueError, match=message):
        core.load_table(path, make_grid(4))
