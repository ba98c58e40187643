"""Shared domain types for matching-platform experiments.

A market lives on a discrete type grid with uniform node mass.  A platform
assigns every included type a search distribution over included types (a
row-stochastic kernel) and a flow payment.  Equilibrium objects (reservation
wages, unmatched densities, acceptance sets) are carried by ``DSEState``.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "MatchlabError",
    "NonConvergenceError",
    "SearchParams",
    "TypeGrid",
    "make_grid",
    "ProductionFunction",
    "Platform",
    "DSEState",
    "acceptance",
    "row_runs",
    "save_platform",
    "load_platform",
    "load_table",
    "format_float",
    "write_lines",
    "write_columns",
    "read_columns",
    "read_node_columns",
    "available_cpus",
    "ordered_map",
]

#: Row sums of a kernel must match 1 this tightly.
ROW_SUM_TOL = 1e-12
#: A platform counts as consistent when max |G - G^T| stays below this.
CONSISTENCY_TOL = 1e-10
#: A state solves its platform when its Bellman and balance residuals are at
#: most this: the audit certifies no state past it, and the designer's rent
#: and envelope transfers refuse one.
RESIDUAL_TOL = 1e-6
#: Tabulated production values must be symmetric this tightly.
SYMMETRY_TOL = 1e-12


class MatchlabError(Exception):
    """Base class for package-specific failures."""


class NonConvergenceError(MatchlabError):
    """Fixed-point iteration stopped without an equilibrium.

    Carries the last residuals and the sweep count so callers can report how
    close the run got.  When the solve stopped because the Bellman residual
    set no new best for a while, ``period`` is the number of sweeps after
    which its recent acceptance sets repeat: 1 for a fixed set under which
    the update does not contract, 0 for sets that do not repeat.  For a
    period of 2 or more, ``flipping_pairs`` lists the pairs ``(i, j)``,
    ``i <= j``, whose acceptance flag changed at the last flip; otherwise it
    is empty.  A solve that ran out of sweeps reads period 0 as well.
    Instances survive ``pickle``, so a worker process can report them.
    """

    def __init__(self, message: str, bellman_residual: float, balance_residual: float,
                 iterations: int, period: int = 0, flipping_pairs: tuple = ()):
        super().__init__(message)
        self.bellman_residual = bellman_residual
        self.balance_residual = balance_residual
        self.iterations = iterations
        self.period = period
        self.flipping_pairs = flipping_pairs

    def __reduce__(self):
        return type(self), (self.args[0], self.bellman_residual, self.balance_residual,
                            self.iterations, self.period, self.flipping_pairs)


def format_float(x: float) -> str:
    """The shortest text that reads back to the same float: Python's ``repr``
    (round-trip printing), without a trailing ``.0``.

    So integral values below 1e16 are written as integers (``1``, ``-0``), and
    ``0.0005`` stays ``0.0005`` where 17 significant digits would write
    ``0.00050000000000000001``.
    """
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class SearchParams:
    """Rates governing the search process.

    ``rho`` is the meeting-call rate, ``alpha`` the divorce rate and ``r`` the
    discount rate, all per unit time.  The derived surplus scale ``theta`` is
    always recomputed from the three rates and cannot be set directly.
    """

    rho: float
    alpha: float
    r: float

    def __post_init__(self):
        for name in ("rho", "alpha", "r"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

    @property
    def theta(self) -> float:
        return self.rho / (2.0 * (self.r + self.alpha))

    @property
    def u_star(self) -> float:
        """Unmatched density ``alpha / (alpha + rho)`` of a type whose every
        meeting forms a match, as under a deterministic pairing."""
        return self.alpha / (self.alpha + self.rho)


@dataclass(frozen=True, eq=False)
class TypeGrid:
    """Midpoint discretization of the unit type interval.

    Node ``i`` sits at ``(i + 0.5) / n`` and carries mass ``1 / n``; the cell
    structure keeps every node strictly inside (0, 1) and makes the kernel
    consistency condition equivalent to kernel symmetry.  The constructor
    marks the ``nodes`` array it is given read-only, without a copy.
    """

    n: int
    nodes: np.ndarray
    mass: float

    def __post_init__(self):
        self.nodes.setflags(write=False)


def make_grid(n: int) -> TypeGrid:
    """Build the midpoint grid with ``n`` nodes (requires ``n >= 2``)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"grid size must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got {n}")
    nodes = (np.arange(n, dtype=float) + 0.5) / n
    return TypeGrid(n=int(n), nodes=nodes, mass=1.0 / n)


class ProductionFunction:
    """Symmetric flow output of a matched pair.

    Built-in kinds are ``"xy"`` (multiplicative) and ``"xy+c"`` (multiplicative
    plus a finite constant ``c >= 0``), both with analytic partial derivatives.
    ``"table"`` wraps an ``n x n`` matrix of finite values on a grid; evaluation uses
    bilinear interpolation and the derivative a central difference with step
    ``1 / (4 n)``.
    """

    def __init__(self, kind: str, c: float = 0.0, grid: TypeGrid | None = None,
                 table: np.ndarray | None = None):
        if kind not in ("xy", "xy+c", "table"):
            raise ValueError(f"unknown production kind {kind!r}")
        if kind == "xy+c" and not (math.isfinite(c) and c >= 0):
            raise ValueError(f"constant term must be a nonnegative finite number, got {c}")
        self.kind = kind
        self.c = float(c) if kind == "xy+c" else 0.0
        self.grid = grid
        self._table = None
        if kind == "table":
            if grid is None or table is None:
                raise ValueError("tabulated production needs a grid and a value table")
            table = np.asarray(table, dtype=float)
            if table.shape != (grid.n, grid.n):
                raise ValueError(f"table shape {table.shape} does not match grid n={grid.n}")
            if not np.all(np.isfinite(table)):
                raise ValueError("tabulated values must be finite")
            asym = float(np.max(np.abs(table - table.T))) if grid.n else 0.0
            if asym > SYMMETRY_TOL:
                raise ValueError(f"tabulated values are asymmetric (max |f(x,y)-f(y,x)| = {asym:g})")
            if np.any(table < 0):
                raise ValueError("tabulated values must be nonnegative")
            if np.any(np.diff(table, axis=0) < -SYMMETRY_TOL) or np.any(np.diff(table, axis=1) < -SYMMETRY_TOL):
                raise ValueError("tabulated values must be nondecreasing in each argument")
            table = 0.5 * (table + table.T)  # kill roundoff-level asymmetry
            table.setflags(write=False)
            self._table = table

    # -- constructors ------------------------------------------------------

    @classmethod
    def multiplicative(cls) -> "ProductionFunction":
        return cls("xy")

    @classmethod
    def multiplicative_plus_constant(cls, c: float) -> "ProductionFunction":
        return cls("xy+c", c=c)

    @classmethod
    def tabulated(cls, grid: TypeGrid, table: np.ndarray) -> "ProductionFunction":
        return cls("table", grid=grid, table=table)

    # -- evaluation --------------------------------------------------------

    def eval(self, x, y):
        """Flow output ``f(x, y)``; accepts scalars or broadcastable arrays."""
        if self.kind == "xy":
            return np.multiply(x, y)
        if self.kind == "xy+c":
            return np.multiply(x, y) + self.c
        return self._interp(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def d_dx(self, x, y):
        """Partial derivative of the output with respect to the first type."""
        if self.kind in ("xy", "xy+c"):
            return np.broadcast_to(np.asarray(y, dtype=float), np.broadcast(x, y).shape).copy() \
                if np.ndim(x) or np.ndim(y) else float(y)
        h = 1.0 / (4 * self.grid.n)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (self._interp(x + h, y) - self._interp(x - h, y)) / (2 * h)

    def values(self, grid: TypeGrid, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Matrix of outputs at the node pairs of ``grid``: the rows ``rows``
        and columns ``cols`` (slices or index arrays) of the whole table,
        which is the default.  Every entry is evaluated on its own, so a block
        has the bits of the same block of the whole table; the result is a
        fresh array."""
        x = grid.nodes
        return np.asarray(self.eval(x[rows, None], x[None, cols]), dtype=float)

    def dx_values(self, grid: TypeGrid, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Matrix of first-argument derivatives at the node pairs of
        ``grid``, rows ``rows`` and columns ``cols`` as in :meth:`values`."""
        x = grid.nodes
        return np.asarray(self.d_dx(x[rows, None], x[None, cols]), dtype=float)

    def _interp(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bilinear interpolation on the node lattice, clamped at the edges.

        Written in incremental form so flat tables interpolate (and
        difference) to exact values.
        """
        tbl = self._table
        nodes = self.grid.nodes
        ix, wx = _locate(nodes, x)
        iy, wy = _locate(nodes, y)
        v00 = tbl[ix, iy]
        v01 = tbl[ix, iy + 1]
        v10 = tbl[ix + 1, iy]
        v11 = tbl[ix + 1, iy + 1]
        out = (v00 + wx * (v10 - v00) + wy * (v01 - v00)
               + wx * wy * (v11 - v10 - v01 + v00))
        return out if out.ndim else float(out)


def _locate(nodes: np.ndarray, q: np.ndarray):
    """Cell index and interpolation weight for query points, edge-clamped."""
    q = np.clip(q, nodes[0], nodes[-1])
    idx = np.clip(np.searchsorted(nodes, q) - 1, 0, len(nodes) - 2)
    w = (q - nodes[idx]) * len(nodes)  # node spacing is 1/n
    return idx, np.clip(w, 0.0, 1.0)


class _Runs(NamedTuple):
    """A kernel as its canonical row runs (see :func:`row_runs`), local ids:
    run ``p`` holds ``values[p]`` in columns ``cols[p]`` to ``lasts[p]``
    (inclusive), and the runs of row ``r`` are ``starts[r]`` to
    ``starts[r + 1]``."""

    starts: np.ndarray
    cols: np.ndarray
    lasts: np.ndarray
    values: np.ndarray


def _canonical_runs(rows, cols, lasts, values, m: int) -> _Runs:
    """The canonical runs of an ``m``-row kernel given as runs ``(rows,
    cols, lasts, values)`` in row-major order that do not overlap: zero runs
    are dropped and runs of equal values that touch within a row are
    merged, so each run is maximal."""
    nonzero = values != 0
    rows, cols, lasts, values = rows[nonzero], cols[nonzero], lasts[nonzero], values[nonzero]
    # a run is kept as the head of a merged one unless it continues the one before
    head = np.ones(len(values), dtype=bool)
    head[1:] = ((rows[1:] != rows[:-1]) | (cols[1:] != lasts[:-1] + 1)
                | (values[1:] != values[:-1]))
    heads = np.flatnonzero(head)
    ends = np.append(heads[1:], len(values))[:len(heads)] - 1
    runs = _Runs(starts=np.searchsorted(rows[heads], np.arange(m + 1)), cols=cols[heads],
                 lasts=lasts[ends], values=values[heads])
    for array in runs:
        array.setflags(write=False)
    return runs


@dataclass(frozen=True, eq=False, init=False)
class Platform:
    """A menu of search distributions plus flow payments on a type grid.

    Types below ``cutoff`` are excluded: they never search and are never met.
    The kernel is indexed by included nodes only and each row is the partner
    distribution of that node.  Inclusion is an upper set by construction;
    arbitrary exclusion masks are not representable here on purpose (the
    brute-force oracle in the verifier relabels the nodes of each mask so
    that the mask is the top of the grid).

    The kernel is stored as its canonical row runs, the maximal runs of
    equal nonzero entries within a row, in row-major order
    (:attr:`runs`, the layout of ``platform.csv``), with an index of where
    each row's runs start.  The glitched kernel of the benchmark holds
    2,998 runs at m = 1000 (about 80 KB), where the dense matrix holds
    8 MB; a kernel with no two equal neighbours costs 24 bytes an entry,
    against 8 dense.  A diagonal kernel (every nonzero entry on the
    diagonal; with rows summing to one, the identity kernel of the
    assortative platform) is one run per row.  The constructor checks each
    row's sum on the runs, as the sum of each run's value times its length.
    Dense kernel entries are read a block at a time through
    :meth:`kernel_block`, which has the bits of the dense block, so no layer
    holds the m-by-m kernel.

    ``kernel`` is the dense ``(m, m)`` matrix or the length-m diagonal; the
    constructor converts either one to runs and leaves the caller's array
    as it is.  It marks the float64 ``transfers`` array it is given
    read-only, without a copy; other input is converted to a new float64
    array.
    """

    grid: TypeGrid
    cutoff: int
    transfers: np.ndarray
    _runs: _Runs = field(repr=False)
    _diagonal: bool = field(repr=False)

    def __init__(self, grid: TypeGrid, cutoff: int, kernel, transfers):
        n = grid.n
        if not 0 <= cutoff <= n - 1:
            raise ValueError(f"cutoff must leave at least one included node, got {cutoff}")
        m = n - cutoff
        if isinstance(kernel, _Runs):  # canonical already (glitch, load_platform)
            runs = kernel
        else:
            kernel = np.asarray(kernel, dtype=float)
            if kernel.shape == (m,):  # one run per row, on the diagonal
                own = np.arange(m)
                runs = _canonical_runs(own, own, own, kernel, m)
            elif kernel.shape == (m, m):
                runs = _canonical_runs(*row_runs(kernel), m)
            else:
                raise ValueError(f"kernel shape {kernel.shape} does not match {m} included nodes")
        rows = np.repeat(np.arange(m), np.diff(runs.starts))
        diagonal = bool(np.array_equal(rows, runs.cols) and np.array_equal(runs.cols, runs.lasts))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_diagonal", diagonal)
        # zero entries are no runs: the checks on the values cover every entry
        if not np.all(np.isfinite(runs.values)):
            raise ValueError("kernel entries must be finite")
        if np.any(runs.values < 0):
            raise ValueError("kernel entries must be nonnegative")
        # a row sums its runs' values times their lengths, and a row with none to 0
        row_sums = np.bincount(rows, weights=runs.values * (runs.lasts - runs.cols + 1),
                               minlength=m)
        row_err = float(np.max(np.abs(row_sums - 1.0)))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"kernel rows must sum to 1 (max deviation {row_err:g})")
        transfers = np.asarray(transfers, dtype=float)
        if transfers.shape != (n,):
            raise ValueError(f"transfers must have length {n}")
        if not np.all(np.isfinite(transfers)):
            raise ValueError("transfers must be finite")
        if np.any(transfers[:cutoff] != 0.0):
            raise ValueError("transfers must be zero on excluded nodes")
        transfers.setflags(write=False)
        object.__setattr__(self, "transfers", transfers)

    @property
    def is_diagonal(self) -> bool:
        """Every nonzero kernel entry sits on the diagonal: each node meets
        only its own type (with rows summing to one, the identity kernel).
        Every run of such a kernel is one diagonal entry, so its run values
        are the diagonal."""
        return self._diagonal

    @property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, j_last, value)`` of every run, local ids, as
        :func:`row_runs` finds them in the dense kernel."""
        runs = self._runs
        rows = np.repeat(np.arange(len(runs.starts) - 1), np.diff(runs.starts))
        return rows, runs.cols, runs.lasts, runs.values

    def kernel_block(self, rows: slice, cols: slice = slice(None), mask: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
        """The block ``G[rows, cols]`` of the dense kernel ``G``, or with a
        bool ``mask`` of the block's shape the product ``G[rows, cols] *
        mask``, with the bits of that expression: each entry of ``G`` is a
        run's value or +0.0.  The block is written into ``out`` when given,
        else into a fresh array, which is returned.  Both slices must have
        unit step; any other step raises ValueError.

        In the block's row-major order the entries are segments: a zero gap
        before each run, the run, and a last zero gap.  The block is filled
        with the value of its longest segment, and the segments of any other
        value are written over it: on the glitched kernel one entry a row.
        """
        starts, firsts, lasts, values = self._runs
        m = len(starts) - 1
        r0, r1, row_step = rows.indices(m)
        c0, c1, col_step = cols.indices(m)
        if row_step != 1 or col_step != 1:
            raise ValueError(f"kernel_block reads unit-step slices, got rows step {row_step}, "
                             f"cols step {col_step}")
        height, width = max(r1 - r0, 0), max(c1 - c0, 0)
        lo, hi = starts[r0], starts[r0 + height]
        # each run's row, as the flat offset of its first column in the block
        offset = np.repeat(np.arange(height) * width, np.diff(starts[r0:r0 + height + 1]))
        firsts, lasts, values = firsts[lo:hi], lasts[lo:hi], values[lo:hi]
        if c0 or c1 < m:  # clip the runs to the block's columns, dropping those outside
            firsts, lasts = np.maximum(firsts, c0), np.minimum(lasts, c1 - 1)
            inside = firsts <= lasts
            offset, firsts, lasts, values = offset[inside], firsts[inside], lasts[inside], values[inside]
        # segment s covers the flat entries ends[s] to ends[s + 1]
        ends = np.empty(2 * len(values) + 2, dtype=np.int64)
        ends[0], ends[-1] = 0, height * width
        ends[1:-1:2] = offset + (firsts - c0)
        ends[2:-1:2] = offset + (lasts - c0) + 1
        segments = np.zeros(2 * len(values) + 1)
        segments[1::2] = values
        lengths = np.diff(ends)
        block = np.empty((height, width)) if out is None else out
        fill = segments[np.argmax(lengths)]
        other = segments != fill
        if mask is None:
            block.fill(fill)
        else:
            np.multiply(mask, fill, out=block)
        # the flat positions of the other segments' entries, and their values
        lengths = lengths[other]
        at = np.arange(lengths.sum()) + np.repeat(ends[:-1][other] - np.cumsum(lengths) + lengths,
                                                  lengths)
        at = np.divmod(at, max(width, 1))
        patch = np.repeat(segments[other], lengths)
        block[at] = patch if mask is None else patch * mask[at]
        return block

    def consistency_defect(self) -> float:
        """Max asymmetry of the kernel; zero means meetings balance exactly."""
        if self._diagonal:
            return 0.0  # a diagonal matrix is symmetric
        m = len(self._runs.starts) - 1
        # square tiles of _BLOCK_BYTES, each pair compared once from the upper
        # triangle: |a - b| is |b - a| exactly, so the max keeps its bits
        tiles = _slices(m, max(1, math.isqrt(_BLOCK_BYTES // 8)))
        defect = 0.0
        for at, rows in enumerate(tiles):
            for cols in tiles[at:]:
                diff = self.kernel_block(rows, cols)
                diff -= self.kernel_block(cols, rows).T
                defect = max(defect, float(np.max(np.abs(diff, out=diff))))
                del diff  # before the next tile is expanded
        return defect

    def require_consistent(self) -> None:
        """Raise ValueError unless the kernel asymmetry is at most
        ``CONSISTENCY_TOL``: meetings only balance on a symmetric kernel."""
        defect = self.consistency_defect()
        if defect > CONSISTENCY_TOL:
            raise ValueError(
                f"platform is not consistent (defect {defect:g}); "
                "the meeting process is only well-defined for symmetric kernels")


@dataclass(frozen=True, eq=False)
class DSEState:
    """Equilibrium state: wages, unmatched densities, acceptance sets.

    ``w`` and ``u`` cover every node (zero wage / density one on excluded
    nodes).  ``M[i, j]`` is True exactly when the pair covers both
    reservation wages, the rule :func:`acceptance` spells out.  Residual
    fields certify how tightly the state satisfies the defining fixed-point
    conditions; ``iterations`` counts the solver's policy steps and sweeps
    that led to the state and ``steady_state_solves`` every linear
    steady-state solve of the call, both 0 for the closed form of a diagonal
    kernel (see :func:`~matchlab.solver.solve_dse`).  ``lu_fallbacks`` counts
    the linear solves of policy steps that conjugate gradients handed to the
    dense LU.  The constructor marks the ``w``, ``u`` and ``M`` arrays it is
    given read-only, without a copy.
    """

    w: np.ndarray
    u: np.ndarray
    M: np.ndarray
    bellman_residual: float
    balance_residual: float
    iterations: int = 0
    steady_state_solves: int = 0
    lu_fallbacks: int = 0

    def __post_init__(self):
        for name in ("w", "u", "M"):
            getattr(self, name).setflags(write=False)


#: Bytes of float temporaries a row-blocked pass over an n-by-n array holds
#: at a time (see :func:`_row_blocks` and :func:`_byte_row_blocks`), and of
#: each square tile of ``Platform.consistency_defect``: an eighth of one
#: n-by-n array at n = 1000, and a block stays in a core's cache.
_BLOCK_BYTES = 1 << 20


def _slices(stop: int, step: int, cutoff: int = 0) -> list[slice]:
    """Consecutive slices of ``step`` indices covering ``range(stop)``, the
    plan of every blocked pass: the indices below ``cutoff`` and those from
    it on never share a slice, so the last slice on each side may be
    shorter."""
    return [slice(lo, min(lo + step, end)) for begin, end in ((0, cutoff), (cutoff, stop))
            for lo in range(begin, end, step)]


def _row_blocks(nrows: int, ncols: int, cutoff: int = 0) -> list[slice]:
    """Consecutive slices covering ``range(nrows)``, each of as many rows of
    ``ncols`` floats as fit ``_BLOCK_BYTES``, and at least one; the rows
    below ``cutoff`` and those from it on never share a slice."""
    return _slices(nrows, max(1, _BLOCK_BYTES // (8 * max(ncols, 1))), cutoff)


def _byte_row_blocks(m: int, block_bytes: int) -> list[slice]:
    """Consecutive slices covering ``range(m)``, each of as many rows of
    ``m`` floats as fit ``block_bytes``, rounded down to a multiple of 8
    rows, and at least 8: over an m-by-m bool array, each slice's rows are
    whole bytes of its ``np.packbits`` bytes (the last slice's, the rest)."""
    return _slices(m, 8 * max(1, block_bytes // (64 * max(m, 1))))


def _masked_kernel(platform: Platform, packed: bytes, out: np.ndarray | None = None) -> np.ndarray:
    """The acceptance-masked kernel ``A = G o M`` of ``platform`` as the
    m-by-m matrix, given the ``np.packbits`` bytes ``packed`` of the
    acceptance sets ``M`` of its included nodes, built into ``out`` when
    given, a row block of ``G`` at a time (:meth:`Platform.kernel_block`)
    from a block of the bytes unpacked at a time, so neither the dense
    kernel nor ``M`` is held.  ``G >= 0``, so every pair off the sets holds
    +0.0."""
    m = platform.grid.n - platform.cutoff
    A = np.empty((m, m)) if out is None else out
    bits = np.frombuffer(packed, np.uint8)
    for rows in _byte_row_blocks(m, _BLOCK_BYTES):
        platform.kernel_block(rows, mask=_unpacked_rows(bits, rows, m), out=A[rows])
    return A


def _unpacked_rows(bits: np.ndarray, rows: slice, m: int) -> np.ndarray:
    """The rows ``rows`` of an m-by-m bool array given as its
    ``np.packbits`` bytes ``bits``, for a block of rows whose flags start on
    a whole byte (a slice of :func:`_byte_row_blocks`)."""
    lo, hi = rows.start * m, rows.stop * m
    return np.unpackbits(bits[lo // 8:-(-hi // 8)], count=hi - lo).view(bool).reshape(-1, m)


def _packed_flags(bits: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The flags at the row-major positions ``flat`` of a bool array given
    as its ``np.packbits`` bytes ``bits``, read without unpacking."""
    return (bits[flat >> 3] >> (7 - (flat & 7)).astype(np.uint8) & 1).view(bool)


#: The policy loop's products with a masked kernel come from runs (see
#: :class:`_MaskedKernel`) while the entries they gather, the deviation
#: entries of the kernel in the acceptance set and the set's row runs,
#: number at most m² over this.  Measured on 2-core Xeon over one policy
#: step (about 25 products and one ``(A o F) u``), the run form and the
#: dense one cost the same near m²/20 gathers at m = 400 and m²/5 at
#: m = 1000 (one product alone: near m²/30 at m = 1000); at m²/16 the run
#: form's arrays take about half an m-by-m float array.
_RUN_FORM_SHARE = 16


class _KernelSplit(NamedTuple):
    """A kernel's rows as a background value plus deviation entries (see
    :func:`_kernel_split`), local ids: row ``r`` is ``background[r]``
    except in the entries ``(rows[p], cols[p])``, in row-major order, which
    exceed it by ``excess[p]``; ``diagonal`` is the kernel's diagonal."""

    background: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    excess: np.ndarray
    diagonal: np.ndarray


def _run_segments(rows: np.ndarray, cols: np.ndarray, lasts: np.ndarray,
                  width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(firsts, lasts)``, each of shape ``(len(rows), 3)``, of the
    segments of the rows of a kernel of ``width`` columns given as runs
    ``(rows, cols, lasts)`` in row-major order, every row holding one at
    least: each run with the zero gap before it and, after a row's last
    run, the gap to the row's end, as inclusive (gap, run, gap) segments;
    an empty gap ends before it starts."""
    row_start = np.append(True, rows[1:] != rows[:-1])
    row_end = np.append(rows[1:] != rows[:-1], True)
    firsts = np.stack((np.where(row_start, 0, np.roll(lasts, 1) + 1), cols, lasts + 1), axis=1)
    ends = np.stack((cols - 1, lasts, np.where(row_end, width - 1, lasts)), axis=1)
    return firsts, ends


def _kernel_split(platform: Platform) -> _KernelSplit | None:
    """The kernel of ``platform`` with each row split into a background
    value, the value of most of its entries (a zero gap counts as a segment
    of zeros), and deviation entries, those of any other value: on a
    glitched kernel the background is the gap value and the diagonal the one
    deviation a row, and on a diagonal kernel of more than one node the
    background is 0 and the diagonal again the one deviation.  None when
    the deviation entries number more than m² over ``_RUN_FORM_SHARE``; the
    kernel is then not split at all once its runs alone imply as much,
    since a row of ``r`` runs deviates in at least ``(r - 1) / 2`` entries
    whatever its background."""
    starts, cols, lasts, values = platform._runs
    m = len(starts) - 1
    limit = m * m // _RUN_FORM_SHARE
    if len(values) - m > 2 * limit:
        return None
    rows = np.repeat(np.arange(m), np.diff(starts))
    # each row sums to one, so it holds a run; segments as [los, his)
    los, his = _run_segments(rows, cols, lasts, m)
    los, his = los.ravel(), his.ravel() + 1
    segment_values = np.stack((np.zeros(len(values)), values, np.zeros(len(values))), axis=1).ravel()
    segment_rows = np.repeat(rows, 3)
    # the entries of each value in each row, and the most of them per row
    order = np.lexsort((segment_values, segment_rows))
    by_row, by_value = segment_rows[order], segment_values[order]
    heads = np.flatnonzero(np.append(True, (by_row[1:] != by_row[:-1])
                                     | (by_value[1:] != by_value[:-1])))
    totals = np.add.reduceat((his - los)[order], heads)
    best = np.lexsort((-totals, by_row[heads]))
    best = best[np.searchsorted(by_row[heads][best], np.arange(m))]
    if m * m - int(totals[best].sum()) > limit:
        return None
    background = by_value[heads][best]
    on_diagonal = (los <= segment_rows) & (segment_rows < his)
    diagonal = np.zeros(m)
    diagonal[segment_rows[on_diagonal]] = segment_values[on_diagonal]
    deviates = (segment_values != background[segment_rows]) & (his > los)
    lengths = (his - los)[deviates]
    firsts = np.repeat(los[deviates] - (np.cumsum(lengths) - lengths), lengths)
    dev_rows = segment_rows[deviates]
    return _KernelSplit(
        background=background, rows=np.repeat(dev_rows, lengths),
        cols=np.arange(len(firsts)) + firsts,
        excess=np.repeat(segment_values[deviates] - background[dev_rows], lengths),
        diagonal=diagonal)


def _packed_runs(bits: np.ndarray, m: int, limit: int) -> tuple | None:
    """``(rows, starts, stops)`` of the row runs of set flags, stops
    exclusive and in row-major order, of an m-by-m bool array given as its
    ``np.packbits`` bytes, which are unpacked a block of rows at a time
    (:func:`_byte_row_blocks`); None once they number more than ``limit``."""
    found, count = [], 0
    for rows in _byte_row_blocks(m, _BLOCK_BYTES):
        # the flags that differ from the one before them, a clear flag
        # before and after each row: a run's start and the entry after its
        # end, alternating in each row (flat, which np.flatnonzero finds
        # far faster than np.nonzero finds rows and columns)
        edges = np.diff(_unpacked_rows(bits, rows, m), axis=1, prepend=False, append=False)
        at_row, at_col = np.divmod(np.flatnonzero(edges), m + 1)
        count += len(at_row) // 2
        if count > limit:
            return None
        found.append((at_row[::2] + rows.start, at_col[::2], at_col[1::2]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


class _MaskedKernel:
    """The acceptance-masked kernel ``A = G o M`` of ``platform``, given
    the ``np.packbits`` bytes ``packed`` of the acceptance sets ``M`` of its
    included nodes: ``A @ v``, :meth:`diagonal`, :meth:`output_product`
    ``(A o T) u`` and :meth:`dense`, the m-by-m matrix for a dense LU.  The
    one holder of ``A`` for the policy loop, the residuals and the
    misreport slope.

    Given the kernel's :func:`_kernel_split`, and while the entries its
    products gather number at most m² over ``_RUN_FORM_SHARE``, ``A`` is
    held as runs, and no m-by-m array: ``A v`` is the background times the
    sums of ``v`` over ``M``'s row runs, differences of one cumulative sum,
    plus the deviation entries in ``M``, each gathered as a product.  A
    deviation is not summed by differences: its weight against the
    background would carry the cumulative sum's rounding into the product.
    Otherwise ``A`` is the dense matrix (:func:`_masked_kernel`), built into
    ``out`` when given, and every product is a BLAS product; ``held`` is
    that matrix, None for runs."""

    def __init__(self, platform: Platform, packed: bytes, split: _KernelSplit | None,
                 out: np.ndarray | None = None):
        self._platform, self._packed = platform, packed
        m = platform.grid.n - platform.cutoff
        bits = np.frombuffer(packed, np.uint8)
        self.held = runs = None
        if split is not None:
            inside = _packed_flags(bits, split.rows * m + split.cols)
            runs = _packed_runs(bits, m, m * m // _RUN_FORM_SHARE - int(np.count_nonzero(inside)))
        if runs is None:
            self.held = _masked_kernel(platform, packed, out=out)
            return
        self._rows, self._starts, self._stops = runs
        self._background = split.background
        self._dev_rows, self._dev_cols = split.rows[inside], split.cols[inside]
        self._excess = split.excess[inside]
        self._diagonal = split.diagonal * _packed_flags(bits, np.arange(m) * (m + 1))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``A v``."""
        if self.held is not None:
            return self.held @ v
        m = len(v)
        sums = np.empty(m + 1)
        sums[0] = 0.0
        np.cumsum(v, out=sums[1:])
        on_runs = np.bincount(self._rows, sums[self._stops] - sums[self._starts], minlength=m)
        return (self._background * on_runs
                + np.bincount(self._dev_rows, self._excess * v[self._dev_cols], minlength=m))

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``A``, with its bits."""
        return np.diagonal(self.held) if self.held is not None else self._diagonal

    def dense(self) -> np.ndarray:
        """``A`` as the m-by-m matrix: ``held``, or else built now."""
        return self.held if self.held is not None else _masked_kernel(self._platform, self._packed)

    def output_product(self, table: Callable[[slice], np.ndarray], u: np.ndarray) -> np.ndarray:
        """``(A o T) u`` for a table ``T`` of the included block, such as
        the output table, given as ``table(rows)``, the rows ``rows`` of
        ``T`` (every column), which is called once for each block of rows
        in turn: in the held matrix, multiplied a block at a time and then
        rebuilt, or a block of rows at a time in one block buffer."""
        platform, packed = self._platform, self._packed
        m = len(u)
        blocks = _byte_row_blocks(m, _BLOCK_BYTES)
        if self.held is not None:
            A = self.held
            for rows in blocks:
                A[rows] *= table(rows)
            product = A @ u
            _masked_kernel(platform, packed, out=A)  # A again, bit for bit
            return product
        bits = np.frombuffer(packed, np.uint8)
        buffer = np.empty((blocks[0].stop, m))
        product = np.empty(m)
        for rows in blocks:
            block = platform.kernel_block(rows, mask=_unpacked_rows(bits, rows, m),
                                          out=buffer[:rows.stop - rows.start])
            block *= table(rows)
            product[rows] = block @ u
        return product


def _accepts(F: np.ndarray, w: np.ndarray, rows: slice, out: np.ndarray | None = None,
             overwrite: bool = False) -> np.ndarray:
    """The acceptance rule on the rows ``rows`` of the output table, which
    ``F`` holds (every column): ``(F - w[rows, None]) - w[None, :] >= 0``.
    With ``overwrite`` the surplus is built in ``F`` itself."""
    net = np.subtract(F, w[rows, None], out=F if overwrite else None)
    net -= w[None, :]
    return np.greater_equal(net, 0.0, out=out)


def _packed_acceptance(F: np.ndarray, w: np.ndarray) -> bytes:
    """``np.packbits(acceptance(F, w)).tobytes()`` for a square output table
    ``F`` held whole, without the m-by-m bool array: the rule
    (:func:`_accepts`) runs on blocks of a multiple of 8 rows, whose packed
    bits are whole bytes of the set's, and each block's surplus takes about
    an eighth of ``_BLOCK_BYTES`` (8 rows at least)."""
    return b"".join(np.packbits(_accepts(F[rows], w, rows)).tobytes()
                    for rows in _byte_row_blocks(len(w), _BLOCK_BYTES // 8))


def acceptance(F, w: np.ndarray, grid: TypeGrid | None = None,
               held: np.ndarray | None = None) -> np.ndarray:
    """The acceptance sets at wages ``w``: pair ``(i, j)`` matches exactly
    when its output ``F[i, j]`` covers both reservation wages,
    ``F[i, j] - w[i] - w[j] >= 0``; a pair with zero surplus accepts.

    ``F`` is the n-by-n output table, or the :class:`ProductionFunction`
    whose table on ``grid`` it is.  Then each row block of the table is
    evaluated on its own, except that ``held``, when given, holds the
    table's included block already (rows and columns from
    ``n - len(held)`` on), whose entries are taken from it.  The surplus is
    built a row block at a time (:func:`_row_blocks`), so no n-by-n float
    array is held; the bits are those of the one-shot
    ``(F - w[:, None]) - w[None, :] >= 0``."""
    n = len(w)
    k = n if held is None else n - len(held)
    accept = np.empty((n, n), dtype=bool)
    for rows in _row_blocks(n, n, k):
        if grid is None:
            block = F[rows]
        elif rows.start < k:
            block = F.values(grid, rows)
        else:
            block = held[rows.start - k:rows.stop - k]
            if k:
                block = np.concatenate((F.values(grid, rows, slice(0, k)), block), axis=1)
        # a block of the held table is read, not written; an evaluated one
        # is freed before the next is evaluated
        _accepts(block, w, rows, out=accept[rows], overwrite=block.base is None)
        del block
    return accept


# ---------------------------------------------------------------------------
# Platform serialization
#
# platform.csv   header i,j,j_last,G  one row per maximal run of equal nonzero entries within
#                                     a kernel row (see row_runs): G[i, j..j_last] = G
#                                     (inclusive, global ids), runs in row-major order; zero
#                                     runs are omitted
# transfers.csv  header i,t           one row per node, nodes 0..n-1 in order
# manifest.txt   key=value lines      n, cutoff, f.kind, f.c
# table.csv      header i,j,f         only for tabulated production, every entry, row-major
# ---------------------------------------------------------------------------

#: Lines ``write_columns`` builds and writes at a time.
_BLOCK_ROWS = 1 << 16
#: ``platform.csv`` header: the run layout ``save_platform`` writes.
_RUN_HEADER = "i,j,j_last,G"


def row_runs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, j_last, value)`` of every maximal run of equal nonzero entries
    within a row of the 2-d ``matrix``: ``matrix[i, j..j_last] == value``,
    ``j_last`` inclusive, runs in row-major order.

    ``platform.csv`` stores a kernel in this layout, and ``acceptance.csv``
    the acceptance sets, whose runs are all of accepted pairs.
    """
    width = matrix.shape[1]
    # a run starts at each row's first entry and wherever an entry differs from
    # its left neighbour, and ends just before the next run starts
    head = np.ones(matrix.shape, dtype=bool)
    np.not_equal(matrix[:, 1:], matrix[:, :-1], out=head[:, 1:])
    starts = np.flatnonzero(head)
    lasts = np.append(starts[1:], head.size) - 1
    values = matrix.reshape(-1)[starts]
    nonzero = values != 0
    rows, cols = np.divmod(starts[nonzero], width)
    return rows, cols, lasts[nonzero] % width, values[nonzero]


def save_platform(platform: Platform, production: ProductionFunction, outdir: str) -> None:
    """Write a platform and its production function as CSV artifacts."""
    os.makedirs(outdir, exist_ok=True)
    n, k = platform.grid.n, platform.cutoff
    rows, cols, lasts, values = platform.runs
    write_columns(os.path.join(outdir, "platform.csv"), _RUN_HEADER,
                  [rows + k, cols + k, lasts + k, values])
    write_columns(os.path.join(outdir, "transfers.csv"), "i,t",
                  [np.arange(n), platform.transfers])

    manifest = [f"n={n}", f"cutoff={k}", f"f.kind={production.kind}",
                f"f.c={format_float(production.c)}"]
    write_lines(os.path.join(outdir, "manifest.txt"), manifest)

    if production.kind == "table":
        rows, cols = np.indices((n, n)).reshape(2, -1)
        write_columns(os.path.join(outdir, "table.csv"), "i,j,f",
                      [rows, cols, production._table.ravel()])


def load_platform(outdir: str) -> tuple[Platform, ProductionFunction]:
    """Rebuild a platform and production function from ``save_platform`` output.

    Raises ``ValueError`` naming the file when an artifact is malformed.
    """
    manifest_path = os.path.join(outdir, "manifest.txt")
    manifest = read_manifest(manifest_path)
    n = manifest_value(manifest, "n", manifest_path, int)
    k = manifest_value(manifest, "cutoff", manifest_path, int)
    kind = manifest_value(manifest, "f.kind", manifest_path, str)
    grid = make_grid(n)

    kernel = _load_kernel(os.path.join(outdir, "platform.csv"), k, n)

    [transfers] = read_node_columns(os.path.join(outdir, "transfers.csv"), 2, n)

    if kind == "xy":
        production = ProductionFunction.multiplicative()
    elif kind == "xy+c":
        production = ProductionFunction.multiplicative_plus_constant(
            manifest_value(manifest, "f.c", manifest_path))
    else:
        production = load_table(os.path.join(outdir, "table.csv"), grid)

    return Platform(grid=grid, cutoff=k, kernel=kernel, transfers=transfers), production


def _load_kernel(path: str, k: int, n: int) -> _Runs:
    """The canonical runs of the kernel on ``n - k`` included nodes that
    ``platform.csv`` at ``path`` holds: zero runs are dropped and equal
    runs that touch are merged, so a file whose runs are split re-saves to
    the maximal runs of its kernel."""
    with open(path, "rb") as fh:
        header = fh.readline().strip()
    if header != _RUN_HEADER.encode():
        raise ValueError(f"{path}: header must be {_RUN_HEADER}, "
                         f"found {header.decode('utf-8', 'replace')!r}")
    i, j, j_last, g = read_columns(path, 4, 3, k, n)
    if np.any(j_last < j):
        raise ValueError(f"{path}: a run ends before it starts (j_last < j)")
    m = n - k
    # flat row-major positions: run r covers [start[r], stop[r])
    start = (i - k) * m + (j - k)
    stop = start + (j_last - j) + 1
    if np.any(start[1:] < stop[:-1]):
        raise ValueError(f"{path}: runs must be in row-major order and must not overlap")
    return _canonical_runs(i - k, j - k, j_last - k, g, m)


def load_table(path: str, grid: TypeGrid) -> ProductionFunction:
    """Tabulated production from an ``i,j,f`` CSV on ``grid``.

    The rows must list every pair ``(i, j)`` once each, in row-major order.
    Raises ``ValueError`` naming ``path`` for a malformed file, or one with a
    pair missing, repeated or out of order.
    """
    n = grid.n
    i, j, f = read_columns(path, 3, 2, 0, n)
    if not np.array_equal(i * n + j, np.arange(n * n)):
        raise ValueError(f"{path}: rows must list every pair (i, j) of the nodes "
                         f"0 to {n - 1} once each, in row-major order")
    return ProductionFunction.tabulated(grid, f.reshape(n, n))


def read_manifest(path: str) -> dict:
    """Parse a key=value manifest, ignoring blank lines and # comments."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def manifest_value(manifest: dict, key: str, path: str, parse=float):
    """``parse(manifest[key])``, where ``manifest`` was read from ``path``.

    Raises ``ValueError`` naming ``path`` and ``key`` when the key is missing
    or its value does not parse.
    """
    if key not in manifest:
        raise ValueError(f"{path}: missing key {key!r}")
    try:
        return parse(manifest[key])
    except ValueError:
        expected = "an integer" if parse is int else "a number"
        raise ValueError(f"{path}: key {key!r} must be {expected}, got {manifest[key]!r}") from None


def read_columns(path: str, ncols: int, nindex: int, lo: int, hi: int) -> list[np.ndarray]:
    """The columns of a CSV artifact with one header line.

    The first ``nindex`` columns are node indices: each must be an integer in
    ``[lo, hi)`` and comes back as int64.  The other columns come back as
    float64, parsed with correct rounding: the shortest round-trip text of
    ``format_float`` reads back bit for bit, as does the 17-significant-digit
    text that older artifacts hold.
    Raises ``ValueError`` naming ``path`` for a malformed file.
    """
    try:
        with warnings.catch_warnings():
            # a header-only file is a table with no rows, not a problem
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.size == 0:
        data = data.reshape(0, ncols)
    if data.shape[1] != ncols:
        raise ValueError(f"{path}: expected {ncols} columns per row, found {data.shape[1]}")
    index = data[:, :nindex]
    if not np.all((index == np.trunc(index)) & (index >= lo) & (index < hi)):
        raise ValueError(f"{path}: node indices must be integers in [{lo}, {hi})")
    return [*index.T.astype(np.int64), *data[:, nindex:].T]


def read_node_columns(path: str, ncols: int, n: int) -> list[np.ndarray]:
    """The value columns of a CSV artifact with one row per node, such as
    ``transfers.csv`` and ``dse.csv``, each as a contiguous float64 array.

    The first column must list the nodes ``0..n-1`` once each, in order.
    Raises ``ValueError`` naming ``path`` for a malformed file, or one with a
    node missing, repeated or out of order.
    """
    index, *values = read_columns(path, ncols, 1, 0, n)
    if not np.array_equal(index, np.arange(n)):
        raise ValueError(f"{path}: rows must list the nodes 0 to {n - 1} once each, in order")
    return [np.ascontiguousarray(column) for column in values]


def write_lines(path: str, lines: list[str]) -> None:
    """Write ``lines`` with LF endings on every platform, so artifacts are byte-reproducible."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_columns(path: str, header: str, columns) -> None:
    """Write ``header``, then line ``r`` joining entry ``r`` of every column with commas.

    Integer columns are written with ``str``, float columns with
    ``format_float`` (the shortest text that reads back to the same bits)
    and string columns as they are, in UTF-8 like the header, so the bytes
    equal those of formatting each line by hand.

    Each distinct entry is formatted once, into a glyph: its bytes, padded
    with NULs to the width of the column's longest entry.  Lines are then
    assembled ``_BLOCK_ROWS`` at a time as bytes: numpy gathers every
    column's glyphs into one ``(rows, line width)`` uint8 array, whose
    separator bytes (a comma after each column, a newline after the last)
    are set once, and drops the padding.  So besides the glyph tables, one
    block of ``_BLOCK_ROWS`` padded lines sits in memory, never the whole
    file.  A string entry that holds a NUL would lose it with the padding,
    so it raises ``ValueError``.
    """
    tables = [_distinct_text(np.asarray(column), path) for column in columns]
    nrows = len(tables[0][1])
    if any(len(index) != nrows for _, index in tables):
        raise ValueError(f"{path}: columns differ in length")
    # a column's glyphs fill bytes [stop - width, stop) of a line, its separator byte stop
    stops = np.cumsum([glyphs.itemsize + 1 for glyphs, _ in tables]) - 1
    lines = np.full((min(nrows, _BLOCK_ROWS), stops[-1] + 1), ord(","), dtype=np.uint8)
    lines[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for start in range(0, nrows, _BLOCK_ROWS):
            block = lines[:min(_BLOCK_ROWS, nrows - start)]
            for (glyphs, index), stop in zip(tables, stops):
                picked = glyphs[index[start:start + len(block)]]
                block[:, stop - glyphs.itemsize:stop] = picked.view(np.uint8).reshape(len(block), -1)
            fh.write(block[block != 0].tobytes())


def _distinct_text(column: np.ndarray, path: str) -> tuple[np.ndarray, np.ndarray]:
    """(glyph of each distinct entry: its NUL-padded UTF-8 bytes,
    position of every entry in those glyphs)."""
    if column.dtype.kind == "i" and column.size:
        # ids and indices span short ranges: label the range from zero (or
        # a negative minimum), so nonnegative ids index it without a copy
        lo, hi = min(int(column.min()), 0), int(column.max())
        if hi - lo <= column.size:
            text = [str(v) for v in range(lo, hi + 1)]
            return np.array(text, dtype="S"), column - lo if lo else column
    if column.dtype.kind == "f":
        # distinct by bit pattern, so -0.0 keeps its own "-0"
        bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64).reshape(-1)
        bits, index = np.unique(bits, return_inverse=True)
        text = [format_float(v) for v in bits.view(np.float64)]
    elif column.dtype.kind in "iu":
        values, index = np.unique(column, return_inverse=True)
        text = [str(v) for v in values.tolist()]
    elif column.dtype.kind == "U":
        values, index = np.unique(column, return_inverse=True)
        text = [v.encode("utf-8") for v in values.tolist()]
        if any(b"\0" in v for v in text):
            raise ValueError(f"{path}: a string entry holds a NUL byte")
    else:
        raise TypeError(f"cannot write a column of dtype {column.dtype}")
    # numbers format to ASCII, which an S array encodes itself
    return np.array(text, dtype="S"), index.reshape(-1)


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, tasks, jobs: int) -> list:
    """``[fn(*task) for task in tasks]`` on up to ``jobs`` worker processes.

    Results come back in the order of ``tasks``, whatever order the workers
    finish in, and a worker's exception is raised here.  With one worker or
    one task everything runs in this process.  ``fn`` and every task must
    pickle.
    """
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]
