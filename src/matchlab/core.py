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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatchlabError",
    "NonConvergenceError",
    "EmptyMarketError",
    "SearchParams",
    "TypeGrid",
    "make_grid",
    "ProductionFunction",
    "Platform",
    "DSEState",
    "GlitchSpec",
    "surplus",
    "acceptance",
    "save_platform",
    "load_platform",
    "load_table",
    "format_float",
    "write_lines",
    "write_columns",
    "read_columns",
    "available_cpus",
    "ordered_map",
]

#: Row sums of a kernel must match 1 this tightly.
ROW_SUM_TOL = 1e-12
#: A platform counts as consistent when max |G - G^T| stays below this.
CONSISTENCY_TOL = 1e-10
#: Tabulated production values must be symmetric this tightly.
SYMMETRY_TOL = 1e-12


class MatchlabError(Exception):
    """Base class for package-specific failures."""


class NonConvergenceError(MatchlabError):
    """Fixed-point iteration stopped without an equilibrium.

    Carries the last residuals and the sweep count so callers can report how
    close the run got.  When the solve stopped because its acceptance sets
    repeat, ``period`` is the number of sweeps after which they repeat (1 for
    a fixed set under which the update does not contract) and
    ``flipping_pairs`` lists the pairs ``(i, j)``, ``i <= j``, whose
    acceptance flag changed at the last flip; otherwise they are 0 and
    empty.  Instances survive ``pickle``, so a worker process can report
    them.
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


class EmptyMarketError(MatchlabError):
    """Raised when an operation needs at least one included type."""


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


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
    consistency condition equivalent to kernel symmetry.
    """

    n: int
    nodes: np.ndarray
    mass: float

    def __post_init__(self):
        self.nodes.setflags(write=False)

    def __len__(self) -> int:
        return self.n


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
    plus a constant ``c >= 0``), both with analytic partial derivatives.
    ``"table"`` wraps an ``n x n`` value matrix on a grid; evaluation uses
    bilinear interpolation and the derivative a central difference with step
    ``1 / (4 n)`` unless an explicit derivative table is supplied.
    """

    def __init__(self, kind: str, c: float = 0.0, grid: TypeGrid | None = None,
                 table: np.ndarray | None = None, dx_table: np.ndarray | None = None):
        if kind not in ("xy", "xy+c", "table"):
            raise ValueError(f"unknown production kind {kind!r}")
        if kind == "xy+c" and c < 0:
            raise ValueError(f"constant term must be nonnegative, got {c}")
        self.kind = kind
        self.c = float(c) if kind == "xy+c" else 0.0
        self.grid = grid
        self._table = None
        self._dx_table = None
        if kind == "table":
            if grid is None or table is None:
                raise ValueError("tabulated production needs a grid and a value table")
            table = np.asarray(table, dtype=float)
            if table.shape != (grid.n, grid.n):
                raise ValueError(f"table shape {table.shape} does not match grid n={grid.n}")
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
            if dx_table is not None:
                dx_table = np.asarray(dx_table, dtype=float)
                if dx_table.shape != (grid.n, grid.n):
                    raise ValueError("derivative table shape does not match grid")
                dx_table = dx_table.copy()
                dx_table.setflags(write=False)
                self._dx_table = dx_table

    # -- constructors ------------------------------------------------------

    @classmethod
    def multiplicative(cls) -> "ProductionFunction":
        return cls("xy")

    @classmethod
    def multiplicative_plus_constant(cls, c: float) -> "ProductionFunction":
        return cls("xy+c", c=c)

    @classmethod
    def tabulated(cls, grid: TypeGrid, table: np.ndarray,
                  dx_table: np.ndarray | None = None) -> "ProductionFunction":
        return cls("table", grid=grid, table=table, dx_table=dx_table)

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
        if self._dx_table is not None:
            return self._interp(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                                table=self._dx_table)
        h = 1.0 / (4 * self.grid.n)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (self._interp(x + h, y) - self._interp(x - h, y)) / (2 * h)

    def values(self, grid: TypeGrid) -> np.ndarray:
        """Matrix of outputs at all node pairs of ``grid``."""
        x = grid.nodes
        return np.asarray(self.eval(x[:, None], x[None, :]), dtype=float)

    def dx_values(self, grid: TypeGrid) -> np.ndarray:
        """Matrix of first-argument derivatives at all node pairs of ``grid``."""
        x = grid.nodes
        return np.asarray(self.d_dx(x[:, None], x[None, :]), dtype=float)

    def _interp(self, x: np.ndarray, y: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
        """Bilinear interpolation on the node lattice, clamped at the edges.

        Written in incremental form so flat tables interpolate (and
        difference) to exact values.
        """
        tbl = self._table if table is None else table
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

    # -- diagnostics -------------------------------------------------------

    def is_strictly_supermodular(self, grid: TypeGrid) -> bool:
        """True when output gains from raising both types exceed the sum of
        single-type gains for every ordered quadruple of grid nodes.

        Checked through adjacent-cell second differences, which is equivalent
        to the full quadruple condition by telescoping.
        """
        F = self.values(grid)
        d2 = F[1:, 1:] - F[1:, :-1] - F[:-1, 1:] + F[:-1, :-1]
        return bool(np.all(d2 > 0))


def _locate(nodes: np.ndarray, q: np.ndarray):
    """Cell index and interpolation weight for query points, edge-clamped."""
    q = np.clip(q, nodes[0], nodes[-1])
    idx = np.clip(np.searchsorted(nodes, q) - 1, 0, len(nodes) - 2)
    w = (q - nodes[idx]) * len(nodes)  # node spacing is 1/n
    return idx, np.clip(w, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class Platform:
    """A menu of search distributions plus flow payments on a type grid.

    Types below ``cutoff`` are excluded: they never search and are never met.
    ``kernel`` is indexed by included nodes only and each row is the partner
    distribution of that node.  Inclusion is an upper set by construction;
    arbitrary exclusion masks are not representable here on purpose (the
    brute-force oracle in the verifier enumerates masks on its own path).
    """

    grid: TypeGrid
    cutoff: int
    kernel: np.ndarray
    transfers: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if not 0 <= self.cutoff <= n - 1:
            raise ValueError(f"cutoff must leave at least one included node, got {self.cutoff}")
        m = n - self.cutoff
        kernel = np.asarray(self.kernel, dtype=float)
        if kernel.shape != (m, m):
            raise ValueError(f"kernel shape {kernel.shape} does not match {m} included nodes")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel entries must be finite")
        if np.any(kernel < 0):
            raise ValueError("kernel entries must be nonnegative")
        row_err = float(np.max(np.abs(kernel.sum(axis=1) - 1.0)))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"kernel rows must sum to 1 (max deviation {row_err:g})")
        transfers = np.asarray(self.transfers, dtype=float)
        if transfers.shape != (n,):
            raise ValueError(f"transfers must have length {n}")
        if not np.all(np.isfinite(transfers)):
            raise ValueError("transfers must be finite")
        if np.any(transfers[: self.cutoff] != 0.0):
            raise ValueError("transfers must be zero on excluded nodes")
        kernel.setflags(write=False)
        transfers.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "transfers", transfers)

    @property
    def n_included(self) -> int:
        return self.grid.n - self.cutoff

    @property
    def included(self) -> np.ndarray:
        return np.arange(self.cutoff, self.grid.n)

    @property
    def x_tilde(self) -> float:
        """Type value of the lowest included node."""
        return float(self.grid.nodes[self.cutoff])

    @property
    def is_diagonal(self) -> bool:
        """Every nonzero kernel entry sits on the diagonal: each node meets
        only its own type (with rows summing to one, the identity kernel)."""
        return bool(np.count_nonzero(self.kernel)
                    == np.count_nonzero(np.diagonal(self.kernel)))

    def consistency_defect(self) -> float:
        """Max asymmetry of the kernel; zero means meetings balance exactly."""
        return float(np.max(np.abs(self.kernel - self.kernel.T)))

    @property
    def is_consistent(self) -> bool:
        return self.consistency_defect() <= CONSISTENCY_TOL


@dataclass(frozen=True, eq=False)
class DSEState:
    """Equilibrium state: wages, unmatched densities, acceptance sets.

    ``w`` and ``u`` cover every node (zero wage / density one on excluded
    nodes).  ``M[i, j]`` is True exactly when the pair covers both
    reservation wages, the rule :func:`acceptance` spells out.  Residual
    fields certify how tightly the state satisfies the defining fixed-point
    conditions; ``iterations`` counts the solver's sweeps and
    ``steady_state_solves`` the linear steady-state solves among them.
    """

    w: np.ndarray
    u: np.ndarray
    M: np.ndarray
    bellman_residual: float
    balance_residual: float
    iterations: int = 0
    steady_state_solves: int = 0

    def __post_init__(self):
        for name in ("w", "u", "M"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class GlitchSpec:
    """Mixing weight for blending a kernel with the population distribution."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie strictly inside (0, 1), got {self.epsilon}")


def surplus(f: ProductionFunction, grid: TypeGrid, w: np.ndarray, i: int, j: int) -> float:
    """Net flow surplus of the pair (i, j): output minus both reservation wages."""
    n = grid.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"node indices ({i}, {j}) out of range for n={n}")
    x = grid.nodes
    return float(f.eval(x[i], x[j])) - float(w[i]) - float(w[j])


def acceptance(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The acceptance sets at wages ``w``: pair ``(i, j)`` matches exactly
    when its output ``F[i, j]`` covers both reservation wages,
    ``F[i, j] - w[i] - w[j] >= 0``; a pair with zero surplus accepts."""
    net = F - w[:, None]
    net -= w[None, :]  # in place: one n-by-n temporary, the same bits
    return net >= 0.0


# ---------------------------------------------------------------------------
# Platform serialization
#
# platform.csv   header i,j,G     one row per nonzero kernel entry, row-major, global ids
# transfers.csv  header i,t       one row per node
# manifest.txt   key=value lines  n, cutoff, f.kind, f.c
# table.csv      header i,j,f     only for tabulated production, every entry, row-major
# ---------------------------------------------------------------------------

#: Lines ``write_columns`` builds and writes at a time.
_BLOCK_ROWS = 1 << 16


def save_platform(platform: Platform, production: ProductionFunction, outdir: str) -> None:
    """Write a platform and its production function as CSV artifacts."""
    os.makedirs(outdir, exist_ok=True)
    n, k = platform.grid.n, platform.cutoff
    rows, cols = np.nonzero(platform.kernel)
    write_columns(os.path.join(outdir, "platform.csv"), "i,j,G",
                  [rows + k, cols + k, platform.kernel[rows, cols]])
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
    manifest = read_manifest(os.path.join(outdir, "manifest.txt"))
    n = int(manifest["n"])
    k = int(manifest["cutoff"])
    grid = make_grid(n)
    m = n - k

    kernel = np.zeros((m, m))
    i, j, g = read_columns(os.path.join(outdir, "platform.csv"), 3, 2, k, n)
    kernel[i - k, j - k] = g

    transfers = np.zeros(n)
    i, t = read_columns(os.path.join(outdir, "transfers.csv"), 2, 1, 0, n)
    transfers[i] = t

    kind = manifest["f.kind"]
    if kind == "xy":
        production = ProductionFunction.multiplicative()
    elif kind == "xy+c":
        production = ProductionFunction.multiplicative_plus_constant(float(manifest["f.c"]))
    else:
        production = load_table(os.path.join(outdir, "table.csv"), grid)

    return Platform(grid=grid, cutoff=k, kernel=kernel, transfers=transfers), production


def load_table(path: str, grid: TypeGrid) -> ProductionFunction:
    """Tabulated production from an ``i,j,f`` CSV on ``grid``."""
    table = np.zeros((grid.n, grid.n))
    i, j, f = read_columns(path, 3, 2, 0, grid.n)
    table[i, j] = f
    return ProductionFunction.tabulated(grid, table)


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


def read_columns(path: str, ncols: int, nindex: int, lo: int, hi: int) -> list[np.ndarray]:
    """The columns of a CSV artifact with one header line.

    The first ``nindex`` columns are node indices: each must be an integer in
    ``[lo, hi)`` and comes back as int64.  The other columns come back as
    float64, parsed exactly (``format_float`` text reads back bit for bit).
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


def write_lines(path: str, lines: list[str]) -> None:
    """Write ``lines`` with LF endings on every platform, so artifacts are byte-reproducible."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_columns(path: str, header: str, columns) -> None:
    """Write ``header``, then line ``r`` joining entry ``r`` of every column with commas.

    Integer columns are written with ``str``, float columns with
    ``format_float`` and string columns as they are, so the bytes equal those
    of formatting each line by hand.  Each distinct entry is formatted once,
    and lines are built and written in blocks so the whole file never sits
    in memory.
    """
    tables = [_distinct_text(np.asarray(column)) for column in columns]
    nrows = len(tables[0][1])
    if any(len(index) != nrows for _, index in tables):
        raise ValueError(f"{path}: columns differ in length")
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, nrows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fields = [text[index[block]].tolist() for text, index in tables]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _distinct_text(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(text of each distinct entry, position of every entry in that text)."""
    if column.dtype.kind == "i" and column.size:
        # ids and indices span short ranges: label the range from zero (or
        # a negative minimum), so nonnegative ids index it without a copy
        lo, hi = min(int(column.min()), 0), int(column.max())
        if hi - lo <= column.size:
            text = [str(v) for v in range(lo, hi + 1)]
            return np.array(text, dtype=object), column - lo if lo else column
    if column.dtype.kind == "f":
        # distinct by bit pattern, so -0.0 keeps its own "-0"
        bits, index = np.unique(np.ascontiguousarray(column, dtype=np.float64).view(np.int64),
                                return_inverse=True)
        text = [format_float(v) for v in bits.view(np.float64)]
    elif column.dtype.kind in "iuU":
        values, index = np.unique(column, return_inverse=True)
        text = [str(v) for v in values.tolist()]
    else:
        raise TypeError(f"cannot write a column of dtype {column.dtype}")
    return np.array(text, dtype=object), index.reshape(-1)


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
