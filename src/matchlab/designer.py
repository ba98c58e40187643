"""Construction of profit-maximizing platforms.

Closed forms for assortative (identity-kernel) platforms, transfer schedules
under full and private information, informational-rent accounting, the
exhaustive exclusion scan, and kernel glitching.  Everything here is a pure
function of grids, production functions and search parameters.

``envelope_transfers`` and ``informational_rent`` read the misreport slope
of an equilibrium, so they refuse a state whose Bellman or balance residual
exceeds ``core.RESIDUAL_TOL``, or whose acceptance sets break the acceptance
rule: the bound past which the audit does not certify a state either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    RESIDUAL_TOL,
    DSEState,
    Platform,
    ProductionFunction,
    SearchParams,
    TypeGrid,
    _canonical_runs,
    _kernel_split,
    _MaskedKernel,
    _run_segments,
)
from .solver import diagonal_wage_coefficient, dse_residuals, solve_dse

__all__ = [
    "first_best_wage_coefficient",
    "pairing_wage",
    "transfer_coefficient",
    "first_best_platform",
    "envelope_transfers",
    "private_info_transfers",
    "informational_rent",
    "misreport_value_slope",
    "enumerate_involutions",
    "involution_rent",
    "ExclusionResult",
    "optimal_exclusion",
    "glitch",
    "DesignResult",
    "design",
]


def first_best_wage_coefficient(params: SearchParams) -> float:
    """Scale of the assortative-platform wage: w(x) = coeff * f(x, x), the
    solver's :func:`~matchlab.solver.diagonal_wage_coefficient` at unit
    kernel weight.

    Algebraically ``pairing_wage(params, 1.0)``; this form is kept because
    the two round differently in the last bit, and the assortative wages
    are written with this one.
    """
    return diagonal_wage_coefficient(params, 1.0)


def pairing_wage(params: SearchParams, f):
    """Wage of a type paired deterministically with a partner producing ``f``:
    ``theta * alpha * f / (alpha + rho + 2 theta alpha)``."""
    rho, alpha, theta = params.rho, params.alpha, params.theta
    return theta * alpha * f / (alpha + rho + 2.0 * theta * alpha)


def transfer_coefficient(params: SearchParams) -> float:
    """Scale of the private-information transfer:
    t(x) = coeff * (f(x, x) + f(x_tilde, x_tilde)), half the pairing wage
    per unit output."""
    return 0.5 * pairing_wage(params, 1.0)


def first_best_platform(grid: TypeGrid, cutoff_index: int,
                        transfers: np.ndarray | None = None) -> Platform:
    """Identity kernel on the included block, one run of 1 per row, with
    ``transfers``, zero when None."""
    m = grid.n - cutoff_index
    if m < 1:
        raise ValueError(f"cutoff {cutoff_index} leaves no included node")
    return Platform(grid=grid, cutoff=cutoff_index, kernel=np.ones(m),
                    transfers=np.zeros(grid.n) if transfers is None else transfers)


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative on a uniform grid: centered interior, one-sided
    3-point stencils at the block edges (second order throughout).

    Stencils are written as combinations of differences so constant inputs
    differentiate to exact zeros.
    """
    m = len(values)
    if m == 1:
        return np.zeros(1)
    d = np.empty(m)
    if m == 2:
        d[:] = (values[1] - values[0]) / h
        return d
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (4.0 * (values[1] - values[0]) - (values[2] - values[0])) / (2.0 * h)
    d[-1] = (4.0 * (values[-1] - values[-2]) - (values[-1] - values[-3])) / (2.0 * h)
    return d


def misreport_value_slope(platform: Platform, f: ProductionFunction,
                          params: SearchParams, dse: DSEState) -> np.ndarray:
    """Marginal gain of a slightly higher true type at a truthful report.

    For each included node ``i`` this is
    ``theta * sum_j M_ij (f_x(x_i, x_j) - w'(x_i)) G_ij u_j``
    with an analytic production derivative and a finite-difference wage slope.
    Zero on excluded nodes.  The acceptance-masked kernel ``A`` is
    :class:`~matchlab.core._MaskedKernel`, built once from the kernel's
    runs and the packed included block of ``M``, and the derivative table
    is evaluated a row block at a time into ``(A o F_x) u``
    (:meth:`~matchlab.core._MaskedKernel.output_product`), so no m-by-m
    table is held, and no m-by-m ``A`` when the kernel splits into a
    background and few deviations, as a diagonal one does.
    """
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    A = _MaskedKernel(platform, np.packbits(dse.M[k:, k:]).tobytes(), _kernel_split(platform))
    ub = dse.u[k:]
    au = A @ ub
    afu = A.output_product(
        lambda rows: f.dx_values(grid, slice(k + rows.start, k + rows.stop), slice(k, n)), ub)
    wprime = _derivative(dse.w[k:], 1.0 / n)
    slope = np.zeros(n)
    slope[k:] = params.theta * (afu - wprime * au)
    return slope


def envelope_transfers(platform: Platform, f: ProductionFunction,
                       params: SearchParams, dse: DSEState) -> np.ndarray:
    """Transfers implied by local truth-telling, zero surplus at the cutoff.

    Integrates the misreport value slope from the lowest included node by the
    trapezoid rule and subtracts it from the wage, so the participation
    constraint binds exactly at the cutoff type.
    """
    _require_equilibrium(platform, f, params, dse)
    k = platform.cutoff
    slope = misreport_value_slope(platform, f, params, dse)[k:]
    t = np.zeros(platform.grid.n)
    t[k:] = _envelope(dse.w[k:], slope, 1.0 / platform.grid.n)
    return t


def _envelope(w: np.ndarray, slope: np.ndarray, spacing) -> np.ndarray:
    """``w`` minus the trapezoid integral of ``slope`` from the first node.

    ``spacing`` is the node spacing, a scalar or one entry per interval.  The
    first entry is ``w[0]`` exactly, so participation binds there.
    """
    cum = np.zeros(len(slope))
    cum[1:] = np.cumsum(0.5 * (slope[:-1] + slope[1:]) * spacing)
    return w - cum


def private_info_transfers(grid: TypeGrid, f: ProductionFunction,
                           params: SearchParams, cutoff_index: int) -> np.ndarray:
    """Closed-form optimal transfers under hidden types.

    ``t(x) = coeff * (f(x, x) + f(x_tilde, x_tilde))`` on included nodes and
    zero below, which is ``(w(x) + w(x_tilde)) / 2`` for the assortative wage.
    """
    n = grid.n
    if not 0 <= cutoff_index <= n - 1:
        raise ValueError(f"cutoff_index {cutoff_index} out of range for n={n}")
    x = grid.nodes
    fdiag = np.asarray(f.eval(x, x), dtype=float)
    f_cut = fdiag[cutoff_index]

    t = np.zeros(n)
    t[cutoff_index:] = transfer_coefficient(params) * (fdiag[cutoff_index:] + f_cut)
    return t


def informational_rent(platform: Platform, f: ProductionFunction,
                       params: SearchParams, dse: DSEState) -> tuple[np.ndarray, float]:
    """Per-type rent ``(1 - x) * slope`` and its mass-weighted total."""
    _require_equilibrium(platform, f, params, dse)
    grid = platform.grid
    slope = misreport_value_slope(platform, f, params, dse)
    rent = (1.0 - grid.nodes) * slope
    rent[: platform.cutoff] = 0.0
    total = float(np.sum(rent[platform.cutoff:]) * grid.mass)
    return rent, total


def _require_equilibrium(platform, f, params, dse):
    """Raise ValueError unless ``dse`` solves ``platform``: both residuals
    at most ``RESIDUAL_TOL`` and no acceptance violation."""
    bell, bal, violations = dse_residuals(platform, f, params, dse)
    if bell > RESIDUAL_TOL or bal > RESIDUAL_TOL or violations:
        raise ValueError(
            f"state does not solve the platform (bellman {bell:g}, balance {bal:g}, "
            f"{violations} acceptance violations)")


# ---------------------------------------------------------------------------
# Involutions and the rent-minimization scan
# ---------------------------------------------------------------------------


def _involution(perm: Sequence[int], m: int) -> tuple:
    """``perm`` as a tuple of ints, checked to be a self-inverse permutation
    of ``range(m)``; raises ValueError otherwise."""
    perm = tuple(int(p) for p in perm)
    if len(perm) != m:
        raise ValueError(f"involution acts on {len(perm)} nodes, expected {m}")
    if sorted(perm) != list(range(m)):
        raise ValueError("not a permutation of 0..m-1")
    if any(perm[perm[i]] != i for i in range(m)):
        raise ValueError("permutation is not an involution")
    return perm


def enumerate_involutions(m: int) -> Iterator[tuple]:
    """Yield every involution of ``range(m)`` (counts 1, 2, 4, 10, 26, 76, ...)."""

    def rec(avail: list) -> Iterator[list]:
        if not avail:
            yield []
            return
        a, rest = avail[0], avail[1:]
        for tail in rec(rest):
            yield [(a, a)] + tail
        for idx in range(len(rest)):
            b = rest[idx]
            for tail in rec(rest[:idx] + rest[idx + 1:]):
                yield [(a, b)] + tail

    for pairs in rec(list(range(m))):
        perm = [0] * m
        for a, b in pairs:
            perm[a], perm[b] = b, a
        yield tuple(perm)


def involution_rent(grid: TypeGrid, f: ProductionFunction, params: SearchParams,
                    cutoff_index: int, nu: Sequence[int]) -> float:
    """Total informational rent of the deterministic platform that pairs
    included node ``i`` with node ``nu(i)``.

    Wages come from the deterministic-platform closed form
    ``w(x) = pairing_wage(params, f(x, nu(x)))``.
    The rent integral ``int (1-x) (f_x(x, nu(x)) - w'(x)) dx`` (scaled by the
    surplus weight and steady-state density) is evaluated with the wage term
    integrated by parts, ``int (1-x) w' dx = int w dx - (1-x_tilde)
    w(x_tilde)``, so the objective needs the wage only at the nodes.  A raw
    finite difference of the sawtooth wage of a non-monotone pairing would
    reward discretization artifacts instead of measuring rent.  The identity
    pairing reproduces :func:`informational_rent` of the assortative platform
    up to discretization.
    """
    perm = _involution(nu, grid.n - cutoff_index)
    x = grid.nodes[cutoff_index:]
    partner = x[list(perm)]
    w = pairing_wage(params, np.asarray(f.eval(x, partner), dtype=float))
    fx = np.asarray(f.d_dx(x, partner), dtype=float)
    marginal_term = float(np.sum((1.0 - x) * fx) * grid.mass)
    wage_term = float(np.sum(w) * grid.mass) - (1.0 - x[0]) * float(w[0])
    return params.theta * params.u_star * (marginal_term - wage_term)


# ---------------------------------------------------------------------------
# Exclusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExclusionResult:
    """Exhaustive profit scan over cutoff levels.

    ``profit_curve[k]`` is the designer revenue (up to the common transfer
    scale) of excluding nodes below ``k``; ``phi`` is the virtual output
    ``f(x,x) - (1-x) f_x(x,x)`` whose sign drives the scan.  The case flags
    report which sufficient condition for the optimum applies:
    ``full_inclusion`` (phi positive everywhere), ``interior``
    (f_x(0,0) > f(0,0)) and ``unique`` (phi strictly increasing).
    """

    cutoff_index: int
    x_tilde: float
    profit_curve: np.ndarray
    phi: np.ndarray
    full_inclusion: bool
    interior: bool
    unique: bool


def optimal_exclusion(grid: TypeGrid, f: ProductionFunction) -> ExclusionResult:
    """Scan every cutoff level and return the revenue-maximizing one.

    The scan is exhaustive rather than first-order because the profit curve
    need not be concave (multiplicative production has stationary points at
    both zero and one half).  Ties break toward more inclusion.
    """
    x = grid.nodes
    n = grid.n
    fdiag = np.asarray(f.eval(x, x), dtype=float)
    fxdiag = np.asarray(f.d_dx(x, x), dtype=float)

    suffix = np.cumsum(fdiag[::-1])[::-1]
    counts = n - np.arange(n)
    profit = grid.mass * (suffix + counts * fdiag)
    phi = fdiag - (1.0 - x) * fxdiag

    k = int(np.argmax(profit))  # argmax returns the first (lowest) maximizer
    return ExclusionResult(
        cutoff_index=k,
        x_tilde=float(x[k]),
        profit_curve=profit,
        phi=phi,
        full_inclusion=bool(np.all(phi > 0)),
        interior=bool(float(f.d_dx(0.0, 0.0)) > float(f.eval(0.0, 0.0))),
        unique=bool(np.all(np.diff(phi) > 0)),
    )


# ---------------------------------------------------------------------------
# Glitched platforms
# ---------------------------------------------------------------------------


def glitch(platform: Platform, epsilon: float) -> Platform:
    """Blend the kernel with a population-uniform draw of weight ``epsilon``.

    The mixture runs over the whole grid, so previously excluded nodes are
    re-included (self-search kernel rows, zero transfers) and the result has
    cutoff zero.  Mixing two symmetric kernels keeps the platform consistent.

    The mixture is built as runs, never as an n-by-n matrix: in each row of
    the kernel, padded to the grid, every run of value ``v`` becomes one of
    ``v (1 - epsilon) + epsilon / n`` and every zero gap one of
    ``epsilon / n``, the bits of ``(1 - epsilon) G + (epsilon / n) J`` taken
    entry by entry; runs that end up equal merge and zero ones drop.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    platform.require_consistent()
    n, k = platform.grid.n, platform.cutoff
    i, j, j_last, g = platform.runs
    own = np.arange(k)  # an excluded node meets itself
    rows, cols, lasts = (np.concatenate((own, ids + k)) for ids in (i, j, j_last))
    values = np.concatenate((np.ones(k), g))
    # (gap, run, gap) segments, row-major, empty ones dropped
    first, last = _run_segments(rows, cols, lasts, n)
    mixed = np.stack((np.zeros(len(values)), values, np.zeros(len(values))), axis=1)
    mixed *= 1.0 - epsilon  # in place: the bits of (1 - eps) G + eps/n * ones
    mixed += epsilon / n
    kept = first <= last
    runs = _canonical_runs(np.repeat(rows, 3)[kept.ravel()], first[kept], last[kept],
                           mixed[kept], n)
    return Platform(grid=platform.grid, cutoff=0, kernel=runs,
                    transfers=platform.transfers.copy())


# ---------------------------------------------------------------------------
# End-to-end design
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DesignResult:
    """A designed platform with its equilibrium and revenue accounting.

    ``rent`` is the per-type informational rent (zero on excluded types) and
    ``rent_total`` its mass-weighted sum.
    """

    platform: Platform
    dse: DSEState
    profit: float
    rent: np.ndarray
    rent_total: float
    x_tilde: float


def design(grid: TypeGrid, f: ProductionFunction, params: SearchParams,
           cutoff: int | str = "auto") -> DesignResult:
    """Build the revenue-maximizing platform at a given or scanned cutoff.

    The platform is assortative on the included block with the closed-form
    private-information transfers; profit is the mass-weighted transfer sum.
    """
    if cutoff == "auto":
        cutoff_index = optimal_exclusion(grid, f).cutoff_index
    else:
        cutoff_index = int(cutoff)
    dse = solve_dse(first_best_platform(grid, cutoff_index), f, params)
    t = private_info_transfers(grid, f, params, cutoff_index)
    platform = first_best_platform(grid, cutoff_index, t)
    profit = float(np.sum(t[cutoff_index:]) * grid.mass)
    rent, rent_total = informational_rent(platform, f, params, dse)
    return DesignResult(platform=platform, dse=dse, profit=profit, rent=rent,
                        rent_total=rent_total, x_tilde=float(grid.nodes[cutoff_index]))
