"""Steady-state search equilibria: a closed form on diagonal kernels, and
policy iteration with a damped fixed-point fallback on dense ones.

Given a consistent platform, the equilibrium is a wage vector ``w`` on the
included nodes such that, with the acceptance sets ``M`` and steady-state
unmatched densities ``u`` induced by ``w``:

* Bellman:   ``w_i = theta * sum_j M_ij (f_ij - w_i - w_j) G_ij u_j``
* balance:   ``alpha (1 - u_i) = rho * sum_j M_ij G_ij u_j``
* optimality: ``M_ij = 1  iff  f_ij - w_i - w_j >= 0`` (:func:`~matchlab.core.acceptance`)

On a diagonal kernel both equations solve node by node in closed form.

With ``M`` fixed, the balance equations are linear in ``u`` and the Bellman
equation is linear in ``w``.  On a dense kernel the solver first runs policy
iteration (Howard 1960): each step solves both systems exactly and takes
the acceptance sets at the new wages.  Both systems are symmetric positive
definite on the kernels measured, the Bellman one after a diagonal scaling,
so a step solves them by Jacobi-preconditioned conjugate gradients
(Hestenes & Stiefel 1952), warm-started from the previous step, and by a
dense LU when conjugate gradients break down, run out of iterations or
leave too large a residual, or when the system is too small to gain.  From the default start, zero wages,
every pair is accepted and each step only removes pairs.  When a step meets
an acceptance set it has already solved without certifying the state, or
its wage system is singular, the solver hands over to the damped loop,
restarted from the start.

Each sweep of the damped loop updates ``w`` by the closed-form row solution
of the Bellman equation (damped), recomputing ``M``.  The steady state is
solved directly, not by substitution, which oscillates whenever ``rho``
exceeds ``alpha``.  It depends on ``w`` only through ``M``, so it is solved
again only when ``M`` changes.  When the Bellman residual stops setting new
bests, because ``M`` cycles, never settles, or stays fixed while the damped
update diverges, the solve fails fast.

:func:`dse_residuals` recomputes both residuals of any state, on every
kind of kernel, through the policy loop's acceptance-masked kernel
operator (:class:`~matchlab.core._MaskedKernel`).
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DSEState,
    NonConvergenceError,
    Platform,
    ProductionFunction,
    SearchParams,
    _kernel_split,
    _MaskedKernel,
    _packed_acceptance,
    _row_blocks,
    acceptance,
)

__all__ = ["SolverConfig", "solve_dse", "dse_residuals", "diagonal_wage_coefficient"]

#: Weight of each closed-form row update in the next iterate; one half
#: stabilizes acceptance-set flips.
_DAMPING = 0.5
#: Conjugate-gradient iterations after which a policy step's linear solve
#: falls back to the LU; the benchmark kernels need at most 14.
_PCG_MAX_ITER = 50
#: Policy steps on fewer included nodes than this solve by the LU directly,
#: which is the faster of the two there (crossover near 100 on 2-core Xeon).
_PCG_MIN_SIZE = 100
#: Conjugate gradients stop once the updated residual's 2-norm is below this
#: share of the right-hand side's.
_PCG_RTOL = 1e-15
#: Max-norm residual of the policy step's system, recomputed once conjugate
#: gradients stop, above which the step falls back to the LU: a tenth of the
#: default ``tol_u`` and a thousandth of the default ``tol_w``, so that no
#: solution the certification would refuse is kept.
_PCG_RESIDUAL = 1e-13
#: Sweeps without a new best Bellman residual after which the solve stops;
#: also the length of the ring of acceptance-set digests its diagnosis reads.
_STALL_SWEEPS = 64
#: Flipping pairs a cycle's error message names.
_CYCLE_PAIRS_SHOWN = 3
#: A steady-state density may leave ``[0, 1]`` by this much (roundoff of
#: the direct solve) before the solve refuses it; it is then clipped.
DENSITY_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and the iteration limit for :func:`solve_dse`.

    ``tol_w`` bounds the max-norm Bellman residual of the returned wage,
    ``tol_u`` the scaled balance residual of the returned density, and
    ``max_outer`` the number of policy steps and damped sweeps, together,
    before the solve gives up.
    """

    tol_w: float = 1e-10
    tol_u: float = 1e-12
    max_outer: int = 100_000

    def __post_init__(self):
        if not (self.tol_w > 0 and self.tol_u > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")


def _steady_state_density(A: np.ndarray, params: SearchParams) -> np.ndarray:
    """Solve ``alpha (1 - u) = rho * A u`` for the unmatched density.

    ``A`` is the acceptance-masked kernel on included nodes.  The system is
    linear; a direct solve handles every kernel, including swap-like kernels
    for which substitution iterations diverge.  Falls back to the minimum-norm
    solution when the system is singular (degenerate swap kernels at
    ``rho == alpha``), which is the symmetric physical steady state.
    """
    m = A.shape[0]
    lhs = (params.rho / params.alpha) * A
    lhs.flat[::m + 1] += 1.0  # I + (rho/alpha) A, bit for bit, without an identity matrix
    rhs = np.ones(m)
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(lhs, rhs, rcond=None)[0]


def diagonal_wage_coefficient(params: SearchParams, g):
    """Scale of the equilibrium wage of a node that meets only itself, with
    kernel weight ``g`` (scalar or array): ``w = coeff * f(x, x)`` solves the
    Bellman equation ``w = theta g u (f - 2 w)`` at the density
    ``u = alpha / (alpha + rho g)``.  The own pair accepts: ``f - 2 w >= 0``."""
    rho, alpha, r = params.rho, params.alpha, params.r
    return rho * alpha * g / (2.0 * ((r + alpha) * (alpha + rho * g) + rho * alpha * g))


def solve_dse(platform: Platform, f: ProductionFunction, params: SearchParams,
              cfg: SolverConfig | None = None,
              w_start: np.ndarray | None = None) -> DSEState:
    """Compute a steady-state search equilibrium on ``platform``.

    Returns a full-grid state: zero wage and density one on excluded nodes,
    acceptance matrix over all node pairs.

    On a diagonal kernel the equilibrium is unique and the solver returns its
    closed form (:func:`diagonal_wage_coefficient`), with 0 ``iterations``
    and ``steady_state_solves``; it reads neither ``w_start`` nor ``max_outer``.

    A dense kernel runs policy iteration from the acceptance sets at the
    start, zero wages (every pair accepted) or ``w_start`` (full-length wage
    vector) for a warm restart: each step solves the steady state and then
    the Bellman equation exactly under the current ``M``, and takes the new
    ``M`` at the resulting wages.  It stops when the state at the current
    wages passes the Bellman check, which it does once ``M`` repeats the
    previous step's set.  It hands over to the damped loop, restarted from
    the start, when ``M`` repeats a set it already solved without passing
    that check, when the wage system is singular, or when its Bellman
    residual has set no new best for ``_STALL_SWEEPS`` steps.  From zero
    wages it returned the equilibrium with the most accepted pairs on every
    glitched kernel measured (see the README); the damped loop has no such
    rule.  Steps and sweeps share ``max_outer``.  ``iterations`` counts the
    steps and sweeps that led to the returned state (the policy steps and
    the one that passed the check, or the damped sweeps after a hand-over);
    ``steady_state_solves`` counts every steady-state solve of the call, and
    ``lu_fallbacks`` the policy-step solves that conjugate gradients handed
    to the dense LU.

    Raises ``ValueError`` for inconsistent platforms and
    :class:`NonConvergenceError` for a state that misses ``tol_w``,
    ``tol_u`` or ``[0, 1]``: on a dense kernel, when ``max_outer`` steps and
    sweeps do not reach ``tol_w``, or sooner, once the damped loop's Bellman
    residual has set no new best for ``_STALL_SWEEPS`` sweeps.  That stall is
    diagnosed from the recent acceptance sets (see :func:`_stall_error`):
    they cycle with a period, stay fixed while the damped update fails to
    contract, or do not repeat.
    """
    cfg = cfg or SolverConfig()
    platform.require_consistent()

    grid = platform.grid
    n, k = grid.n, platform.cutoff
    rho, alpha, theta = params.rho, params.alpha, params.theta

    # the closed form reads the outputs f(x_i, x_i) of the included nodes
    # alone, the loop the included block Fb; the acceptance sets of all node
    # pairs take the rest of the table a row block at a time
    xb = grid.nodes[k:]
    Fb = None
    if platform.is_diagonal:
        g = platform.runs[3]  # one run per row: the diagonal
        fdiag = np.asarray(f.eval(xb, xb), dtype=float)
        w = diagonal_wage_coefficient(params, g) * fdiag
        u = alpha / (alpha + rho * g)
        au = g * u
        bell = float(np.max(np.abs(w - theta * (fdiag - 2.0 * w) * au)))
        iterations = solves = fallbacks = 0
    else:
        Fb = f.values(grid, slice(k, n), slice(k, n))
        w0 = np.zeros(n - k) if w_start is None else np.asarray(w_start, dtype=float)[k:].copy()
        w, u, au, bell, iterations, solves, fallbacks = _iterate(
            platform, Fb, params, cfg, w0, k)

    balance = _balance_residual(u, au, params)
    if not bell <= cfg.tol_w:  # only the closed form gets here: the loop raises first
        raise NonConvergenceError(
            f"closed-form state misses tol_w {cfg.tol_w:g} "
            f"(bellman residual {bell:g}, balance residual {balance:g})",
            bellman_residual=bell, balance_residual=balance, iterations=iterations)
    if balance > cfg.tol_u * alpha:
        raise NonConvergenceError(
            f"steady-state solve left balance residual {balance:g} above "
            f"{cfg.tol_u * alpha:g}", bellman_residual=bell,
            balance_residual=balance, iterations=iterations)
    if np.any(u < -DENSITY_TOL) or np.any(u > 1.0 + DENSITY_TOL):
        # the balance equations admit non-density solutions on kernels whose
        # acceptance-filtered row masses are sufficiently lopsided; refuse
        # rather than return a state that is not an unmatched density
        raise NonConvergenceError(
            f"steady-state solution leaves [0, 1] (min {u.min():g}, max {u.max():g}); "
            "the platform has no realizable steady-state density",
            bellman_residual=bell, balance_residual=balance, iterations=iterations)
    np.clip(u, 0.0, 1.0, out=u)

    w_full = np.zeros(n)
    w_full[k:] = w
    u_full = np.ones(n)
    u_full[k:] = u

    return DSEState(w=w_full, u=u_full, M=acceptance(f, w_full, grid, held=Fb),
                    bellman_residual=bell, balance_residual=balance,
                    iterations=iterations, steady_state_solves=solves,
                    lu_fallbacks=fallbacks)


def _iterate(platform: Platform, Fb: np.ndarray, params: SearchParams, cfg: SolverConfig,
             w0: np.ndarray, k: int) -> tuple:
    """Policy iteration, then the damped loop, from ``w0`` on the kernel of
    ``platform``, not diagonal, and the output ``Fb`` of the included block
    above cutoff ``k`` (see :func:`solve_dse`): ``(w, u, A u, bellman
    residual, iterations, steady-state solves, LU fallbacks)`` of the first
    state that passes ``tol_w``."""
    m = len(w0)
    theta = params.theta
    w = w0

    # the acceptance set that A, u, au and afu were built from and the one
    # before it, held only as np.packbits bytes (each sweep packs its set
    # from blocks of a multiple of 8 rows, 16 at m = 1000, so no m-by-m bool
    # array is built), a hash of the set of each recent sweep for the stall
    # diagnosis, the sets policy iteration solved, and the acceptance-masked
    # kernel A of the current set (core._MaskedKernel).  A policy step takes
    # its products with A from the kernel's runs and the set's row runs,
    # so Fb is its one m-by-m array, unless the kernel deviates from its
    # rows' background values in too many entries; then A is the dense
    # matrix, built from the runs and the packed set a row block at a time,
    # as it always is in the damped loop, and rebuilt in the same buffer at
    # each new set.  The dense LU builds its matrix only when it runs
    packed = packed_before = None
    solves = fallbacks = 0
    u = np.zeros(m)  # the start of the next policy step's density solve
    digests = collections.deque(maxlen=_STALL_SWEEPS)
    best, best_at = math.inf, 0
    policy = True  # policy iteration runs until it hands over
    solved = set()
    split = _kernel_split(platform)
    A = None
    start = 0  # sweeps spent before the damped loop took over

    # SolverConfig keeps max_outer >= 1: the loop always sets u, au and bell
    for sweep in range(1, cfg.max_outer + 1):
        packed_now = _packed_acceptance(Fb, w)
        if packed_now != packed:
            packed_before, packed = packed, packed_now
            A = _MaskedKernel(platform, packed, split if policy else None,
                              out=None if A is None else A.held)
            if policy:
                u, lu = _policy_density(A, params, u)
                fallbacks += lu
            else:
                u = _steady_state_density(A.dense(), params)
            au = A @ u
            afu = A.output_product(Fb.__getitem__, u)
            solves += 1
        digests.append(hash(packed))  # bytes cache their hash
        numer = theta * (afu - A @ (w * u))
        denom = 1.0 + theta * au
        w_new = numer / denom
        # |denom * (w - w_new)| is exactly the Bellman residual at w given (M, u)
        bell = float(np.max(np.abs(denom * (w - w_new))))
        if bell <= cfg.tol_w:
            return w, u, au, bell, sweep - start, solves, fallbacks
        if bell < best:
            best, best_at = bell, sweep
        stalled = sweep - best_at >= _STALL_SWEEPS
        if policy:
            step = None if stalled or packed in solved else _policy_wages(
                A, u, au, afu, theta, w)
            if step is None:  # hand over to the damped loop, restarted from the start
                policy = False
                w, start = w0, sweep
                packed = packed_before = None
                digests.clear()
                best, best_at = math.inf, sweep
            else:
                solved.add(packed)
                w, lu = step
                fallbacks += lu
        elif stalled:
            break
        else:
            w = (1.0 - _DAMPING) * w + _DAMPING * w_new

    # the last sweep missed; a NaN residual misses too
    iterations = sweep - start
    balance = _balance_residual(u, au, params)
    if sweep - best_at >= _STALL_SWEEPS:
        raise _stall_error(digests, packed, packed_before, m, k, iterations, bell, balance)
    raise NonConvergenceError(
        f"no convergence after {cfg.max_outer} sweeps "
        f"(bellman residual {bell:g}, balance residual {balance:g})",
        bellman_residual=bell, balance_residual=balance, iterations=cfg.max_outer)


def _balance_residual(u: np.ndarray, au: np.ndarray, params: SearchParams) -> float:
    """Max-norm residual of ``alpha (1 - u) = rho A u``, given ``au = A u``."""
    return float(np.max(np.abs(params.alpha * (1.0 - u) - params.rho * au)))


def _pcg(matvec, b: np.ndarray, diag: np.ndarray, x: np.ndarray,
         weight: np.ndarray | float = 1.0) -> np.ndarray | None:
    """Solve the symmetric system ``K x = b`` by conjugate gradients with the
    Jacobi preconditioner, from the start ``x``: ``matvec(v)`` is ``K v`` and
    ``diag`` the diagonal of ``K``.  None on a breakdown (``p . K p <= 0``,
    so ``K`` is not positive definite), after ``_PCG_MAX_ITER`` iterations,
    or when the residual ``weight * (b - K x)``, recomputed once the updated
    residual has converged, exceeds ``_PCG_RESIDUAL`` in max norm."""
    r = b - matvec(x)
    stop = _PCG_RTOL * np.linalg.norm(b)
    z = r / diag
    p = z
    rz = r @ z
    for _ in range(_PCG_MAX_ITER):
        if np.linalg.norm(r) <= stop:
            residual = np.max(np.abs(weight * (b - matvec(x))))
            return x if residual <= _PCG_RESIDUAL else None
        q = matvec(p)
        pq = p @ q
        if not pq > 0.0:  # a NaN breaks down too
            return None
        step = rz / pq
        x = x + step * p
        r = r - step * q
        z = r / diag
        rz, rz_before = r @ z, rz
        p = z + (rz / rz_before) * p
    return None


def _policy_density(A: _MaskedKernel, params: SearchParams,
                    u0: np.ndarray) -> tuple[np.ndarray, bool]:
    """The steady-state density of a policy step,
    ``(I + (rho/alpha) A) u = 1``, by :func:`_pcg` from ``u0``, and whether
    it fell back to :func:`_steady_state_density`.  Fewer than
    ``_PCG_MIN_SIZE`` nodes go to that direct solve at once, with no
    fallback counted."""
    c = params.rho / params.alpha
    m = len(u0)
    direct = m < _PCG_MIN_SIZE
    u = None if direct else _pcg(lambda v: v + c * (A @ v), np.ones(m),
                                 1.0 + c * A.diagonal(), u0)
    if u is None:
        return _steady_state_density(A.dense(), params), not direct
    return u, False


def _policy_wages(A: _MaskedKernel, u: np.ndarray, au: np.ndarray, afu: np.ndarray,
                  theta: float, w0: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """The wages that solve the Bellman equation exactly under a fixed
    acceptance-masked kernel ``A`` and density ``u``:
    ``(diag(1 + theta A u) + theta A diag(u)) w = theta (A o F) u``, with
    ``au = A u`` and ``afu = (A o F) u``, and whether it fell back to the
    LU.

    With ``s = sqrt(u)`` and ``y = s w`` the system is the symmetric
    ``(diag(1 + theta A u) + theta S A S) y = s theta (A o F) u``, which
    :func:`_pcg` solves from ``s w0`` when every ``u_i`` is positive.
    Otherwise, or when it fails, a dense LU solves the system as given, its
    m-by-m matrix allocated only then; fewer than ``_PCG_MIN_SIZE`` nodes go
    to the LU at once, with no fallback counted.
    None when the system is singular."""
    d = 1.0 + theta * au
    direct = len(u) < _PCG_MIN_SIZE
    if not direct and np.all(u > 0.0):
        s = np.sqrt(u)
        y = _pcg(lambda v: d * v + theta * s * (A @ (s * v)), s * (theta * afu),
                 d + theta * u * A.diagonal(), s * w0, 1.0 / s)
        if y is not None:
            return y / s, False
    lhs = np.multiply(A.dense(), theta * u)
    lhs.flat[::lhs.shape[0] + 1] += d
    try:
        return np.linalg.solve(lhs, theta * afu), not direct
    except np.linalg.LinAlgError:
        return None


def _stall_error(digests, packed: bytes | None, packed_before: bytes | None, m: int,
                 k: int, iterations: int, bell: float, balance: float) -> NonConvergenceError:
    """The error for a dense solve whose Bellman residual set no new best
    over its last ``_STALL_SWEEPS`` sweeps.

    ``digests`` holds a hash of the acceptance set of each recent sweep, the
    latest last.  The period is the smallest lag ``p`` at which the newer
    half of that ring repeats: 1 is a fixed set, under which the damped
    update is affine and does not contract, and 0 means the sets do not
    repeat.  For a period of 2 or more the flipping
    pairs are those the last change of the ``m``-by-``m`` acceptance set
    flipped (``packed_before`` to ``packed``, as ``np.packbits`` bytes), in
    global node ids.
    """
    history = list(digests)
    half = _STALL_SWEEPS // 2
    period = next((p for p in range(1, half + 1)
                   if len(history) >= half + p and history[-half - p:-p] == history[-half:]), 0)
    residuals = f"(bellman residual {bell:g}, balance residual {balance:g})"
    stale = f"no new best bellman residual over the last {_STALL_SWEEPS} of {iterations} sweeps"
    if period <= 1:
        prefix = "damped update does not contract: acceptance sets fixed and " if period else ""
        return NonConvergenceError(f"{prefix}{stale} {residuals}", bellman_residual=bell,
                                   balance_residual=balance, iterations=iterations,
                                   period=period)
    rows, cols = _flipped_pairs(packed, packed_before, m)
    pairs = tuple(zip((rows + k).tolist(), (cols + k).tolist()))
    shown = ", ".join(f"({i}, {j})" for i, j in pairs[:_CYCLE_PAIRS_SHOWN])
    more = len(pairs) - _CYCLE_PAIRS_SHOWN
    if more > 0:
        shown += f" and {more} more"
    return NonConvergenceError(
        f"acceptance sets cycle with period {period} after {iterations} sweeps, "
        f"flipping pairs {shown} {residuals}",
        bellman_residual=bell, balance_residual=balance, iterations=iterations,
        period=period, flipping_pairs=pairs)


def _flipped_pairs(packed: bytes, packed_before: bytes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the pairs ``i <= j`` whose flags differ between
    two ``m``-by-``m`` bool arrays given as ``np.packbits`` bytes, in
    row-major order: the ``np.nonzero`` of the upper triangle (diagonal
    included) of their unpacked xor, read from the bits of the xor's
    nonzero bytes alone, so no m-by-m array is built."""
    flipped = np.bitwise_xor(np.frombuffer(packed, np.uint8),
                             np.frombuffer(packed_before, np.uint8))
    at = np.flatnonzero(flipped)
    byte, bit = np.nonzero(np.unpackbits(flipped[at]).reshape(-1, 8))
    rows, cols = np.divmod(at[byte] * 8 + bit, m)
    # a padding bit past the m * m flags falls in a row from m on, left of
    # the diagonal
    upper = rows <= cols
    return rows[upper], cols[upper]


def dse_residuals(platform: Platform, f: ProductionFunction, params: SearchParams,
                  state: DSEState) -> tuple[float, float, int]:
    """Recompute equilibrium residuals of ``state`` from scratch.

    Returns ``(bellman_residual, balance_residual, acceptance_violations)``
    where the residuals are max-norms over included nodes and the violation
    count covers every node pair whose acceptance flag disagrees with the
    sign of the surplus.

    The output table is evaluated once, a block at a time, and each block
    is checked against the acceptance rule, an eighth of a block of rows at
    a time.  The blocks of the included block of ``F`` are those of
    ``(A o F) u`` (:meth:`~matchlab.core._MaskedKernel.output_product`),
    and the pairs that hold an excluded node take blocks of
    :func:`~matchlab.core._row_blocks`.  The acceptance-masked kernel ``A``
    is the policy loop's operator, built once from the kernel's runs and
    the packed included block of ``M``: held as runs when the kernel
    splits into a background and few deviations (a diagonal kernel does,
    one deviation a row), else as the m-by-m matrix.  So neither an n-by-n
    output table nor the dense kernel is held.
    """
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    if state.w.shape != (n,) or state.u.shape != (n,) or state.M.shape != (n, n):
        raise ValueError("state shapes do not match the platform grid")
    w, u, M = state.w, state.u, state.M
    A = _MaskedKernel(platform, np.packbits(M[k:, k:]).tobytes(), _kernel_split(platform))
    wb, ub = w[k:], u[k:]
    au = A @ ub
    awu = A @ (wb * ub)
    violations = 0

    def checked(rows: slice, cols: slice) -> np.ndarray:
        """The block ``F[rows, cols]`` of the output table, whose acceptance
        violations are counted."""
        nonlocal violations
        F = f.values(grid, rows, cols)
        for part in _row_blocks(len(F), 8 * F.shape[1]):  # an eighth of a block
            at = slice(rows.start + part.start, rows.start + part.stop)
            accepted = (F[part] - w[at, None]) - w[None, cols] >= 0.0
            violations += int(np.count_nonzero(M[at, cols] != accepted))
        return F

    if k:
        for rows in _row_blocks(n, k):
            checked(rows, slice(0, k))
        for rows in _row_blocks(k, n - k):
            checked(rows, slice(k, n))
    afu = A.output_product(lambda rows: checked(slice(k + rows.start, k + rows.stop),
                                                slice(k, n)), ub)
    total = afu - wb * au - awu
    bellman = float(np.max(np.abs(wb - params.theta * total)))
    balance = _balance_residual(ub, au, params)
    return bellman, balance, violations
