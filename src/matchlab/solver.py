"""Damped fixed-point solver for steady-state search equilibria.

Given a consistent platform, the equilibrium is a wage vector ``w`` on the
included nodes such that, with the acceptance sets ``M`` and steady-state
unmatched densities ``u`` induced by ``w``:

* Bellman:   ``w_i = theta * sum_j M_ij (f_ij - w_i - w_j) G_ij u_j``
* balance:   ``alpha (1 - u_i) = rho * sum_j M_ij G_ij u_j``
* optimality: ``M_ij = 1  iff  f_ij - w_i - w_j >= 0`` (:func:`~matchlab.core.acceptance`)

The outer loop updates ``w`` by the closed-form row solution of the Bellman
equation (damped), recomputing ``M`` each sweep.  The inner steady state is a
linear system in ``u`` and is solved directly; a naive substitution iteration
oscillates whenever ``rho`` exceeds ``alpha``, so no fixed-point inner loop is
used.  Identity kernels take a diagonal fast path with the same semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DSEState,
    NonConvergenceError,
    Platform,
    ProductionFunction,
    SearchParams,
    acceptance,
)

__all__ = ["SolverConfig", "solve_dse", "dse_residuals", "steady_state_density"]

#: Weight of each closed-form row update in the next iterate; one half
#: stabilizes acceptance-set flips.
_DAMPING = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and the iteration limit for :func:`solve_dse`.

    ``tol_w`` bounds the max-norm Bellman residual of the returned wage,
    ``tol_u`` the scaled balance residual of the returned density, and
    ``max_outer`` the number of sweeps before the solve gives up.
    """

    tol_w: float = 1e-10
    tol_u: float = 1e-12
    max_outer: int = 100_000

    def __post_init__(self):
        if not (self.tol_w > 0 and self.tol_u > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")


def steady_state_density(A: np.ndarray, params: SearchParams) -> np.ndarray:
    """Solve ``alpha (1 - u) = rho * A u`` for the unmatched density.

    ``A`` is the acceptance-masked kernel on included nodes.  The system is
    linear; a direct solve handles every kernel, including swap-like kernels
    for which substitution iterations diverge.  Falls back to the minimum-norm
    solution when the system is singular (degenerate swap kernels at
    ``rho == alpha``), which is the symmetric physical steady state.
    """
    m = A.shape[0]
    lhs = np.eye(m) + (params.rho / params.alpha) * A
    rhs = np.ones(m)
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(lhs, rhs, rcond=None)[0]


def solve_dse(platform: Platform, f: ProductionFunction, params: SearchParams,
              cfg: SolverConfig | None = None,
              w_start: np.ndarray | None = None) -> DSEState:
    """Compute a steady-state search equilibrium on ``platform``.

    Returns a full-grid state: zero wage and density one on excluded nodes,
    acceptance matrix over all node pairs.  Iteration starts from zero wages,
    or from ``w_start`` (full-length wage vector) for a warm restart.

    Raises ``ValueError`` for inconsistent platforms and
    :class:`NonConvergenceError` when ``max_outer`` sweeps do not reach
    ``tol_w``.
    """
    cfg = cfg or SolverConfig()
    if not platform.is_consistent:
        raise ValueError(
            f"platform is not consistent (defect {platform.consistency_defect():g}); "
            "the meeting process is only well-defined for symmetric kernels")

    grid = platform.grid
    n, k = grid.n, platform.cutoff
    m = n - k
    rho, alpha, theta = params.rho, params.alpha, params.theta

    F = f.values(grid)
    Fb = F[k:, k:]
    fdiag = np.diagonal(Fb).copy()
    G = platform.kernel
    diagonal_kernel = platform.is_diagonal

    w = np.zeros(m) if w_start is None else np.asarray(w_start, dtype=float)[k:].copy()

    # SolverConfig keeps max_outer >= 1: the loop always sets u, au and bell
    for iterations in range(1, cfg.max_outer + 1):
        if diagonal_kernel:
            gdiag = np.diagonal(G)
            # acceptance(Fb, w) on the diagonal, the only pairs that meet
            acc = (fdiag - 2.0 * w) >= 0.0
            a = np.where(acc, gdiag, 0.0)
            # balance is node-by-node here and solves exactly
            u = np.where(acc & (gdiag > 0), alpha / (alpha + rho * a), 1.0)
            au = a * u
            numer = theta * acc * (fdiag - w) * gdiag * u
        else:
            A = np.where(acceptance(Fb, w), G, 0.0)
            u = steady_state_density(A, params)
            au = A @ u
            numer = theta * ((A * Fb) @ u - A @ (w * u))
        denom = 1.0 + theta * au
        w_new = numer / denom
        # |denom * (w - w_new)| is exactly the Bellman residual at w given (M, u)
        bell = float(np.max(np.abs(denom * (w - w_new))))
        if bell <= cfg.tol_w:
            break
        w = (1.0 - _DAMPING) * w + _DAMPING * w_new

    balance = float(np.max(np.abs(alpha * (1.0 - u) - rho * au)))
    if not bell <= cfg.tol_w:  # the last sweep missed; a NaN residual misses too
        raise NonConvergenceError(
            f"no convergence after {cfg.max_outer} sweeps "
            f"(bellman residual {bell:g}, balance residual {balance:g})",
            bellman_residual=bell, balance_residual=balance, iterations=cfg.max_outer)
    if balance > cfg.tol_u * alpha:
        raise NonConvergenceError(
            f"steady-state solve left balance residual {balance:g} above "
            f"{cfg.tol_u * alpha:g}", bellman_residual=bell,
            balance_residual=balance, iterations=iterations)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
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

    return DSEState(w=w_full, u=u_full, M=acceptance(F, w_full),
                    bellman_residual=bell, balance_residual=balance,
                    iterations=iterations)


def dse_residuals(platform: Platform, f: ProductionFunction, params: SearchParams,
                  state: DSEState) -> tuple[float, float, int]:
    """Recompute equilibrium residuals of ``state`` from scratch.

    Returns ``(bellman_residual, balance_residual, acceptance_violations)``
    where the residuals are max-norms over included nodes and the violation
    count covers every node pair whose acceptance flag disagrees with the
    sign of the surplus.
    """
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    if state.w.shape != (n,) or state.u.shape != (n,) or state.M.shape != (n, n):
        raise ValueError("state shapes do not match the platform grid")
    rho, alpha, theta = params.rho, params.alpha, params.theta

    F = f.values(grid)
    w, u = state.w, state.u
    A = np.where(state.M[k:, k:], platform.kernel, 0.0)
    wb, ub = w[k:], u[k:]
    au = A @ ub
    total = (A * F[k:, k:]) @ ub - wb * au - A @ (wb * ub)
    bellman = float(np.max(np.abs(wb - theta * total)))
    balance = float(np.max(np.abs(alpha * (1.0 - ub) - rho * au)))
    violations = int(np.sum(state.M != acceptance(F, w)))
    return bellman, balance, violations
