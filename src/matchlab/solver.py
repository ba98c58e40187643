"""Damped fixed-point solver for steady-state search equilibria.

Given a consistent platform, the equilibrium is a wage vector ``w`` on the
included nodes such that, with the acceptance sets ``M`` and steady-state
unmatched densities ``u`` induced by ``w``:

* Bellman:   ``w_i = theta * sum_j M_ij (f_ij - w_i - w_j) G_ij u_j``
* balance:   ``alpha (1 - u_i) = rho * sum_j M_ij G_ij u_j``
* optimality: ``M_ij = 1  iff  f_ij - w_i - w_j >= 0``

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
)

__all__ = ["SolverConfig", "solve_dse", "dse_residuals", "steady_state_density"]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration limits for :func:`solve_dse`.

    ``tol_w`` bounds the max-norm Bellman residual of the returned wage,
    ``tol_u`` the scaled balance residual of the returned density.  Damping
    ``0 < damping <= 1`` mixes each closed-form row update into the iterate;
    the default 0.5 stabilizes acceptance-set flips.
    """

    tol_w: float = 1e-10
    tol_u: float = 1e-12
    max_outer: int = 100_000
    max_inner: int = 10_000
    damping: float = 0.5
    w_init: str = "zeros"

    def __post_init__(self):
        if not (self.tol_w > 0 and self.tol_u > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.w_init not in ("zeros", "first-best-guess"):
            raise ValueError(f"unknown w_init {self.w_init!r}")


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
    acceptance matrix over all node pairs.  ``w_start`` (full-length wage
    vector) overrides the configured initial guess, which is how warm restarts
    are expressed.

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

    if w_start is not None:
        w = np.asarray(w_start, dtype=float)[k:].copy()
    elif cfg.w_init == "first-best-guess":
        coeff = rho * alpha / (2.0 * ((params.r + alpha) * (alpha + rho) + rho * alpha))
        w = coeff * fdiag
    else:
        w = np.zeros(m)

    u_included = alpha / (alpha + rho)
    w_out = w
    u = np.full(m, u_included)
    bell = np.inf
    iterations = 0

    for iterations in range(1, cfg.max_outer + 1):
        if diagonal_kernel:
            gdiag = np.diagonal(G)
            acc = (fdiag - 2.0 * w) >= 0.0
            a = np.where(acc, gdiag, 0.0)
            # balance is node-by-node here and solves exactly
            u = np.where(acc & (gdiag > 0), alpha / (alpha + rho * a), 1.0)
            au = a * u
            numer = theta * acc * (fdiag - w) * gdiag * u
        else:
            S = Fb - w[:, None] - w[None, :]
            M = S >= 0.0
            A = np.where(M, G, 0.0)
            u = steady_state_density(A, params)
            au = A @ u
            numer = theta * ((A * Fb) @ u - A @ (w * u))
        denom = 1.0 + theta * au
        w_new = numer / denom
        # |denom * (w - w_new)| is exactly the Bellman residual at w given (M, u)
        bell = float(np.max(np.abs(denom * (w - w_new)))) if m else 0.0
        if bell <= cfg.tol_w:
            w_out = w
            break
        w = (1.0 - cfg.damping) * w + cfg.damping * w_new
    else:
        bal = float(np.max(np.abs(alpha * (1.0 - u) - rho * au)))
        raise NonConvergenceError(
            f"no convergence after {cfg.max_outer} sweeps "
            f"(bellman residual {bell:g}, balance residual {bal:g})",
            bellman_residual=bell, balance_residual=bal, iterations=cfg.max_outer)

    balance = float(np.max(np.abs(alpha * (1.0 - u) - rho * au)))
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
    w_full[k:] = w_out
    u_full = np.ones(n)
    u_full[k:] = u
    M_full = (F - w_full[:, None] - w_full[None, :]) >= 0.0

    return DSEState(w=w_full, u=u_full, M=M_full,
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
    bellman = float(np.max(np.abs(wb - theta * total))) if n - k else 0.0
    balance = float(np.max(np.abs(alpha * (1.0 - ub) - rho * au))) if n - k else 0.0

    expected = (F - w[:, None] - w[None, :]) >= 0.0
    violations = int(np.sum(state.M != expected))
    return bellman, balance, violations
