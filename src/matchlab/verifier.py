"""Independent certification of platform / equilibrium pairs.

Checks are recomputed from raw inputs: kernel consistency, participation
(IR), truth-telling (IC) through deviation values and a kernel-row
smoothness diagnostic.  Inclusion is an upper set by construction of
``Platform``; a small-grid brute-force scan over inclusion masks and
deterministic pairings backs the structural claim that certified inclusion
sets are upper sets.

Deviation values come in two flavors.  An included type reporting another
included type is valued by the non-recursive expression
``theta * sum_k M_ik (f_ik - w_i - w_k) G_jk u_k`` (their own continuation is
their equilibrium wage).  An excluded type has zero equilibrium wage, and the
non-recursive expression then double-counts the deviation payoff; it jumps at
the inclusion cutoff and would flag spurious violations on optimally designed
platforms.  Excluded-type deviations are therefore valued self-consistently:
``v = theta * S1 / (1 + theta * S0)`` with ``S1 = sum_k M_ik (f_ik - w_k)
G_jk u_k`` and ``S0 = sum_k M_ik G_jk u_k``, which is continuous at the
cutoff and reduces to the wage there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DSEState, Platform, ProductionFunction, SearchParams, acceptance, make_grid
from .designer import enumerate_involutions, pairing_wage
from .solver import dse_residuals

__all__ = ["AuditReport", "misreport_value", "deviation_gains", "audit",
           "masked_config_ic", "prop4_oracle"]


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Certification summary; reproducible bit-exactly from its inputs."""

    consistency_defect: float
    ir_min_slack: float
    ic_max_violation: float
    worst_misreport: tuple
    bellman_residual: float
    balance_residual: float
    acceptance_violations: int
    row_smoothness: float

    def certified(self, ic_tol: float = 1e-8, ir_tol: float = 1e-12,
                  consistency_tol: float = 1e-10, residual_tol: float = 1e-6) -> bool:
        """True when every audited property holds within tolerance."""
        return (self.consistency_defect <= consistency_tol
                and self.ir_min_slack >= -ir_tol
                and self.ic_max_violation <= ic_tol
                and self.bellman_residual <= residual_tol
                and self.balance_residual <= residual_tol
                and self.acceptance_violations == 0)


def misreport_value(platform: Platform, f: ProductionFunction, params: SearchParams,
                    dse: DSEState, i: int, j: int) -> float:
    """Deviation payoff of true type ``i`` reporting type ``j``.

    Uses the non-recursive valuation: surplus terms keep the true type's
    equilibrium wage as disagreement point, weighted by the reported row of
    the kernel and the unmatched density.  Excluded reports are worth zero.
    """
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"node indices ({i}, {j}) out of range for n={n}")
    if j < k:
        return 0.0
    x = grid.nodes
    inc = slice(k, n)
    frow = np.asarray(f.eval(x[i], x[inc]), dtype=float)
    terms = dse.M[i, inc] * (frow - dse.w[i] - dse.w[inc])
    weights = platform.kernel[j - k, :] * dse.u[inc]
    return float(params.theta * np.dot(terms, weights))


def _deviation_values(platform: Platform, f: ProductionFunction, params: SearchParams,
                      dse: DSEState) -> tuple[np.ndarray, np.ndarray]:
    """(non-recursive, recursive) deviation value matrices, shape (n, m)."""
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    theta = params.theta
    F = f.values(grid)[:, k:]
    w, u = dse.w, dse.u[k:]
    M = dse.M[:, k:]
    GU = (platform.kernel * u[None, :]).T            # (m, m): column j weights
    S0 = M.astype(float) @ GU                        # sum_k M_ik G_jk u_k
    S1 = (M * (F - w[k:][None, :])) @ GU             # sum_k M_ik (f_ik - w_k) G_jk u_k
    plain = theta * (S1 - w[:, None] * S0)
    recursive = theta * S1 / (1.0 + theta * S0)
    return plain, recursive


def _row_smoothness(platform: Platform) -> float:
    """Max Wasserstein-1 distance between adjacent kernel rows over spacing.

    The ground metric is the type distance, so W1 equals the L1 distance of
    the row CDFs times the node spacing; dividing by the spacing between the
    adjacent types leaves the dimensionless modulus reported here.
    """
    G = platform.kernel
    if G.shape[0] < 2:
        return 0.0
    cdf = np.cumsum(G, axis=1)
    return float(np.max(np.sum(np.abs(np.diff(cdf, axis=0)), axis=1)))


def deviation_gains(platform: Platform, f: ProductionFunction, params: SearchParams,
                    dse: DSEState) -> np.ndarray:
    """Incentive gains of reporting included type ``j`` for every true type.

    Shape ``(n, n_included)``: row = true type, column = included report.
    Gains are measured against the truthful net payoff ``w - t`` (zero for
    excluded types).  The diagonal (truthful reports) is zero by construction.
    """
    n, k = platform.grid.n, platform.cutoff
    t = platform.transfers
    U = dse.w - t
    plain, recursive = _deviation_values(platform, f, params, dse)
    gains = np.empty((n, n - k))
    gains[k:, :] = plain[k:, :] - t[None, k:] - U[k:, None]
    if k:
        gains[:k, :] = recursive[:k, :] - t[None, k:]
    np.fill_diagonal(gains[k:, :], 0.0)
    return gains


def audit(platform: Platform, f: ProductionFunction, params: SearchParams,
          dse: DSEState) -> AuditReport:
    """Certify a platform / equilibrium pair.

    The incentive sweep covers all four deviation classes on the grid:
    included or excluded true types reporting included or excluded types
    (deviating to an excluded report forfeits search and pays nothing).
    """
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    x = grid.nodes
    U = dse.w - platform.transfers

    bell, bal, violations = dse_residuals(platform, f, params, dse)
    gains = deviation_gains(platform, f, params, dse)

    flat = int(np.argmax(gains))
    wi, wj = divmod(flat, n - k)
    ic_max = float(gains[wi, wj])
    worst = (float(x[wi]), float(x[wj + k]))
    if k:
        # included types reporting an excluded type walk away with nothing
        exc_gain = -U[k:]
        best = int(np.argmax(exc_gain))
        if float(exc_gain[best]) > ic_max:
            ic_max = float(exc_gain[best])
            worst = (float(x[k + best]), float(x[k - 1]))

    return AuditReport(
        consistency_defect=platform.consistency_defect(),
        ir_min_slack=float(np.min(U[k:])),
        ic_max_violation=ic_max,
        worst_misreport=worst,
        bellman_residual=bell,
        balance_residual=bal,
        acceptance_violations=violations,
        row_smoothness=_row_smoothness(platform),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle over inclusion masks and deterministic pairings
# ---------------------------------------------------------------------------


def _nonuniform_derivative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """First derivative on possibly unevenly spaced nodes."""
    m = len(values)
    if m == 1:
        return np.zeros(1)
    d = np.empty(m)
    d[0] = (values[1] - values[0]) / (xs[1] - xs[0])
    d[-1] = (values[-1] - values[-2]) / (xs[-1] - xs[-2])
    if m > 2:
        d[1:-1] = (values[2:] - values[:-2]) / (xs[2:] - xs[:-2])
    return d


def _mask_config_ic(x: np.ndarray, F: np.ndarray, Fx: np.ndarray,
                    params: SearchParams, mask: tuple, perm: tuple) -> tuple[float, float]:
    """(max IC gain, max wage) of a deterministic masked configuration.

    Wages follow the deterministic-platform closed form; transfers come from
    the local truth-telling condition integrated over the mask nodes with the
    participation constraint binding at the lowest one.
    """
    theta, u_star = params.theta, params.u_star
    nodes = list(mask)
    m = len(nodes)
    xm = x[nodes]
    partner_pos = list(perm)
    partner_nodes = [nodes[p] for p in partner_pos]

    w_mask = pairing_wage(params, np.array([F[nodes[a], partner_nodes[a]] for a in range(m)]))
    w = np.zeros(len(x))
    w[nodes] = w_mask

    accept = acceptance(F, w)

    wprime = _nonuniform_derivative(w_mask, xm)
    slope = np.array([
        theta * u_star * accept[nodes[a], partner_nodes[a]]
        * (Fx[nodes[a], partner_nodes[a]] - wprime[a])
        for a in range(m)
    ])
    cum = np.zeros(m)
    for a in range(1, m):
        cum[a] = cum[a - 1] + 0.5 * (slope[a - 1] + slope[a]) * (xm[a] - xm[a - 1])
    t_mask = w_mask - cum

    node_set = set(nodes)
    excluded = [e for e in range(len(x)) if e not in node_set]
    worst = -np.inf

    for a in range(m):                      # true included type at mask position a
        base = w_mask[a] - t_mask[a]
        for b in range(m):                  # reported included type
            if a == b:
                continue
            pb = partner_nodes[b]
            gain = (theta * u_star * accept[nodes[a], pb]
                    * (F[nodes[a], pb] - w_mask[a] - w[pb]) - t_mask[b]) - base
            worst = max(worst, gain)
        if excluded:
            worst = max(worst, -base)       # report an excluded type, get nothing

    for e in excluded:                      # true excluded type, zero wage
        for b in range(m):
            pb = partner_nodes[b]
            if accept[e, pb]:
                s0 = u_star
                s1 = u_star * (F[e, pb] - w[pb])
            else:
                s0 = s1 = 0.0
            value = theta * s1 / (1.0 + theta * s0)
            worst = max(worst, value - t_mask[b])

    return float(worst), float(np.max(w_mask))


def masked_config_ic(n_small: int, f: ProductionFunction, params: SearchParams,
                     mask: tuple, perm: tuple) -> float:
    """Max incentive gain of one masked deterministic configuration.

    ``mask`` lists the included node indices of an ``n_small`` grid and
    ``perm`` the self-inverse pairing of the mask positions.  Positive values
    mean some type strictly prefers misreporting.
    """
    grid = make_grid(n_small)
    ic_max, _ = _mask_config_ic(grid.nodes, f.values(grid), f.dx_values(grid),
                                params, tuple(mask), tuple(perm))
    return ic_max


def prop4_oracle(n_small: int, f: ProductionFunction, params: SearchParams,
                 ic_tol: float = 1e-9) -> bool:
    """Exhaustively test that certified inclusion sets are upper sets.

    Enumerates every nonempty inclusion mask on a small grid and every
    deterministic self-inverse pairing of its nodes, builds closed-form wages
    and envelope transfers, and audits truth-telling.  Returns True when no
    certified configuration has a non-upper inclusion mask.  Configurations
    whose wages are identically zero (degenerate zero-output markets, where
    inclusion carries no payoff) are exempt: the structural claim only bites
    when output strictly increases in type.
    """
    if n_small > 6:
        raise ValueError("the exhaustive scan is limited to n_small <= 6")
    grid = make_grid(n_small)
    x = grid.nodes
    F = f.values(grid)
    Fx = f.dx_values(grid)

    for size in range(1, n_small + 1):
        for mask in itertools.combinations(range(n_small), size):
            is_upper = mask[0] == n_small - size
            if is_upper:
                continue
            for perm in enumerate_involutions(size):
                ic_max, w_max = _mask_config_ic(x, F, Fx, params, mask, perm)
                if ic_max <= ic_tol and w_max > 0.0:
                    return False
    return True
