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

Both flavors, and the excluded report that forfeits search, are priced by
one array function, ``_incentive_gains``.  ``deviation_gains`` is its public
read, the full gain matrix; ``audit`` calls it on a platform's included
block for the worst deviation; the brute-force oracle calls it on each
masked configuration, with the pairing as a permutation kernel and every
type at ``u_star``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DSEState, Platform, ProductionFunction, SearchParams, acceptance, make_grid
from .designer import _envelope, _involution, enumerate_involutions, pairing_wage
from .solver import dse_residuals

__all__ = ["AuditReport", "deviation_gains", "audit", "masked_config_ic",
           "prop4_oracle"]


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


def _incentive_gains(theta: float, F: np.ndarray, w: np.ndarray, u: np.ndarray,
                     M: np.ndarray, G: np.ndarray, t: np.ndarray,
                     inc) -> tuple[np.ndarray, float, tuple[int, int]]:
    """Incentive gains of every true type, and the worst deviation.

    ``F``, ``w``, ``u``, ``M`` and ``t`` cover all ``n`` nodes; ``inc`` picks
    the ``m`` included ones (``slice(k, n)`` on a platform, so ``F[:, inc]``
    is a view) and ``G`` is the ``(m, m)`` kernel over them.  Returns the
    ``(n, m)`` gains of reporting each included type, with truthful reports at
    zero, and the worst gain over every report with its (true, reported) node
    pair.  Reporting an excluded type forfeits search and pays nothing; its
    pair names the highest excluded node.
    """
    n = len(w)
    w_inc, t_inc = w[inc], t[inc]
    U = w - t                                        # truthful net payoff
    M_inc = M[:, inc]
    GU = (G * u[inc][None, :]).T                     # (m, m): column j weights
    S0 = M_inc.astype(float) @ GU                    # sum_k M_ik G_jk u_k
    S1 = (M_inc * (F[:, inc] - w_inc[None, :])) @ GU  # sum_k M_ik (f_ik - w_k) G_jk u_k
    gains = theta * (S1 - w[:, None] * S0) - t_inc[None, :] - U[:, None]
    excluded = np.ones(n, dtype=bool)
    excluded[inc] = False
    gains[excluded] = theta * S1[excluded] / (1.0 + theta * S0[excluded]) - t_inc[None, :]
    rows = np.arange(n)[inc]
    m = len(rows)
    gains[rows, np.arange(m)] = 0.0

    wi, wj = divmod(int(gains.argmax()), m)
    worst_gain, worst = float(gains[wi, wj]), (wi, int(rows[wj]))
    if m < n:
        exc_gain = -U[inc]
        best = int(exc_gain.argmax())
        if float(exc_gain[best]) > worst_gain:
            top_excluded = int(np.flatnonzero(excluded)[-1])
            worst_gain, worst = float(exc_gain[best]), (int(rows[best]), top_excluded)
    return gains, worst_gain, worst


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
    grid = platform.grid
    gains, _, _ = _incentive_gains(params.theta, f.values(grid), dse.w, dse.u, dse.M,
                                   platform.kernel, platform.transfers,
                                   slice(platform.cutoff, grid.n))
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
    _, ic_max, (wi, wj) = _incentive_gains(params.theta, f.values(grid), dse.w, dse.u, dse.M,
                                           platform.kernel, platform.transfers, slice(k, n))

    return AuditReport(
        consistency_defect=platform.consistency_defect(),
        ir_min_slack=float(np.min(U[k:])),
        ic_max_violation=ic_max,
        worst_misreport=(float(x[wi]), float(x[wj])),
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
    participation constraint binding at the lowest one.  The kernel is the
    pairing's permutation matrix and every type sits at ``u_star``.
    """
    theta, u_star = params.theta, params.u_star
    n, m = len(x), len(mask)
    nodes, perm = np.asarray(mask), list(perm)
    xm = x[nodes]
    partners = nodes[perm]

    w_mask = pairing_wage(params, F[nodes, partners])
    w = np.zeros(n)
    w[nodes] = w_mask
    accept = acceptance(F, w)

    slope = theta * u_star * accept[nodes, partners] * (
        Fx[nodes, partners] - _nonuniform_derivative(w_mask, xm))
    t = np.zeros(n)
    t[nodes] = _envelope(w_mask, slope, np.diff(xm))

    G = np.zeros((m, m))
    G[np.arange(m), perm] = 1.0
    _, ic_max, _ = _incentive_gains(theta, F, w, np.full(n, u_star), accept, G, t, nodes)
    return ic_max, float(np.max(w_mask))


def masked_config_ic(n_small: int, f: ProductionFunction, params: SearchParams,
                     mask: tuple, perm: tuple) -> float:
    """Max incentive gain of one masked deterministic configuration.

    ``mask`` lists the included node indices of an ``n_small`` grid and
    ``perm`` the self-inverse pairing of the mask positions.  Positive values
    mean some type strictly prefers misreporting.  A truthful report counts
    as a gain of zero, so the value is never negative.  Raises ValueError
    unless ``mask`` is nonempty and strictly increasing within
    ``range(n_small)`` and ``perm`` is an involution of ``range(len(mask))``.
    """
    mask = tuple(int(i) for i in mask)
    if not (mask and 0 <= mask[0] and mask[-1] < n_small
            and all(a < b for a, b in zip(mask, mask[1:]))):
        raise ValueError(f"mask {mask} is not a nonempty strictly increasing "
                         f"subset of range({n_small})")
    perm = _involution(perm, len(mask))
    grid = make_grid(n_small)
    ic_max, _ = _mask_config_ic(grid.nodes, f.values(grid), f.dx_values(grid),
                                params, mask, perm)
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
