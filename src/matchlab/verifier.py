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

A report is certified (``AuditReport.certified``) when the kernel asymmetry
is at most ``core.CONSISTENCY_TOL``, every included type's net payoff is at
least ``-IR_TOL``, no deviation gains more than ``IC_TOL``, the Bellman and
balance residuals are at most ``core.RESIDUAL_TOL``, and no acceptance set
breaks the acceptance rule.  The brute-force inclusion oracle counts a
configuration as truthful by the same ``IC_TOL``; the involution oracle
finds the assortative pairing rent-minimal unless some pairing's rent lies
more than ``RENT_TOL`` below it.

Both flavors are priced in one scan, ``_incentive_gains``, a block of true
types at a time.  Inclusion is a cutoff there too, and no block holds rows
on both sides of it, so each block is priced one way: included rows by the
surplus product, excluded rows by the S0/S1 form.  It keeps a running
maximum over the blocks, so the n-by-n gain matrix is never built, adds the
excluded report that forfeits search, and returns the worst deviation;
``audit`` calls it with a platform's cutoff, and the brute-force oracle on
each masked configuration, its nodes relabelled so that the mask lies above
a cutoff, with the pairing as a permutation kernel and every type at
``u_star``.  ``audit`` holds no output table: the residuals and this scan
each evaluate the rows of one block at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    CONSISTENCY_TOL,
    RESIDUAL_TOL,
    DSEState,
    Platform,
    ProductionFunction,
    SearchParams,
    TypeGrid,
    _row_blocks,
    _slices,
    acceptance,
    make_grid,
)
from .designer import _envelope, enumerate_involutions, involution_rent, pairing_wage
from .solver import dse_residuals

__all__ = ["AuditReport", "audit", "prop4_oracle", "involution_oracle"]

#: A certified state gives no misreport a gain above this; the inclusion
#: oracle counts a masked configuration as truthful by the same bound.
IC_TOL = 1e-8
#: A certified state leaves every included type a net payoff above ``-IR_TOL``.
IR_TOL = 1e-12
#: The involution oracle counts a pairing as cheaper than the assortative one
#: only when its rent lies more than this below, so roundoff flips nothing.
RENT_TOL = 1e-12
#: Largest grids the exhaustive oracles scan.  Their work grows faster than
#: exponentially in the grid size: at 12 nodes the involution oracle prices
#: 140,152 pairings, about 5 s.
PROP4_MAX_N = 6
INVOLUTION_MAX_BLOCK = 12
#: True types per block of the incentive scan (see :func:`_incentive_gains`).
#: Thinner blocks slow the product: at n = 4000, blocks of 32 rows took
#: twice as long as one full product, blocks of 256 to 1024 rows about as
#: long (2-core Xeon).
_GAIN_ROWS = 256


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

    def certified(self) -> bool:
        """True when every audited property holds within its tolerance
        (see the module docstring); a value at its tolerance passes."""
        return (self.consistency_defect <= CONSISTENCY_TOL
                and self.ir_min_slack >= -IR_TOL
                and self.ic_max_violation <= IC_TOL
                and self.bellman_residual <= RESIDUAL_TOL
                and self.balance_residual <= RESIDUAL_TOL
                and self.acceptance_violations == 0)


def _incentive_gains(theta: float, F, w: np.ndarray, u: np.ndarray,
                     M: np.ndarray, G, t: np.ndarray,
                     k: int, grid: TypeGrid | None = None) -> tuple[float, tuple[int, int]]:
    """The worst deviation over every report: its gain and its (true,
    reported) node pair.

    ``w``, ``u``, ``M`` and ``t`` cover all ``n`` nodes, of which those from
    the cutoff ``k`` on are included, and ``G`` is the kernel over the
    ``m = n - k`` included ones: the :class:`~matchlab.core.Platform` that
    holds it, on whose diagonal kernel each product with ``G`` is a scaling
    of the columns, or the ``(m, m)`` matrix.  A dense product with ``G`` is
    taken against a block of kernel rows at a time, as many as a block of
    true types has rows, so a platform's kernel is read a block at a time
    and never held whole.  ``F`` is the n-by-n output table, or the
    :class:`~matchlab.core.ProductionFunction` whose table on ``grid`` it
    is; the scan reads the included columns of one block of rows at a time,
    evaluated then.  Gains are measured against the truthful net payoff
    ``w - t``, and a truthful report gains zero.  The gains of reporting an
    included type are priced a block of at most ``_GAIN_ROWS`` true types
    at a time, the blocks of excluded types (below ``k``) first, so each
    block takes one of the two pricings.  Each block is priced in the same
    two buffers (one on a diagonal kernel, where each product is in place),
    so the n-by-m gain matrix is never held whole; the worst of them is its
    first maximum in row-major order, as ``argmax`` finds it (a NaN wins).
    Reporting an excluded type forfeits search and pays nothing; its pair
    names the highest excluded node, ``k - 1``.
    """
    n, m = len(w), len(w) - k
    w_inc, u_inc, t_inc = w[k:], u[k:], t[k:]
    U = w - t                                        # truthful net payoff
    M_inc = M[:, k:]

    def outputs(rows):
        """``F[rows, k:]``, a fresh array the block may overwrite."""
        return F[rows, k:].copy() if grid is None else F.values(grid, rows, slice(k, n))

    if isinstance(G, Platform):
        diagonal, kernel_rows = G.is_diagonal, G.kernel_block
        G = G.runs[3] if diagonal else None  # the diagonal, on a diagonal kernel
    else:
        diagonal, kernel_rows = False, G.__getitem__
    height = min(_GAIN_ROWS, n)
    kernel_blocks = _slices(m, height)

    def times_kernel(X, out):
        """``X G^T`` into ``out``, its columns a block of kernel rows at a
        time; ``out`` must not be ``X``.  On a diagonal ``G`` it scales the
        columns, so ``out`` may be ``X`` itself, and adds zero: a sum of
        products gives +0.0 where ``X`` holds -0.0."""
        if not diagonal:
            for cols in kernel_blocks:
                np.matmul(X, kernel_rows(cols).T, out=out[:, cols])
            return out
        out = np.multiply(X, G, out=out)
        out += 0.0
        return out

    gain_rows = np.empty((height, m))
    # on a diagonal G every product is in place, so Mu can take S0's rows
    mu_rows = gain_rows if diagonal else np.empty((height, m))
    worst_gain, worst = None, None
    for rows in _slices(n, height, k):
        size = rows.stop - rows.start
        if rows.start < k:
            # excluded true types: the self-consistent theta S1 / (1 + theta S0),
            # S0 = sum_k M_ik G_jk u_k and S1 = sum_k M_ik (f_ik - w_k) G_jk u_k,
            # priced in the two block buffers and the block's outputs
            Mu = np.multiply(M_inc[rows], u_inc, out=mu_rows[:size])
            S1 = outputs(rows)
            S1 -= w_inc
            S1 *= Mu
            gains = times_kernel(Mu, gain_rows[:size])
            S1 = times_kernel(S1, S1 if diagonal else Mu)
            S1 *= theta
            gains *= theta
            gains += 1.0
            np.divide(S1, gains, out=gains)
            del S1  # before the next block is evaluated
            gains -= t_inc
        else:
            # included true types: theta sum_k M_ik (f_ik - w_i - w_k) G_jk u_k
            # - t_j - U_i, one product whose left factor, the masked surplus
            # times u, is built in place in the block's outputs
            surplus = outputs(rows)
            surplus -= w[rows, None]
            surplus -= w_inc
            surplus *= M_inc[rows]
            surplus *= u_inc
            gains = times_kernel(surplus, gain_rows[:size])
            del surplus  # before the next block is evaluated
            gains *= theta
            gains -= t_inc
            gains -= U[rows, None]
            truthful = np.arange(size)
            gains[truthful, rows.start - k + truthful] = 0.0
        bi, bj = np.unravel_index(int(gains.argmax()), gains.shape)
        gain = float(gains[bi, bj])
        # a later block takes over on a larger gain, or on a NaN over a number
        if worst_gain is None or (worst_gain == worst_gain and not gain <= worst_gain):
            worst_gain, worst = gain, (rows.start + int(bi), k + int(bj))
    if k:
        exc_gain = -U[k:]                            # less the truthful net payoff
        best = int(exc_gain.argmax())
        if float(exc_gain[best]) > worst_gain:
            worst_gain, worst = float(exc_gain[best]), (k + best, k - 1)
    return worst_gain, worst


def _row_smoothness(platform: Platform) -> float:
    """Max Wasserstein-1 distance between adjacent kernel rows over spacing.

    The ground metric is the type distance, so W1 equals the L1 distance of
    the row CDFs times the node spacing; dividing by the spacing between the
    adjacent types leaves the dimensionless modulus reported here.  The rows
    are read a block at a time (:meth:`~matchlab.core.Platform.kernel_block`).
    """
    m = platform.grid.n - platform.cutoff
    worst = 0.0
    # a block of the m - 1 row differences reads one kernel row past its end;
    # each row's cumulative sum is the same whatever block it lies in
    for diffs in _row_blocks(m - 1, m):
        cdf = platform.kernel_block(slice(diffs.start, diffs.stop + 1))
        np.cumsum(cdf, axis=1, out=cdf)
        gap = np.subtract(cdf[1:], cdf[:-1])
        np.abs(gap, out=gap)
        worst = max(worst, float(np.max(np.sum(gap, axis=1))))
        del cdf, gap  # before the next block is read
    return worst


def audit(platform: Platform, f: ProductionFunction, params: SearchParams,
          dse: DSEState) -> AuditReport:
    """Certify a platform / equilibrium pair.

    The incentive sweep covers all four deviation classes on the grid:
    included or excluded true types reporting included or excluded types
    (deviating to an excluded report forfeits search and pays nothing).
    """
    grid = platform.grid
    k = platform.cutoff
    x = grid.nodes
    U = dse.w - platform.transfers

    bell, bal, violations = dse_residuals(platform, f, params, dse)
    ic_max, (wi, wj) = _incentive_gains(params.theta, f, dse.w, dse.u, dse.M,
                                        platform, platform.transfers, k, grid)

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
# Brute-force oracles over inclusion masks and deterministic pairings
# ---------------------------------------------------------------------------


def _scan_grid(n: int, cap: int) -> TypeGrid:
    """``make_grid(n)`` for an exhaustive scan; raises ValueError above ``cap``."""
    grid = make_grid(n)
    if grid.n > cap:
        raise ValueError(f"the exhaustive scan is limited to grids of at most {cap} "
                         f"nodes, got {grid.n}")
    return grid


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
    pairing's permutation matrix and every type sits at ``u_star``.  A
    truthful report counts as a gain of zero, so the gain is never negative.
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
    # the scan takes inclusion as a cutoff: relabel the nodes, the others
    # first and the mask last, each in grid order, so the mask columns keep
    # their order; the gain does not depend on the labels, the pair does
    order = np.append(np.setdiff1d(np.arange(n), nodes), nodes)
    pairs = np.ix_(order, order)
    ic_max, _ = _incentive_gains(theta, F[pairs], w[order], np.full(n, u_star), accept[pairs],
                                 G, t[order], n - m)
    return ic_max, float(np.max(w_mask))


def prop4_oracle(n_small: int, f: ProductionFunction, params: SearchParams) -> bool:
    """Exhaustively test that certified inclusion sets are upper sets.

    Enumerates every nonempty inclusion mask on a small grid and every
    deterministic self-inverse pairing of its nodes, builds closed-form wages
    and envelope transfers, and audits truth-telling against ``IC_TOL``, the
    bound ``AuditReport.certified`` applies.  Returns True when no
    certified configuration has a non-upper inclusion mask.  Configurations
    whose wages are identically zero (degenerate zero-output markets, where
    inclusion carries no payoff) are exempt: the structural claim only bites
    when output strictly increases in type.  Raises ValueError for an
    ``n_small`` outside 2 to ``PROP4_MAX_N``.
    """
    grid = _scan_grid(n_small, PROP4_MAX_N)
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
                if ic_max <= IC_TOL and w_max > 0.0:
                    return False
    return True


def involution_oracle(block: int, f: ProductionFunction,
                      params: SearchParams) -> tuple[bool, int, float]:
    """Exhaustively test that the assortative pairing minimizes rent.

    Prices every involution of a ``block``-node grid, all of it included,
    with :func:`~matchlab.designer.involution_rent` and returns
    ``(minimal, scanned, identity_rent)``: whether no pairing's rent lies
    more than ``RENT_TOL`` below the identity's, the number of involutions
    scanned and the identity's rent.  Raises ValueError for a ``block``
    outside 2 to ``INVOLUTION_MAX_BLOCK``.
    """
    grid = _scan_grid(block, INVOLUTION_MAX_BLOCK)
    rents = [involution_rent(grid, f, params, 0, perm)
             for perm in enumerate_involutions(grid.n)]
    identity_rent = rents[0]  # enumerate_involutions yields the identity first
    floor = identity_rent - RENT_TOL
    return not any(rent < floor for rent in rents), len(rents), identity_rent
