import copy
import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import matchlab
from matchlab import Platform, ProductionFunction, SearchParams, make_grid, pairing_wage, verifier
from matchlab.core import format_float

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def params():
    """Reference rates used across the worked examples."""
    return SearchParams(rho=1.0, alpha=0.5, r=0.05)


@pytest.fixture
def f_xy():
    return ProductionFunction.multiplicative()


def mixture_kernel(n: int, a: float, b: float) -> np.ndarray:
    """Symmetric row-stochastic kernel: identity + uniform + reversal mix."""
    c = max(0.0, 1.0 - a - b)  # guard roundoff when a + b lands on 1
    return a * np.eye(n) + (b / n) * np.ones((n, n)) + c * np.eye(n)[::-1]


def dense_kernel(kernel):
    """A platform's kernel as the dense matrix, read as one block
    (``kernel_block``); a kernel given as an array is returned as it is."""
    return kernel.kernel_block(slice(None)) if isinstance(kernel, Platform) else kernel


def dense_platform(platform):
    """``platform`` with its diagonal kernel taken for a dense one: the copy
    is built from the dense block and reads ``is_diagonal`` False, so every
    layer takes its dense path on it, the reference for its diagonal path."""
    held = Platform(grid=platform.grid, cutoff=platform.cutoff, kernel=dense_kernel(platform),
                    transfers=platform.transfers)
    object.__setattr__(held, "_diagonal", False)
    return held


def gain_args(platform, f, params, dse):
    """The incentive-scan arguments ``audit`` passes for a platform and its
    equilibrium: ``(theta, F, w, u, M, G, t, k)``, ``G`` the platform and
    ``k`` its cutoff."""
    return (params.theta, f.values(platform.grid), dse.w, dse.u, dse.M, platform,
            platform.transfers, platform.cutoff)


def two_product_gains(theta, F, w, u, M, G, t, k):
    """The full gain matrix, row = true type, column = included report, by
    the two products ``S0 = sum_k M_ik G_jk u_k`` and ``S1 = sum_k M_ik
    (f_ik - w_k) G_jk u_k``: ``theta (S1 - w_i S0)`` on included rows and
    ``theta S1 / (1 + theta S0)`` on excluded ones, less ``t_j`` and the
    truthful payoff, with truthful reports at zero; the nodes from the
    cutoff ``k`` on are included."""
    n = len(w)
    G = dense_kernel(G)
    U = w - t
    M_inc = M[:, k:]
    GU = (G * u[k:][None, :]).T
    S0 = M_inc.astype(float) @ GU
    S1 = (M_inc * (F[:, k:] - w[k:][None, :])) @ GU
    gains = theta * (S1 - w[:, None] * S0) - t[k:][None, :] - U[:, None]
    gains[:k] = theta * S1[:k] / (1.0 + theta * S0[:k]) - t[k:][None, :]
    gains[np.arange(k, n), np.arange(n - k)] = 0.0
    return gains


def one_shot_worst(gains, args):
    """The worst deviation read off the full gain matrix of the scan
    arguments ``args``: its first maximum in row-major order, unless
    reporting an excluded type, which pays nothing, gains more."""
    w, t, k = args[2], args[6], args[7]
    i, j = divmod(int(gains.argmax()), gains.shape[1])
    worst_gain, worst = float(gains[i, j]), (i, k + j)
    exc_gain = -(w[k:] - t[k:])
    if k and exc_gain.max() > worst_gain:
        worst_gain, worst = float(exc_gain.max()), (k + int(exc_gain.argmax()), k - 1)
    return worst_gain, worst


def mask_prices(n, f, params, mask, perm):
    """The wages and transfers the masked-configuration oracle prices a
    pairing ``perm`` of the ``mask`` nodes of an ``n``-node grid at, spelled
    node by node on the grid's own labels: pairing wages on the mask, and
    transfers by the trapezoid rule from the lowest mask node, where
    participation binds; both zero off the mask."""
    g = make_grid(n)
    x, F, Fx = g.nodes, f.values(g), f.dx_values(g)
    theta, u = params.theta, params.u_star
    m = len(mask)
    partner = [mask[p] for p in perm]
    w = np.zeros(n)
    for a in range(m):
        w[mask[a]] = pairing_wage(params, F[mask[a], partner[a]])

    def slope(a):
        i, j = mask[a], partner[a]
        lo, hi = max(a - 1, 0), min(a + 1, m - 1)
        wprime = 0.0 if lo == hi else (w[mask[hi]] - w[mask[lo]]) / (x[mask[hi]] - x[mask[lo]])
        return theta * u * (F[i, j] - w[i] - w[j] >= 0.0) * (Fx[i, j] - wprime)

    t = np.zeros(n)
    t[mask[0]] = w[mask[0]]
    cum = 0.0
    for a in range(1, m):
        cum += 0.5 * (slope(a - 1) + slope(a)) * (x[mask[a]] - x[mask[a - 1]])
        t[mask[a]] = w[mask[a]] - cum
    return w, t


def mask_config_ic(n, f, params, mask, perm):
    """The inclusion oracle's max incentive gain of the pairing ``perm`` of
    the ``mask`` nodes of an ``n``-node grid."""
    g = make_grid(n)
    return verifier._mask_config_ic(g.nodes, f.values(g), f.dx_values(g), params, mask, perm)[0]


def reference_csv(header, rows):
    """Artifact text of ``rows``, one line each: floats through ``format_float``,
    everything else through ``str``."""
    lines = [header] + [",".join(format_float(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_runs(matrix, k=0, header="i,j,j_last,G", values=True):
    """The bytes of a run-layout artifact of ``matrix``, found entry by entry:
    ``header``, then one line per maximal run of equal nonzero entries in a
    row, ``i,j,j_last`` with indices offset by the cutoff ``k``, and the run's
    value through ``format_float`` when ``values`` is set.  A platform is
    read as its dense kernel."""
    lines = [header]
    for r, row in enumerate(dense_kernel(matrix).tolist()):
        c = 0
        while c < len(row):
            last = c
            while last + 1 < len(row) and row[last + 1] == row[c]:
                last += 1
            if row[c] != 0:
                line = f"{r + k},{c + k},{last + k}"
                lines.append(f"{line},{format_float(row[c])}" if values else line)
            c = last + 1
    return ("\n".join(lines) + "\n").encode()


def csv_rows(path):
    """The rows of a CSV artifact as dicts keyed by its header line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def search_value(hazard, phi, params):
    """r times the value of an unmatched agent who meets acceptable partners
    at ``hazard``, earns flow ``phi`` while matched and divorces at rate
    ``alpha``: ``hazard * phi / (r + alpha + hazard)``."""
    return hazard * phi / (params.r + params.alpha + hazard)


class TabulatedWithDerivative(ProductionFunction):
    """A tabulated output whose first-argument derivative is read from a
    second table on the same grid, interpolated and clamped at the edges as
    the values are: exact at the nodes, where a plain table's derivative is
    a central difference."""

    def __init__(self, grid, table, dx_table):
        super().__init__("table", grid=grid, table=table)
        self._derivative = copy.copy(self)
        self._derivative._table = np.array(dx_table, dtype=float)

    def d_dx(self, x, y):
        return self._derivative.eval(x, y)


def cubic_production(grid):
    """Tabulated f(x,y) = xy (x+y) / 2 with its exact derivative table.

    Strictly supermodular with a cubic diagonal, so none of the derivative
    or quadrature stencils in the transfer pipeline are exact on it; used to
    measure genuine convergence rates.
    """
    x = grid.nodes
    table = x[:, None] * x[None, :] * (x[:, None] + x[None, :]) / 2.0
    dx_table = x[:, None] * x[None, :] + x[None, :] ** 2 / 2.0
    return TabulatedWithDerivative(grid, table, dx_table)


#: Ways a 4-node ``table.csv`` can fail to list every pair once, in row-major order.
TABLE_DAMAGES = ("missing", "repeated", "out-of-order", "header-only")


def write_table(path, damage=None):
    """Write the 4-node table ``f_ij = (i + 1)(j + 1) / 16`` to ``path``,
    with the named damage from ``TABLE_DAMAGES`` or complete; returns its path."""
    rows = [(i, j, (i + 1) * (j + 1) / 16) for i in range(4) for j in range(4)]
    rows = {None: rows,
            "missing": rows[1:],                            # (0, 0), worth 0.0625
            "repeated": rows[:2] + rows[1:],                # (0, 1) twice
            "out-of-order": [rows[1], rows[0]] + rows[2:],
            "header-only": []}[damage]
    path.write_text(reference_csv("i,j,f", rows))
    return str(path)


def fresh_python(code, **env):
    """Run ``code`` in a new interpreter whose environment has none of the
    BLAS thread variables, plus ``env``, and which imports from matchlab's
    source and this test directory; returns its stdout."""
    src = os.path.dirname(os.path.dirname(matchlab.__file__))
    base = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
