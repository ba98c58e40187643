import numpy as np
import pytest

from matchlab import ProductionFunction, SearchParams
from matchlab.core import format_float


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


def reference_csv(header, rows):
    """Artifact text of ``rows``, one line each: floats through ``format_float``,
    everything else through ``str``."""
    lines = [header] + [",".join(format_float(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def search_value(hazard, phi, params):
    """r times the value of an unmatched agent who meets acceptable partners
    at ``hazard``, earns flow ``phi`` while matched and divorces at rate
    ``alpha``: ``hazard * phi / (r + alpha + hazard)``."""
    return hazard * phi / (params.r + params.alpha + hazard)


def pooled_deviation(mean, se, target):
    """Largest per-node ``|mean - target|`` in pooled relative standard errors.

    Every node of an assortative platform runs the same dynamics scaled by
    its flow, so a payoff estimate has the same relative standard error at
    every node.  Pooling the squared relative errors over the nodes gives a
    scale with far more degrees of freedom than each node's own error from a
    handful of replications (the pooling criterion 3 applies to densities).
    ``target`` must be nonzero at every node.
    """
    rel = float(np.sqrt(np.mean((se / target) ** 2)))
    return float(np.max(np.abs(mean - target) / (rel * np.abs(target))))


def cubic_production(grid):
    """Tabulated f(x,y) = xy (x+y) / 2 with its exact derivative table.

    Strictly supermodular with a cubic diagonal, so none of the derivative
    or quadrature stencils in the transfer pipeline are exact on it; used to
    measure genuine convergence rates.
    """
    x = grid.nodes
    table = x[:, None] * x[None, :] * (x[:, None] + x[None, :]) / 2.0
    dx_table = x[:, None] * x[None, :] + x[None, :] ** 2 / 2.0
    return ProductionFunction.tabulated(grid, table, dx_table=dx_table)
