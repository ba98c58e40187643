import csv

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


def csv_rows(path):
    """The rows of a CSV artifact as dicts keyed by its header line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def search_value(hazard, phi, params):
    """r times the value of an unmatched agent who meets acceptable partners
    at ``hazard``, earns flow ``phi`` while matched and divorces at rate
    ``alpha``: ``hazard * phi / (r + alpha + hazard)``."""
    return hazard * phi / (params.r + params.alpha + hazard)


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
