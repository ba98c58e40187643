"""matchlab: steady-state search equilibria and platform design on type grids."""

__version__ = "0.1.0"

from .core import (
    DSEState,
    MatchlabError,
    NonConvergenceError,
    Platform,
    ProductionFunction,
    SearchParams,
    TypeGrid,
    load_platform,
    make_grid,
    save_platform,
)
from .designer import (
    DesignResult,
    ExclusionResult,
    design,
    enumerate_involutions,
    envelope_transfers,
    first_best_platform,
    first_best_wage_coefficient,
    glitch,
    informational_rent,
    involution_rent,
    optimal_exclusion,
    pairing_wage,
    private_info_transfers,
    transfer_coefficient,
)
from .simulator import SimConfig, SimOutcome, pooled_deviations, simulate
from .solver import SolverConfig, dse_residuals, solve_dse
from .verifier import AuditReport, audit, involution_oracle, prop4_oracle

__all__ = [
    "__version__",
    "AuditReport",
    "DesignResult",
    "DSEState",
    "ExclusionResult",
    "MatchlabError",
    "NonConvergenceError",
    "Platform",
    "ProductionFunction",
    "SearchParams",
    "SimConfig",
    "SimOutcome",
    "SolverConfig",
    "TypeGrid",
    "audit",
    "design",
    "dse_residuals",
    "enumerate_involutions",
    "envelope_transfers",
    "first_best_platform",
    "first_best_wage_coefficient",
    "glitch",
    "informational_rent",
    "involution_oracle",
    "involution_rent",
    "load_platform",
    "make_grid",
    "optimal_exclusion",
    "pairing_wage",
    "pooled_deviations",
    "private_info_transfers",
    "prop4_oracle",
    "save_platform",
    "simulate",
    "solve_dse",
    "transfer_coefficient",
]
