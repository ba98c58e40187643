"""matchlab: steady-state search equilibria and platform design on type grids.

Public names resolve on first use (PEP 562), so ``import matchlab`` loads
no numpy: the command-line front end can pin BLAS to one thread before
anything starts one.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    "DSEState": "core",
    "MatchlabError": "core",
    "NonConvergenceError": "core",
    "Platform": "core",
    "ProductionFunction": "core",
    "SearchParams": "core",
    "TypeGrid": "core",
    "load_platform": "core",
    "make_grid": "core",
    "save_platform": "core",
    "DesignResult": "designer",
    "ExclusionResult": "designer",
    "design": "designer",
    "enumerate_involutions": "designer",
    "envelope_transfers": "designer",
    "first_best_platform": "designer",
    "first_best_wage_coefficient": "designer",
    "glitch": "designer",
    "informational_rent": "designer",
    "involution_rent": "designer",
    "optimal_exclusion": "designer",
    "pairing_wage": "designer",
    "private_info_transfers": "designer",
    "transfer_coefficient": "designer",
    "SimConfig": "simulator",
    "SimOutcome": "simulator",
    "pooled_deviations": "simulator",
    "simulate": "simulator",
    "SolverConfig": "solver",
    "dse_residuals": "solver",
    "solve_dse": "solver",
    "AuditReport": "verifier",
    "audit": "verifier",
    "involution_oracle": "verifier",
    "prop4_oracle": "verifier",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
