"""Command-line front end: reproducible runs into artifact directories.

Commands: solve, simulate, design, verify, sweep, oracle.  Options resolve
in three layers: built-in defaults, then a flat key=value config file, then
command-line flags.  Every run writes ``manifest.txt`` echoing the resolved
configuration and tool version; all CSV artifacts write each float as the
shortest text that reads back to the same bits, with LF line endings, so
identical runs are byte-identical.

Exit codes: 0 success / certified, 1 certification failure, 2 configuration
error or a failed allocation, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from typing import get_type_hints

# ``--jobs`` worker processes are matchlab's one parallelism, so each process
# runs BLAS on one thread: OpenBLAS's extra thread busy-waits after every call
# and competes with the workers.  This must precede the first numpy import; a
# count the user set in any of the three variables is left as it is, and the
# workers inherit the setting.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from . import __version__
from .core import (
    DSEState,
    NonConvergenceError,
    ProductionFunction,
    SearchParams,
    acceptance,
    available_cpus,
    format_float,
    load_platform,
    load_table,
    make_grid,
    manifest_value,
    ordered_map,
    read_columns,
    read_manifest,
    read_node_columns,
    row_runs,
    save_platform,
    write_columns,
    write_lines,
)
from .designer import (
    design,
    first_best_platform,
    first_best_wage_coefficient,
    glitch,
    optimal_exclusion,
    transfer_coefficient,
)
from .simulator import SimConfig, check_discount_window, simulate
from .solver import SolverConfig, solve_dse
from .verifier import (
    INVOLUTION_MAX_BLOCK,
    PROP4_MAX_N,
    _scan_grid,
    audit,
    involution_oracle,
    prop4_oracle,
)

__all__ = ["RunConfig", "ConfigError", "run", "main"]

class ConfigError(Exception):
    """Bad configuration file or flag combination (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    command: str = "solve"
    n: int = 100
    rho: float = 1.0
    alpha: float = 0.5
    r: float = 0.05
    f: str = "xy"
    c: float = 0.0
    table: str = ""
    cutoff: str = "0"          # node value, or "auto" (design only)
    platform: str = ""          # artifact directory to load instead of first-best
    epsilon: str = ""           # glitch weight, empty for none
    seed: int = SimConfig.seed
    out: str = "out"
    jobs: int = 0               # worker processes; 0 = every available CPU
    # solver overrides
    tol_w: float = SolverConfig.tol_w
    tol_u: float = SolverConfig.tol_u
    max_outer: int = SolverConfig.max_outer
    # simulation overrides
    agents_per_node: int = SimConfig.agents_per_node
    horizon: float = SimConfig.horizon
    burn_in: float = SimConfig.burn_in
    replications: int = 4       # SimConfig's default is 1
    event_log: bool = False
    # oracle sizes
    oracle_n: int = 4
    involution_block: int = 5
    # sweep lists (comma separated)
    sweep_rho: str = ""
    sweep_alpha: str = ""
    sweep_r: str = ""


#: Each key's type, read from the annotations of ``RunConfig``.
_FIELD_TYPES = get_type_hints(RunConfig)


def parse_config_file(path: str) -> dict:
    """Read a flat key=value file; '#' starts a comment, unknown keys fail."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not text
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    overrides: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES or key == "command":
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        overrides[key] = _coerce(key, value, f"{path}:{lineno}")
    return overrides


def _coerce(key: str, value: str, where: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {key}={value!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.config:
        cfg = replace(cfg, **parse_config_file(args.config))
    # every parser option other than command and config is a RunConfig key
    flag_overrides = {key: value for key, value in vars(args).items()
                      if key not in ("command", "config") and value is not None}
    if flag_overrides:
        cfg = replace(cfg, **flag_overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.n < 2:
        raise ConfigError(f"n must be at least 2, got {cfg.n}")
    _search_params(cfg.rho, cfg.alpha, cfg.r)
    if cfg.f not in ("xy", "xy+c", "table"):
        raise ConfigError(f"f must be one of xy, xy+c, table; got {cfg.f!r}")
    if cfg.f == "table" and not cfg.table:
        raise ConfigError("f=table requires a table= path")
    if cfg.cutoff != "auto":
        try:
            value = float(cfg.cutoff)
        except ValueError:
            raise ConfigError(f"cutoff must be a number or 'auto', got {cfg.cutoff!r}") from None
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"cutoff must lie in [0, 1), got {value}")
    elif cfg.command != "design":
        raise ConfigError("cutoff=auto is only meaningful for the design command")
    if cfg.epsilon:
        try:
            eps = float(cfg.epsilon)
        except ValueError:
            raise ConfigError(f"epsilon must be a number, got {cfg.epsilon!r}") from None
        if not 0.0 <= eps <= 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1], got {eps}")
    if cfg.platform and not os.path.isdir(cfg.platform):
        raise ConfigError(f"platform directory not found: {cfg.platform}")
    if cfg.table and not os.path.exists(cfg.table):
        raise ConfigError(f"table file not found: {cfg.table}")
    if cfg.jobs < 0:
        raise ConfigError(f"jobs must be 0 (every available CPU) or more, got {cfg.jobs}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    # a file in the way of --out fails the run before any work
    ancestor = os.path.abspath(cfg.out)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError(f"cannot create output directory {cfg.out}: "
                          f"{ancestor} is not a directory")


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


@contextmanager
def _reading(path: str):
    """Report a missing or malformed input artifact as a config error."""
    try:
        yield
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


@contextmanager
def _refused(prefix: str = ""):
    """Report a value a layer refuses, its ValueError, as a config error
    with the same message after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _production(cfg: RunConfig, grid) -> ProductionFunction:
    """The production function; data it refuses is a config error."""
    if cfg.f == "table":
        with _reading(cfg.table):
            return load_table(cfg.table, grid)
    with _refused():
        return ProductionFunction(cfg.f, c=cfg.c)


def _search_params(rho: float, alpha: float, r: float) -> SearchParams:
    """The rates as :class:`SearchParams`; rates it refuses are a config error."""
    with _refused():
        return SearchParams(rho=rho, alpha=alpha, r=r)


def _sim_config(cfg: RunConfig, params: SearchParams) -> SimConfig:
    """The simulation plan; a plan the simulator refuses is a config error."""
    with _refused():
        sim_cfg = SimConfig(agents_per_node=cfg.agents_per_node, horizon=cfg.horizon,
                            burn_in=cfg.burn_in, seed=cfg.seed,
                            replications=cfg.replications, collect_events=cfg.event_log)
        check_discount_window(params, sim_cfg)
    return sim_cfg


def _workers(cfg: RunConfig) -> int:
    """The worker processes a run may use: ``jobs``, or every available CPU for 0."""
    return cfg.jobs or available_cpus()


def _cutoff_index(cfg: RunConfig, grid) -> int:
    """The first included node; a cutoff above the top node is a config error."""
    value = float(cfg.cutoff)
    index = int(np.searchsorted(grid.nodes, value, side="left"))
    if index == grid.n:
        raise ConfigError(f"cutoff {value:g} lies above the top grid node "
                          f"{grid.nodes[-1]:g}, so no type is included")
    return index


def _solver_config(cfg: RunConfig) -> SolverConfig:
    """The solver settings; settings the solver refuses are a config error."""
    with _refused():
        return SolverConfig(tol_w=cfg.tol_w, tol_u=cfg.tol_u, max_outer=cfg.max_outer)


def _resolve_platform(cfg: RunConfig):
    """(platform, production) from a directory or the built-in family."""
    if cfg.platform:
        with _reading(cfg.platform):
            platform, production = load_platform(cfg.platform)
            platform.require_consistent()
    else:
        grid = make_grid(cfg.n)
        production = _production(cfg, grid)
        platform = first_best_platform(grid, _cutoff_index(cfg, grid))
    if cfg.epsilon:
        platform = glitch(platform, float(cfg.epsilon))
    return platform, production


def _output_dir(path: str) -> None:
    """Create the output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, say, or a NUL byte
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def _write_manifest(cfg: RunConfig, outdir: str, extra: dict | None = None) -> None:
    """Merge the resolved run config into the directory manifest.

    Platform-level keys written by ``save_platform`` (n, cutoff, f.kind, f.c)
    are authoritative and kept; the run-level requests that could shadow them
    are stored as ``n_request``, ``cutoff_request`` and ``platform_source``.
    Keys are sorted so identical runs produce byte-identical manifests.
    """
    path = os.path.join(outdir, "manifest.txt")
    merged: dict = {}
    if os.path.exists(path):
        merged.update(read_manifest(path))
    merged["tool"] = f"matchlab {__version__}"
    merged["command"] = cfg.command
    renames = {"cutoff": "cutoff_request", "platform": "platform_source",
               "n": "n_request"}
    for field in fields(RunConfig):
        if field.name == "command":
            continue
        value = getattr(cfg, field.name)
        if isinstance(value, float):
            value = format_float(value)
        merged[renames.get(field.name, field.name)] = str(value)
    for key, value in (extra or {}).items():
        merged[key] = str(value)
    write_lines(path, [f"{key}={merged[key]}" for key in sorted(merged)])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_dse(outdir: str, grid, state: DSEState) -> None:
    write_columns(os.path.join(outdir, "dse.csv"), "i,x,w,u",
                  [np.arange(grid.n), grid.nodes, state.w, state.u])


def _write_acceptance(outdir: str, state: DSEState) -> None:
    # every run is of accepted pairs, so the value column is left out
    rows, cols, lasts, _ = row_runs(state.M)
    write_columns(os.path.join(outdir, "acceptance.csv"), "i,j,j_last", [rows, cols, lasts])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig) -> int:
    return _solve(cfg, *_resolve_platform(cfg))


def _solve(cfg: RunConfig, platform, production) -> int:
    """``solve`` on a resolved platform, so a sweep resolves its platform once for all points."""
    grid = platform.grid
    params = _search_params(cfg.rho, cfg.alpha, cfg.r)
    state = solve_dse(platform, production, params, _solver_config(cfg))
    outdir = cfg.out
    _output_dir(outdir)
    _write_dse(outdir, grid, state)
    _write_acceptance(outdir, state)
    summary = {"bellman": state.bellman_residual, "balance": state.balance_residual,
               "iterations": state.iterations, "seed": cfg.seed,
               "steady_state_solves": state.steady_state_solves,
               "lu_fallbacks": state.lu_fallbacks}
    _write_json(os.path.join(outdir, "residuals.json"), summary)
    save_platform(platform, production, outdir)
    _write_manifest(cfg, outdir)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    params = _search_params(cfg.rho, cfg.alpha, cfg.r)
    sim_cfg = _sim_config(cfg, params)
    platform, production = _resolve_platform(cfg)
    grid = platform.grid
    state = solve_dse(platform, production, params, _solver_config(cfg))
    outcome = simulate(platform, production, params, state.w, sim_cfg, jobs=_workers(cfg))
    outdir = cfg.out
    _output_dir(outdir)
    _write_dse(outdir, grid, state)
    write_columns(os.path.join(outdir, "sim.csv"), "i,x,u_hat,se_u,payoff_hat,se_payoff",
                  [np.arange(grid.n), grid.nodes, outcome.unmatched_fraction_by_node,
                   outcome.se_unmatched_by_node, outcome.mean_discounted_payoff_by_node,
                   outcome.se_payoff_by_node])
    if cfg.event_log:
        t, kind, a, b = zip(*outcome.event_log) if outcome.event_log else ([], [], [], [])
        write_columns(os.path.join(outdir, "events.csv"), "t,type,agent_a,agent_b",
                      [np.array(t, dtype=float), np.array(kind, dtype=str),
                       np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)])
    tallies = {
        "match_formation_count": outcome.match_formation_count,
        "divorce_count": outcome.divorce_count,
        "meeting_count": outcome.meeting_count,
        "failed_meeting_count": outcome.failed_meeting_count,
        "rejected_meeting_count": outcome.rejected_meeting_count,
        "seed": outcome.seed,
        "replications": outcome.replications,
    }
    _write_json(os.path.join(outdir, "sim_summary.json"), tallies)
    save_platform(platform, production, outdir)
    _write_manifest(cfg, outdir)
    return 0


def _cmd_design(cfg: RunConfig) -> int:
    grid = make_grid(cfg.n)
    production = _production(cfg, grid)
    params = _search_params(cfg.rho, cfg.alpha, cfg.r)
    exclusion = optimal_exclusion(grid, production)
    cutoff = exclusion.cutoff_index if cfg.cutoff == "auto" else _cutoff_index(cfg, grid)
    result = design(grid, production, params, cutoff)

    outdir = cfg.out
    _output_dir(outdir)
    nodes = np.arange(grid.n)
    write_columns(os.path.join(outdir, "design.csv"), "i,x,w,t,m,included",
                  [nodes, grid.nodes, result.dse.w, result.platform.transfers, result.rent,
                   (nodes >= cutoff).astype(int)])
    write_columns(os.path.join(outdir, "exclusion_curve.csv"), "k,x_tilde,profit,phi",
                  [nodes, grid.nodes, exclusion.profit_curve, exclusion.phi])

    _write_dse(outdir, grid, result.dse)
    save_platform(result.platform, production, outdir)
    _write_manifest(cfg, outdir, extra={
        "theta": format_float(params.theta),
        "wage_coeff": format_float(first_best_wage_coefficient(params)),
        "transfer_coeff": format_float(transfer_coefficient(params)),
        "profit": format_float(result.profit),
        "rent_total": format_float(result.rent_total),
        "x_tilde": format_float(result.x_tilde),
    })
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    target = cfg.platform or cfg.out
    if not os.path.isdir(target):
        raise ConfigError(f"verify needs an artifact directory, got {target!r}")
    with _reading(target):
        platform, production = load_platform(target)
        manifest_path = os.path.join(target, "manifest.txt")
        manifest = read_manifest(manifest_path)
        params = SearchParams(**{key: manifest_value(manifest, key, manifest_path)
                                 for key in ("rho", "alpha", "r")})
        grid = platform.grid
        dse_path = os.path.join(target, "dse.csv")
        _, w, u = read_node_columns(dse_path, 4, grid.n)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(u))):
            raise ValueError(f"{dse_path}: wages w and densities u must be finite")

    # the residuals are unknown until audit() recomputes them from w, u and M
    state = DSEState(w=w, u=u, M=acceptance(production, w, grid),
                     bellman_residual=float("nan"), balance_residual=float("nan"))

    report = audit(platform, production, params, state)
    certified = report.certified()
    outdir = cfg.out
    _output_dir(outdir)
    _write_json(os.path.join(outdir, "audit.json"),
                {**asdict(report), "certified": certified, "seed": cfg.seed})
    # record the audited rates and the build's requests, so the manifest says
    # how the audited platform was built; in place it keeps its source too
    keys = ("n_request", "cutoff_request")
    if os.path.realpath(outdir) == os.path.realpath(target):
        keys += ("platform_source",)
    kept = {key: manifest[key] for key in keys if key in manifest}
    _write_manifest(replace(cfg, rho=params.rho, alpha=params.alpha, r=params.r), outdir,
                    extra=kept)
    return 0 if certified else 1


def _sweep_values(raw: str, fallback: float) -> list:
    if not raw:
        return [fallback]
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"cannot parse sweep list {raw!r}")
    return values


def _run_sweep_point(base: RunConfig, platform, production, rho: float, alpha: float,
                     r: float, outdir: str) -> int:
    point = replace(base, command="solve", rho=rho, alpha=alpha, r=r, out=outdir,
                    sweep_rho="", sweep_alpha="", sweep_r="")
    return _solve(point, platform, production)


def _cmd_sweep(cfg: RunConfig) -> int:
    rhos = _sweep_values(cfg.sweep_rho, cfg.rho)
    alphas = _sweep_values(cfg.sweep_alpha, cfg.alpha)
    rs = _sweep_values(cfg.sweep_r, cfg.r)
    points = [(rho, alpha, r) for rho in rhos for alpha in alphas for r in rs]
    # a bad point, solver setting, production, cutoff or platform artifact
    # fails the sweep before anything is written; the platform is resolved
    # once and handed to every point
    for point in points:
        _search_params(*point)
    _solver_config(cfg)
    platform, production = _resolve_platform(cfg)
    _output_dir(cfg.out)

    dirs = [f"point_{idx:04d}_rho{rho:g}_alpha{alpha:g}_r{r:g}"
            for idx, (rho, alpha, r) in enumerate(points)]
    statuses = ordered_map(
        _run_sweep_point,
        [(cfg, platform, production, *point, os.path.join(cfg.out, sub))
         for point, sub in zip(points, dirs)],
        _workers(cfg))

    rates = np.array(points, dtype=float).T
    write_columns(os.path.join(cfg.out, "sweep_manifest.csv"), "point,rho,alpha,r,dir",
                  [np.arange(len(points)), *rates, np.array(dirs, dtype=str)])
    _write_manifest(cfg, cfg.out)
    return max(statuses)


def _cmd_oracle(cfg: RunConfig) -> int:
    params = _search_params(cfg.rho, cfg.alpha, cfg.r)
    # both grid sizes are refused before either exhaustive scan runs
    grids = {}
    for key, cap in (("oracle_n", PROP4_MAX_N), ("involution_block", INVOLUTION_MAX_BLOCK)):
        with _refused(f"{key}: "):
            grids[key] = _scan_grid(getattr(cfg, key), cap)
    if cfg.f == "table":
        # one table serves both scans, so both grids must have its size
        with _reading(cfg.table):
            index = read_columns(cfg.table, 3, 2, 0, sys.maxsize)[0]
        size = int(index.max()) + 1 if len(index) else 0
        if not cfg.oracle_n == cfg.involution_block == size:
            raise ConfigError(f"oracle_n ({cfg.oracle_n}) and involution_block "
                              f"({cfg.involution_block}) must both equal the size of "
                              f"{cfg.table} ({size} nodes)")
    # a table has both grids' size by now, and xy and xy+c read no grid
    production = _production(cfg, grids["oracle_n"])
    prop4_ok = prop4_oracle(cfg.oracle_n, production, params)
    minimal, scanned, identity_rent = involution_oracle(cfg.involution_block, production, params)
    outdir = cfg.out
    _output_dir(outdir)
    payload = {
        "prop4_upper_set_ok": prop4_ok,
        "prop4_grid": cfg.oracle_n,
        "involution_identity_minimal": minimal,
        "involution_block": cfg.involution_block,
        "involutions_scanned": scanned,
        "identity_rent": identity_rent,
        "seed": cfg.seed,
    }
    _write_json(os.path.join(outdir, "oracle.json"), payload)
    _write_manifest(cfg, outdir)
    return 0 if (prop4_ok and minimal) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a config error, one line and exit 2,
    where ``argparse`` prints its usage and exits itself."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchlab",
        description="Search equilibria, simulation and platform design on type grids")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed (64-bit)")
    parser.add_argument("--jobs", type=int,
                        help="worker processes for sweep points and simulation replications; "
                             "0 (default) = every available CPU")
    parser.add_argument("--n", type=int, help="grid size")
    parser.add_argument("--rho", type=float, help="meeting rate")
    parser.add_argument("--alpha", type=float, help="divorce rate")
    parser.add_argument("--r", type=float, help="discount rate")
    parser.add_argument("--f", choices=["xy", "xy+c", "table"], help="production kind")
    parser.add_argument("--c", type=float, help="constant term for f=xy+c")
    parser.add_argument("--cutoff", help="exclusion level in [0,1) or 'auto'")
    parser.add_argument("--epsilon", help="glitch mixing weight in [0,1]")
    parser.add_argument("--platform", help="artifact directory to load")
    return parser


_DISPATCH = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "design": _cmd_design,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}
COMMANDS = tuple(_DISPATCH)


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit status."""
    try:
        return _DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        print(f"matchlab: config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        # the message already names the residuals
        print(f"matchlab: no convergence: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message names the array it could not allocate; a --jobs
        # worker's error is raised here again
        print(f"matchlab: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        cfg = resolve_config(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"matchlab: config error: {exc}", file=sys.stderr)
        return 2
    status = run(cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
