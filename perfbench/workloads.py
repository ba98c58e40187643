"""Workloads of the matchlab CLI benchmark and the checks on their artifacts.

A workload is an ordered list of CLI invocations.  An argument may name the
output directory of an earlier invocation of the same pass, or an input the
benchmark builds during set-up, as ``{name}``; the runner substitutes the
path.  Each invocation pins the exit status the CLI gives at the commit that
defined the benchmark, and carries a check on the artifacts it writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# reference rates of every workload
RATES = ("--rho", "1", "--alpha", "0.5", "--r", "0.05", "--f", "xy")
SWEEP_VALUES = "0.5,1,2"
BELLMAN_TOL = 1e-10
AUDIT_RESIDUAL_TOL = 1e-6
SIM_SE_MULTIPLE = 4.0


@dataclass(frozen=True)
class Invocation:
    name: str                 # unique within its workload, usable as {name}
    command: str
    args: tuple               # CLI arguments after the command, without --out
    kernel: str               # kernel label the per-layer spans are filed under
    check: Callable[[str], list]  # output directory -> problems found, empty when right
    exit_code: int = 0
    config: tuple = ()        # (key, value) pairs passed through --config


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    # set-up inputs: name -> function writing the input into a fresh directory
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Artifact checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_solve(outdir: str) -> list:
    problems = [f"missing {name}" for name in ("dse.csv", "acceptance.csv", "platform.csv")
                if not os.path.isfile(os.path.join(outdir, name))]
    bellman = _load_json(os.path.join(outdir, "residuals.json"))["bellman"]
    if not bellman <= BELLMAN_TOL:
        problems.append(f"bellman residual {bellman:g} > {BELLMAN_TOL:g}")
    return problems


def check_design(n: int) -> Callable[[str], list]:
    def check(outdir: str) -> list:
        manifest = {}
        with open(os.path.join(outdir, "manifest.txt")) as fh:
            for line in fh:
                key, _, value = line.strip().partition("=")
                manifest[key] = value
        x_tilde = float(manifest["x_tilde"])
        if not abs(x_tilde - 0.5) <= 1.0 / n:
            return [f"x_tilde {x_tilde!r} not within 1/{n} of 0.5"]
        return []
    return check


def check_audit(outdir: str) -> list:
    report = _load_json(os.path.join(outdir, "audit.json"))
    problems = []
    if report["acceptance_violations"] != 0:
        problems.append(f"{report['acceptance_violations']} acceptance violations")
    for key in ("bellman_residual", "balance_residual"):
        if not report[key] <= AUDIT_RESIDUAL_TOL:
            problems.append(f"{key} {report[key]:g} > {AUDIT_RESIDUAL_TOL:g}")
    return problems


def check_sweep(points: int) -> Callable[[str], list]:
    def check(outdir: str) -> list:
        with open(os.path.join(outdir, "sweep_manifest.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [] if len(rows) == points else [f"{len(rows)} sweep points, expected {points}"]
        for row in rows:
            problems += [f"{row['dir']}: {p}" for p in check_solve(os.path.join(outdir, row["dir"]))]
        return problems
    return check


def check_oracle(outdir: str) -> list:
    report = _load_json(os.path.join(outdir, "oracle.json"))
    return [f"{key} is false" for key in ("prop4_upper_set_ok", "involution_identity_minimal")
            if report[key] is not True]


def sim_events(outdir: str) -> int:
    """In-window events of a simulate run: meetings (tallied per participant) plus divorces."""
    summary = _load_json(os.path.join(outdir, "sim_summary.json"))
    return summary["meeting_count"] // 2 + summary["divorce_count"]


def check_sim(outdir: str) -> list:
    return [] if sim_events(outdir) > 0 else ["no simulated events"]


def check_sim_identity(outdir: str) -> list:
    """Assortative platform: every node is unmatched a third of the time, nobody rejects."""
    problems = check_sim(outdir)
    summary = _load_json(os.path.join(outdir, "sim_summary.json"))
    if summary["rejected_meeting_count"] != 0:
        problems.append(f"{summary['rejected_meeting_count']} rejected meetings")
    with open(os.path.join(outdir, "sim.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    pooled_se = math.sqrt(sum(float(row["se_u"]) ** 2 for row in rows) / len(rows))
    for row in rows:
        gap = abs(float(row["u_hat"]) - 1.0 / 3.0)
        if not gap <= SIM_SE_MULTIPLE * pooled_se:
            problems.append(f"node {row['i']}: u_hat {row['u_hat']} is {gap / pooled_se:.2f} "
                            f"pooled SEs from 1/3")
    return problems


def csv_digests(outdir: str) -> dict:
    """SHA-256 of every CSV under ``outdir``, keyed by relative path."""
    digests = {}
    for dirpath, _, filenames in os.walk(outdir):
        for name in filenames:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                sha = hashlib.sha256()
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        sha.update(block)
                digests[os.path.relpath(path, outdir)] = sha.hexdigest()
    return digests


def tree_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, name))
               for dirpath, _, filenames in os.walk(outdir) for name in filenames)


# ---------------------------------------------------------------------------
# Inputs built during set-up
# ---------------------------------------------------------------------------


def write_mixture_platform(n: int) -> Callable[[str], None]:
    """Zero-transfer platform on ``a I + (b/n) 1 + c J`` with a = b = 0.3 (tests/conftest.py)."""
    def build(outdir: str) -> None:
        import numpy as np
        from matchlab import Platform, ProductionFunction, make_grid, save_platform

        a, b = 0.3, 0.3
        c = max(0.0, 1.0 - a - b)
        kernel = a * np.eye(n) + (b / n) * np.ones((n, n)) + c * np.eye(n)[::-1]
        platform = Platform(grid=make_grid(n), cutoff=0, kernel=kernel, transfers=np.zeros(n))
        save_platform(platform, ProductionFunction.multiplicative(), outdir)
    return build


# ---------------------------------------------------------------------------
# The workloads.  ``small`` shrinks every size for the smoke mode; ``jobs`` is
# the sweep's --jobs.  Kernel labels name the full-size kernels in both modes.
# ---------------------------------------------------------------------------


def assortative(seed: int, small: bool, jobs: int) -> Workload:
    n = 40 if small else 1000
    grid = ("--n", str(n)) + RATES
    return Workload("assortative", (
        Invocation("solve", "solve", grid, "identity", check=check_solve),
        Invocation("design", "design", grid + ("--cutoff", "auto"), "identity",
                   check=check_design(n)),
        Invocation("verify", "verify", ("--platform", "{design}"), "identity",
                   check=check_audit),
        Invocation("sweep", "sweep", grid + ("--jobs", str(jobs), "--seed", str(seed)),
                   "identity", config=(("sweep_rho", SWEEP_VALUES), ("sweep_alpha", SWEEP_VALUES)),
                   check=check_sweep(9)),
        Invocation("oracle", "oracle", RATES, "identity",
                   config=(("oracle_n", "6"), ("involution_block", "9")), check=check_oracle),
    ))


def glitched(seed: int, small: bool, jobs: int) -> Workload:
    n = 40 if small else 1000
    grid = ("--n", str(n)) + RATES
    solves = (
        Invocation("solve_eps0.5", "solve", grid + ("--epsilon", "0.5"), "glitch0.5",
                   check=check_solve),
        Invocation("solve_eps0.01", "solve", grid + ("--epsilon", "0.01"), "glitch0.01",
                   check=check_solve),
        Invocation("solve_mixture", "solve", ("--platform", "{mixture}") + RATES, "mixture300",
                   check=check_solve),
    )
    # the zero-transfer solve directories are not incentive compatible: verify exits 1
    verifies = tuple(
        Invocation("verify_" + s.name[len("solve_"):], "verify",
                   ("--platform", "{" + s.name + "}"), s.kernel, exit_code=1, check=check_audit)
        for s in solves)
    return Workload("glitched", solves + verifies,
                    inputs={"mixture": write_mixture_platform(30 if small else 300)})


def simulate(seed: int, small: bool, jobs: int) -> Workload:
    n = 4 if small else 10
    config = ((("agents_per_node", "20"), ("horizon", "250"), ("burn_in", "100"))
              if small else
              (("agents_per_node", "200"), ("horizon", "1000"), ("burn_in", "100")))
    config += (("replications", "4"),)
    grid = ("--n", str(n), "--seed", str(seed)) + RATES
    return Workload("simulate", (
        Invocation("simulate_identity", "simulate", grid, "identity", config=config,
                   check=check_sim_identity),
        Invocation("simulate_eps0.5", "simulate", grid + ("--epsilon", "0.5"), "glitch0.5",
                   config=config, check=check_sim),
    ))


WORKLOADS = {"assortative": assortative, "glitched": glitched, "simulate": simulate}
