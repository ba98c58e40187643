#!/usr/bin/env python3
"""Benchmark of the matchlab command-line tool.

Run from the root of a matchlab checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload assortative --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30
    python3 perfbench/run.py --smoke

``--trace 0`` times every CLI invocation of a workload as a user runs it: a
fresh ``python3 -m matchlab.cli`` process per invocation, one client in a
closed loop, each invocation starting after the previous one exited.  A
*pass* runs the workload's invocations once; passes repeat until the next
one would overrun ``--seconds``, and each metric is the median over passes.

``--trace 1`` runs the same invocations through ``matchlab.cli.run`` inside
this process, alternating untraced and traced passes, and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.

Every invocation writes into a fresh, empty ``--out`` directory; checking,
hashing and removing artifacts happen outside the timed region.  Rewriting
an existing directory is avoided because on ext4 a truncate-and-rewrite
forces writeback: an identity ``solve`` took 0.95 s instead of 0.25 s, a
glitched one 3.9 s instead of 1.5 s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when a result was printed, 1 for a failed smoke check and 2 when the
checkout holds no matchlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 5          # fresh interpreters importing matchlab.cli before the passes
SETUP_SAMPLES_PER_PASS = 2  # and after each pass
MIN_PASSES = 2             # a repeat is needed for the byte-identity check
INVOCATION_LIMIT_S = 150.0  # a child still running after this is killed
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# printed in the report; only END_TO_END is non-zero on every workload
COMMAND_METRICS = tuple(f"{c}_s" for c in spans.COMMANDS)


@dataclass
class Result:
    """One invocation of one pass."""

    invocation: workloads.Invocation
    outdir: str
    exit_code: int | None
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    artifact_bytes: int = 0     # filled by Bench.check, before the directory goes
    events: int = 0             # in-window simulated events, simulate only
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# ---------------------------------------------------------------------------
# Environment and statistics
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "environ": {key: os.environ[key] for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "PYTHONDONTWRITEBYTECODE") if key in os.environ},
    }


def summary(values: list) -> dict:
    """Median, quartiles, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            break
    return out


def print_metric(name: str, unit: str, stats: dict | None) -> None:
    if stats is None:
        print(f"  {name:<34} {'-':>14} {unit:<9} (not run by this workload)")
        return
    extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k not in ("median", "n"))
    print(f"  {name:<34} {stats['median']:>14.6g} {unit:<9} n={stats['n']} {extra}")


# ---------------------------------------------------------------------------
# Running invocations
# ---------------------------------------------------------------------------


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, stderr_path: Path) -> tuple:
    """Run ``argv`` to exit; returns (exit code, wall s, user+sys s, peak RSS MB).

    ``os.wait4`` reports the child's own peak RSS (and that of the workers it
    reaped); ``RUSAGE_CHILDREN`` would be a running maximum over all children.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(INVOCATION_LIMIT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Bench:
    """One workload in one checkout: set-up, passes and their checks."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.inputs: dict = {}
        self.configs: dict = {}
        self.digests: dict = {}     # invocation name -> CSV digests of its first run
        self.results: list = []     # every Result of every pass
        self.passes = 0

    def set_up(self) -> None:
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        for inv in self.workload.invocations:
            if inv.config:
                path = WORK / f"{inv.name}.cfg"
                path.write_text("".join(f"{k}={v}\n" for k, v in inv.config))
                self.configs[inv.name] = str(path)
        for name, build in self.workload.inputs.items():
            path = WORK / "inputs" / name
            build(str(path))
            self.inputs[name] = str(path)

    def argv(self, inv: workloads.Invocation, outdirs: dict) -> list:
        args = [outdirs[a[1:-1]] if a.startswith("{") and a.endswith("}") else a
                for a in inv.args]
        if inv.name in self.configs:
            args += ["--config", self.configs[inv.name]]
        return [inv.command, *args]

    def run_pass(self, invoke) -> list:
        """Run every invocation once through ``invoke(inv, argv, outdir)``, then check."""
        pass_dir = WORK / f"pass_{self.passes:04d}"
        self.passes += 1
        pass_dir.mkdir()
        outdirs = dict(self.inputs)
        results = []
        for inv in self.workload.invocations:
            outdir = pass_dir / inv.name
            outdir.mkdir()
            outdirs[inv.name] = str(outdir)
            results.append(invoke(inv, self.argv(inv, outdirs) + ["--out", str(outdir)], outdir))
        for res in results:
            self.check(res)
        shutil.rmtree(pass_dir)
        self.results += results
        return results

    def check(self, res: Result) -> None:
        inv = res.invocation
        if res.exit_code != inv.exit_code:
            res.problems.append(f"exit code {res.exit_code}, expected {inv.exit_code}")
            return
        try:
            res.problems += inv.check(res.outdir)
            if inv.command == "simulate":
                res.events = workloads.sim_events(res.outdir)
        except (OSError, KeyError, ValueError) as exc:
            res.problems.append(f"unreadable artifact: {exc!r}")
        res.artifact_bytes = workloads.tree_bytes(res.outdir)
        digests = workloads.csv_digests(res.outdir)
        first = self.digests.setdefault(inv.name, digests)
        if digests != first:
            changed = sorted(k for k in first.keys() | digests.keys()
                             if first.get(k) != digests.get(k))
            res.problems.append(f"CSV differs from the first run: {', '.join(changed)}")

    def repeat(self, seconds: float, one_round) -> None:
        """Call ``one_round`` until the next call would end after ``seconds``."""
        start = time.perf_counter()
        longest = 0.0
        rounds = 0
        while True:
            began = time.perf_counter()
            one_round(rounds)
            rounds += 1
            longest = max(longest, time.perf_counter() - began)
            if self.passes >= MIN_PASSES and time.perf_counter() + longest > start + seconds:
                return

    def report_failures(self) -> None:
        for res in self.results:
            if res.failed:
                print(f"  FAILED {res.invocation.name}: {'; '.join(res.problems)}")


# ---------------------------------------------------------------------------
# --trace 0: fresh CLI processes
# ---------------------------------------------------------------------------


def setup_sample() -> float:
    """Wall time of one fresh interpreter importing matchlab.cli."""
    code, wall, _, _ = spawn([sys.executable, "-c", "import matchlab.cli"], WORK / "setup.stderr")
    if code != 0:
        raise RuntimeError("importing matchlab.cli failed: "
                           + (WORK / "setup.stderr").read_text()[-2000:])
    return wall


def measure_cli(bench: Bench, seconds: float) -> dict:
    # set-up samples are spread over the run so a slow moment weighs little
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    per_pass: list = []

    def invoke(inv, argv, outdir):
        code, wall, cpu, rss = spawn([sys.executable, "-m", "matchlab.cli", *argv],
                                     outdir.parent / f"{inv.name}.stderr")
        return Result(inv, str(outdir), code, wall, cpu, rss)

    def one_pass(_):
        results = bench.run_pass(invoke)
        row = {"pass_s": sum(r.wall_s for r in results),
               "cpu_s": sum(r.cpu_s for r in results),
               "peak_rss_mb": max(r.rss_mb for r in results)}
        for command in spans.COMMANDS:
            mine = [r for r in results if r.invocation.command == command]
            if mine:
                row[f"{command}_s"] = sum(r.wall_s for r in mine)
        if "simulate_s" in row:
            row["sim_events_per_s"] = sum(r.events for r in results) / row["simulate_s"]
        per_pass.append(row)
        setup.extend(setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS))

    bench.repeat(seconds, one_pass)
    stats = {key: summary([row[key] for row in per_pass]) for key in per_pass[0]}
    stats["setup_s"] = summary(setup)

    print(f"workload {bench.workload.name}: {bench.passes} passes of "
          f"{len(bench.workload.invocations)} CLI invocations (closed loop, one client)")
    attempted = len(bench.results)
    failed = sum(r.failed for r in bench.results)
    for name in ("setup_s", "pass_s", "cpu_s", *COMMAND_METRICS):
        print_metric(name, "s", stats.get(name))
    print_metric("sim_events_per_s", "1/s", stats.get("sim_events_per_s"))
    print_metric("peak_rss_mb", "MB", stats["peak_rss_mb"])
    print_metric("failed_share", "1", {"median": failed / attempted, "n": attempted})
    bench.report_failures()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                        for name, unit in END_TO_END.items()}}


# ---------------------------------------------------------------------------
# --trace 1: in-process cli.run with span recording
# ---------------------------------------------------------------------------


def measure_traced(bench: Bench, seconds: float) -> dict:
    import matchlab.cli as cli

    traced_rows: list = []
    pass_s = {False: [], True: []}

    def run_one(tracer):
        def invoke(inv, argv, outdir):
            cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.run(cfg)
                else:
                    with tracer.span("cli.run", command=inv.command, kernel=inv.kernel):
                        code = cli.run(cfg)
            except Exception as exc:  # reported as a failed invocation
                return Result(inv, str(outdir), None, time.perf_counter() - start,
                              problems=[f"raised {exc!r}"])
            wall = time.perf_counter() - start
            return Result(inv, str(outdir), code, wall)
        return invoke

    def one_pair(k):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer = spans.Tracer()
                with spans.traced(cli, tracer):
                    results = bench.run_pass(run_one(tracer))
                artifact_bytes: dict = {}
                for r in results:
                    artifact_bytes[r.invocation.command] = (
                        artifact_bytes.get(r.invocation.command, 0) + r.artifact_bytes)
                traced_rows.append(spans.layer_metrics(tracer.spans, artifact_bytes))
            else:
                results = bench.run_pass(run_one(None))
            pass_s[traced].append(sum(r.wall_s for r in results))

    bench.repeat(seconds, one_pair)
    metrics = {name: statistics.median(row[name] for row in traced_rows)
               for name in traced_rows[0]}
    metrics["trace.traced_pass_s"] = statistics.median(pass_s[True])
    metrics["trace.untraced_pass_s"] = statistics.median(pass_s[False])
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]

    print(f"workload {bench.workload.name}: {len(traced_rows)} traced and "
          f"{len(pass_s[False])} untraced in-process passes (medians of per-pass totals)")
    for name, unit in spans.PER_LAYER.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    attempted = len(bench.results)
    failed = sum(r.failed for r in bench.results)
    bench.report_failures()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in spans.PER_LAYER.items()}}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    jobs = 1 if trace else len(os.sched_getaffinity(0))
    bench = Bench(workloads.WORKLOADS[name](seed, small, jobs))
    try:
        bench.set_up()
        return (measure_traced if trace else measure_cli)(bench, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def smoke(seed: int) -> bool:
    """Every workload at small sizes in both modes; every declared metric present with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed, 1.0, trace, small=True)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                ok = False
                print(f"SMOKE FAILED {name} trace={int(trace)}: correct={result['correct']}, "
                      f"missing {sorted(want.keys() - got.keys())}, "
                      f"extra {sorted(got.keys() - want.keys())}, "
                      f"unit mismatch {sorted(m for m in want.keys() & got.keys() if want[m] != got[m])}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="assortative", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at small sizes and check the declared metrics")
    args = parser.parse_args(argv)

    if not (SRC / "matchlab" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'matchlab'} is missing; run from the root of a matchlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment(), sort_keys=True))

    if args.smoke:
        ok = smoke(args.seed)
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), small=False)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
