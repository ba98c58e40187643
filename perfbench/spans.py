"""Span recording around the layer functions the matchlab CLI calls.

The traced run executes ``matchlab.cli.run`` in the benchmark's own process.
While a pass is traced, the layer functions that ``matchlab.cli`` imported
are replaced in that module's namespace by wrappers that record a span per
call (name, start, end, parent, counts) and are put back afterwards.
Nothing inside the package is changed, so calls a layer makes internally are
not split out, and work done in worker processes is not seen.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

KERNELS = ("identity", "glitch0.5", "glitch0.01", "mixture300")
SIM_KERNELS = ("identity", "glitch0.5")
COMMANDS = ("solve", "verify", "design", "sweep", "oracle", "simulate")
PLATFORM_FILES = ("platform.csv", "transfers.csv", "manifest.txt", "table.csv")
MB = 1e6


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (children never overlap)."""
        return self.duration - self.child_s


class Tracer:
    """Keeps the spans of one pass in memory."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(name=name, parent=parent, start=time.perf_counter(), attrs=attrs)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += rec.duration
            self.spans.append(rec)

    def root_attr(self, key: str, default=None):
        return self._open[0].attrs.get(key, default) if self._open else default


def _platform_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name)) for name in PLATFORM_FILES
               if os.path.isfile(os.path.join(directory, name)))


# Counts recorded at each boundary: (args, result) -> attributes of the span.
def _saved(args, result):
    return {"bytes": _platform_bytes(args[2])}


def _solved(args, result):
    return {"sweeps": result.iterations}


def _simulated(args, result):
    return {"events": result.meeting_count // 2 + result.divorce_count,
            "calls": result.meeting_count // 2,
            "matches": result.match_formation_count}


# matchlab.cli attribute -> (span name, counts taken before the call, counts after it)
LAYER_FUNCTIONS = {
    "save_platform": ("core.save_platform", None, _saved),
    "load_platform": ("core.load_platform", lambda args: {"bytes": _platform_bytes(args[0])}, None),
    "solve_dse": ("solver.solve_dse", None, _solved),
    "audit": ("verifier.audit", None, None),
    "prop4_oracle": ("verifier.prop4_oracle", None, None),
    "design": ("designer.design", None, None),
    "glitch": ("designer.glitch", None, None),
    "simulate": ("simulator.simulate", None, _simulated),
}


def _wrap(tracer: Tracer, fn, name: str, before, after):
    def wrapped(*args, **kwargs):
        attrs = before(args) if before else {}
        with tracer.span(name, kernel=tracer.root_attr("kernel"), **attrs) as rec:
            result = fn(*args, **kwargs)
        if after:
            rec.attrs.update(after(args, result))
        return result
    return wrapped


@contextmanager
def traced(cli_module, tracer: Tracer):
    """Wrap the layer functions ``cli_module`` calls for the duration of the block."""
    originals = {attr: getattr(cli_module, attr) for attr in LAYER_FUNCTIONS}
    try:
        for attr, (name, before, after) in LAYER_FUNCTIONS.items():
            setattr(cli_module, attr, _wrap(tracer, originals[attr], name, before, after))
        yield tracer
    finally:
        for attr, fn in originals.items():
            setattr(cli_module, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> unit (BENCHMARK.json adds which direction is better)
# ---------------------------------------------------------------------------

PER_LAYER = {
    "core.save_platform_s": "s",
    "core.save_platform_mb": "MB",
    "core.load_platform_s": "s",
    "core.load_platform_mb": "MB",
    **{f"solver.solve_dse_s.{k}": "s" for k in KERNELS},
    **{f"solver.sweeps.{k}": "count" for k in KERNELS},
    "verifier.audit_s": "s",
    "verifier.prop4_oracle_s": "s",
    "designer.design_s": "s",
    "designer.glitch_s": "s",
    **{f"simulator.us_per_event.{k}": "us/event" for k in SIM_KERNELS},
    **{f"simulator.events.{k}": "count" for k in SIM_KERNELS},
    **{f"simulator.match_per_call.{k}": "1/call" for k in SIM_KERNELS},
    **{f"cli.self_s.{c}": "s" for c in COMMANDS},
    **{f"cli.artifact_mb.{c}": "MB" for c in COMMANDS},
    "trace.traced_pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list, artifact_bytes: dict) -> dict:
    """Per-pass totals of every per-layer metric except the trace.* ones.

    ``artifact_bytes`` maps each command to the bytes its invocations of the
    pass left in their output directories.  A layer the pass never reached
    reads 0.
    """
    def total(name, key=None, kernel=None):
        return sum((s.attrs.get(key, 0) if key else s.duration) for s in spans
                   if s.name == name and (kernel is None or s.attrs.get("kernel") == kernel))

    out = {
        "core.save_platform_s": total("core.save_platform"),
        "core.save_platform_mb": total("core.save_platform", "bytes") / MB,
        "core.load_platform_s": total("core.load_platform"),
        "core.load_platform_mb": total("core.load_platform", "bytes") / MB,
        "verifier.audit_s": total("verifier.audit"),
        "verifier.prop4_oracle_s": total("verifier.prop4_oracle"),
        "designer.design_s": total("designer.design"),
        "designer.glitch_s": total("designer.glitch"),
    }
    for k in KERNELS:
        out[f"solver.solve_dse_s.{k}"] = total("solver.solve_dse", kernel=k)
        out[f"solver.sweeps.{k}"] = total("solver.solve_dse", "sweeps", kernel=k)
    for k in SIM_KERNELS:
        events = total("simulator.simulate", "events", kernel=k)
        calls = total("simulator.simulate", "calls", kernel=k)
        busy = total("simulator.simulate", kernel=k)
        out[f"simulator.us_per_event.{k}"] = 1e6 * busy / events if events else 0.0
        out[f"simulator.events.{k}"] = events
        out[f"simulator.match_per_call.{k}"] = (
            total("simulator.simulate", "matches", kernel=k) / calls if calls else 0.0)
    for c in COMMANDS:
        out[f"cli.self_s.{c}"] = sum(s.self_s for s in spans
                                     if s.name == "cli.run" and s.attrs["command"] == c)
        out[f"cli.artifact_mb.{c}"] = artifact_bytes.get(c, 0) / MB
    return out
