import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchlab
from matchlab import (
    Platform,
    SearchParams,
    SimConfig,
    design,
    first_best_platform,
    glitch,
    informational_rent,
    load_platform,
    make_grid,
    optimal_exclusion,
    save_platform,
    simulate,
    solve_dse,
)
from matchlab import cli, solver
from matchlab.cli import (
    COMMANDS,
    RunConfig,
    _write_acceptance,
    _write_dse,
    build_parser,
    main,
    resolve_config,
)
from matchlab.core import DSEState, ProductionFunction, acceptance, format_float
from matchlab.verifier import AuditReport

from conftest import (
    TABLE_DAMAGES,
    csv_rows,
    dense_kernel,
    mixture_kernel,
    reference_csv,
    reference_runs,
    write_table,
)


def read_dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                out[name] = fh.read()
    return out


def write_config(path, **keys):
    with open(path, "w") as fh:
        for key, value in keys.items():
            fh.write(f"{key}={value}\n")
    return str(path)


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


def test_tiny_grid_rejected(tmp_path):
    assert main(["solve", "--n", "1", "--out", str(tmp_path / "o")]) == 2


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", bogus_key=3)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("max_inner", "10"), ("damping", "0.5"),
                                        ("w_init", "zeros")])
def test_removed_solver_keys_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "c.cfg", n=4, **{key: value})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matchlab: config error: ") and f"unknown key {key!r}" in err
    assert not out.exists()


def test_malformed_line_diagnoses_position(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("n=8\nnot a pair\n")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "c.cfg:2" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", n=8, rho=2.0)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--n", "12", "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["n_request"] == "12"
    assert manifest["n"] == "12"
    assert manifest["rho"] == "2"


def test_config_file_keys_take_their_annotated_types(tmp_path):
    """A config file setting every ``RunConfig`` key resolves each value to
    the type its annotation names, whatever the text looks like."""
    table = tmp_path / "table.csv"
    table.write_text("i,j,f\n")
    (tmp_path / "p").mkdir()
    values = {"n": "6", "rho": "2", "alpha": "0.5", "r": "1", "f": "xy+c", "c": "0",
              "table": str(table), "cutoff": "0.5", "platform": str(tmp_path / "p"),
              "epsilon": "0.1", "seed": "7", "out": str(tmp_path / "o"), "jobs": "2",
              "tol_w": "1e-9", "tol_u": "1e-11", "max_outer": "50", "agents_per_node": "10",
              "horizon": "20", "burn_in": "2", "replications": "3", "event_log": "yes",
              "oracle_n": "3", "involution_block": "4", "sweep_rho": "1,2",
              "sweep_alpha": "0.5", "sweep_r": "1"}
    types = get_type_hints(RunConfig)
    assert set(values) == set(types) - {"command"}
    cfg = resolve_config(build_parser().parse_args(
        ["solve", "--config", write_config(tmp_path / "c.cfg", **values)]))
    for key, kind in types.items():
        assert type(getattr(cfg, key)) is kind, key
    assert (cfg.rho, cfg.c, cfg.event_log, cfg.sweep_r) == (2.0, 0.0, True, "1")


def test_auto_cutoff_only_for_design(tmp_path):
    assert main(["solve", "--n", "8", "--cutoff", "auto",
                 "--out", str(tmp_path / "o")]) == 2


def test_comment_lines_ignored(tmp_path):
    cfg = write_config(tmp_path / "c.cfg")
    with open(cfg, "a") as fh:
        fh.write("# a comment\nn=6  # trailing comment\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("below", ["", "x", "x/y"])
@pytest.mark.parametrize("command", COMMANDS)
def test_out_blocked_by_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                     command, below):
    """An ``--out`` whose first existing ancestor is a file exits 2 with one
    line before the command loads, solves, audits or scans anything."""
    artifact = tmp_path / "d"
    assert main(["solve", "--n", "4", "--out", str(artifact)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    for name in ("load_platform", "solve_dse", "audit", "prop4_oracle"):
        monkeypatch.setattr(matchlab.cli, name, refuse)
    monkeypatch.setattr(matchlab.designer, "solve_dse", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = os.path.join(blocker, below) if below else str(blocker)
    source = ["--platform", str(artifact)] if command == "verify" else []
    capsys.readouterr()
    assert main([command, *source, "--n", "4", "--out", out]) == 2
    assert capsys.readouterr().err == (f"matchlab: config error: cannot create output "
                                       f"directory {out}: {blocker} is not a directory\n")


# Values the exit-code fuzzer draws for each RunConfig key: mostly small
# valid ones (fast runs), then words that are wrong for some or every key.
# ``{name}`` is a path the test builds; ``--jobs`` stays small, so no draw
# asks for many worker processes.
_FUZZ_VALUES = {
    "n": ["2", "3", "5"], "rho": ["0.5", "1", "2"], "alpha": ["0.5", "1"], "r": ["0.05", "1"],
    "f": ["xy", "xy+c", "table"], "c": ["0", "0.2"],
    "table": ["{table}", "{nan_table}", "{missing}", "{dir}"],
    "cutoff": ["0", "0.5", "auto", "0.9"], "platform": ["{artifact}", "{missing}", "{file}"],
    "epsilon": ["", "0", "0.5", "1"], "seed": ["0", "5", str(2 ** 64)],
    "out": ["{o}", "{file}", "{file}/o"],
    "jobs": ["0", "1", "2"], "tol_w": ["1e-10", "1e-300", "1"], "tol_u": ["1e-12", "1"],
    "max_outer": ["1", "100"], "agents_per_node": ["1", "3"], "horizon": ["10", "20"],
    "burn_in": ["0", "5"], "replications": ["1", "2"], "event_log": ["true", "false"],
    "oracle_n": ["2", "3"], "involution_block": ["2", "4"], "sweep_rho": ["", "0.5,1"],
    "sweep_alpha": ["", "1,2"], "sweep_r": ["", "1"],
}
_FUZZ_WORDS = ["", " ", "nan", "inf", "-inf", "-1", "0", "x", "1e400", "0x10", "1,2", "é", "\0"]
_FUZZ_FLAGS = ("out", "n", "rho", "alpha", "r", "f", "c", "cutoff", "epsilon", "platform",
               "seed", "jobs")


def _fuzz_value(key):
    valid = st.sampled_from(_FUZZ_VALUES[key])
    if key == "out":  # a word would be a directory under the working directory
        return valid
    return st.one_of(valid, valid, valid, st.sampled_from(_FUZZ_WORDS))


@st.composite
def command_lines(draw):
    """(argv, config file lines, bytes before them): a command, flags and
    config keys with drawn values, and now and then a malformed line, a stray
    argument, a config path that is no file or a file that is not UTF-8."""
    argv = [draw(st.sampled_from(COMMANDS + ("bogus",))), "--out", "{o}"]
    for key in draw(st.lists(st.sampled_from(_FUZZ_FLAGS), unique=True, max_size=3)):
        argv += [f"--{key}", draw(_fuzz_value(key))]
    argv += draw(st.sampled_from([[]] * 7 + [["--n"], ["--bogus"], ["extra"]]))
    argv += ["--config", draw(st.sampled_from(["{cfg}"] * 8 + ["{dir}", "{missing}"]))]
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES) + ["command", "bogus"]),
                         unique=True, max_size=4))
    lines = [key + "=" + draw(_fuzz_value(key) if key in _FUZZ_VALUES
                              else st.sampled_from(_FUZZ_WORDS)) for key in keys]
    lines += draw(st.sampled_from([[]] * 7 + [["# note"], ["no pair"], ["=1"]]))
    return argv, lines, draw(st.sampled_from([b""] * 9 + [b"\xff\xfe"]))


@settings(max_examples=150, deadline=None)
@given(drawn=command_lines())
def test_command_line_and_config_exit_cleanly(drawn):
    """Any command line and config file exits 0, 1, 2 or 3, never with a
    traceback, and a config error (exit 2) prints exactly one stderr line."""
    argv, lines, prefix = drawn
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in
                 ("o", "cfg", "missing", "file", "artifact", "table", "nan_table")}
        paths["dir"] = tmp
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["solve", "--n", "4", "--epsilon", "0.5", "--out", paths["artifact"]]) == 0
        with open(paths["file"], "w"):
            pass
        with open(paths["table"], "w") as fh:
            fh.write(reference_csv("i,j,f", [(i, j, (i + 1) * (j + 1) / 16)
                                             for i in range(4) for j in range(4)]))
        with open(paths["nan_table"], "w") as fh:
            fh.write("i,j,f\n0,0,nan\n")

        def fill(text):
            for name, path in paths.items():
                text = text.replace("{" + name + "}", path)
            return text

        # the first lines keep runs small: later keys and every flag override them
        preset = ["n=4", "r=1", "agents_per_node=2", "horizon=20", "burn_in=1"]
        with open(paths["cfg"], "wb") as fh:
            fh.write(prefix + "".join(fill(line) + "\n" for line in preset + lines).encode())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main([fill(arg) for arg in argv])  # an escaping exception fails the test
        err = err.getvalue()
        assert status in (0, 1, 2, 3)
        assert "Traceback" not in err
        if status == 2:
            assert err.startswith("matchlab: config error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--n", "16", "--out", str(out)]) == 0
    for name in ("dse.csv", "acceptance.csv", "residuals.json", "platform.csv",
                 "transfers.csv", "manifest.txt"):
        assert (out / name).exists(), name
    residuals = json.loads((out / "residuals.json").read_text())
    assert residuals["bellman"] <= 1e-10
    assert residuals["seed"] == 12345
    # the identity kernel takes the closed form: no sweep, no linear solve
    assert residuals["iterations"] == residuals["steady_state_solves"] == 0
    assert residuals["lu_fallbacks"] == 0
    rows = csv_rows(out / "dse.csv")
    assert len(rows) == 16
    assert float(rows[0]["u"]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_solve_reruns_byte_identical(tmp_path, monkeypatch):
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["solve", "--n", "12", "--seed", "5", "--out", "o"]) == 0
    assert read_dir_bytes(tmp_path / "a" / "o") == read_dir_bytes(tmp_path / "b" / "o")


def test_solve_nonconvergence_exit_code(tmp_path):
    # a dense kernel: the identity kernel's closed form reads no max_outer
    cfg = write_config(tmp_path / "c.cfg", n=8, max_outer=1)
    assert main(["solve", "--config", cfg, "--epsilon", "0.5",
                 "--out", str(tmp_path / "o")]) == 3


def test_solve_glitched_platform(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--n", "10", "--epsilon", "0.05", "--out", str(out)]) == 0
    platform, _ = load_platform(str(out))
    assert np.count_nonzero(dense_kernel(platform)) == 100  # the glitched kernel is dense
    residuals = json.loads((out / "residuals.json").read_text())
    assert 1 <= residuals["steady_state_solves"] < residuals["iterations"]


def test_parallel_sweep_reports_nonconvergence_once(tmp_path):
    """A worker's NonConvergenceError reaches the parent process intact: the
    sweep exits 3 with one stderr line naming each residual once."""
    cfg = write_config(tmp_path / "c.cfg", n=8, epsilon=0.5, max_outer=2, sweep_rho="0.5,1")
    src = os.path.dirname(os.path.dirname(matchlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "matchlab.cli", "sweep", "--config", cfg, "--jobs", "2",
         "--out", str(tmp_path / "sw")], capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("matchlab: no convergence: no convergence after 2 sweeps")
    assert lines[0].count("bellman") == 1
    assert lines[0].count("balance") == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", n=4, r=1.0, agents_per_node=20,
                       horizon=15.0, burn_in=1.0, replications=2,
                       event_log="true")
    assert main(["simulate", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
    assert (out / "sim.csv").exists()
    assert (out / "events.csv").exists()
    summary = json.loads((out / "sim_summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["rejected_meeting_count"] == 0
    rows = csv_rows(out / "sim.csv")
    assert len(rows) == 4
    events = csv_rows(out / "events.csv")
    assert {"t", "type", "agent_a", "agent_b"} <= set(events[0].keys())


def test_simulate_reruns_byte_identical(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.cfg", n=3, r=1.0, agents_per_node=10,
                       horizon=12.0, burn_in=1.0, replications=2)
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["simulate", "--config", cfg, "--seed", "3",
                     "--out", "o"]) == 0
    assert read_dir_bytes(tmp_path / "a" / "o") == read_dir_bytes(tmp_path / "b" / "o")


SIM_ARTIFACTS = ("sim.csv", "sim_summary.json", "events.csv", "dse.csv")


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["default", "two"])
def test_simulate_artifacts_do_not_depend_on_jobs(tmp_path, jobs):
    """Replications merged from worker processes write the bytes of the
    in-process run; three replications leave one worker a second task."""
    cfg = write_config(tmp_path / "c.cfg", n=4, r=1.0, agents_per_node=10,
                       horizon=12.0, burn_in=1.0, replications=3, event_log="true",
                       epsilon=0.3)
    runs = {}
    for name, flags in (("serial", ["--jobs", "1"]), ("pooled", jobs)):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--seed", "3", *flags,
                     "--out", str(out)]) == 0
        runs[name] = {key: value for key, value in read_dir_bytes(out).items()
                      if key in SIM_ARTIFACTS}
    assert sorted(runs["serial"]) == sorted(SIM_ARTIFACTS)
    assert runs["pooled"] == runs["serial"]


@settings(max_examples=25, deadline=None)
@given(jobs=st.integers(-3, 4), replications=st.integers(-1, 5))
def test_simulate_jobs_and_replications_exit_cleanly(jobs, replications):
    """Any --jobs and replication count either simulates, writing the CSVs of
    a --jobs 1 run, or exits 2 with one stderr line and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(os.path.join(tmp, "c.cfg"), n=3, r=1.0, agents_per_node=4,
                           horizon=10.0, burn_in=1.0, replications=replications)

        def run(flags, out):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main(["simulate", "--config", cfg, "--seed", "5", *flags,
                               "--out", out])
            return status, err.getvalue()

        out = os.path.join(tmp, "o")
        status, err = run(["--jobs", str(jobs)], out)
        assert status in (0, 2)
        assert "Traceback" not in err
        if status == 2:
            assert err.startswith("matchlab: config error: ") and err.count("\n") == 1
            assert not os.path.exists(out)
            assert jobs < 0 or replications < 1
            return
        assert jobs >= 0 and replications >= 1
        serial = os.path.join(tmp, "s")
        assert run(["--jobs", "1"], serial) == (0, "")
        csvs = {k: v for k, v in read_dir_bytes(out).items() if k.endswith(".csv")}
        assert csvs == {k: v for k, v in read_dir_bytes(serial).items() if k.endswith(".csv")}


# ---------------------------------------------------------------------------
# design and verify
# ---------------------------------------------------------------------------


def test_design_reproduces_exclusion_example(tmp_path):
    out = tmp_path / "d"
    assert main(["design", "--n", "1000", "--rho", "1", "--alpha", "0.5",
                 "--r", "0.05", "--f", "xy", "--cutoff", "auto",
                 "--out", str(out)]) == 0
    rows = csv_rows(out / "exclusion_curve.csv")
    assert len(rows) == 1000
    best = max(rows, key=lambda row: float(row["profit"]))
    assert abs(float(best["x_tilde"]) - 0.5) <= 1e-3
    ratio = float(best["profit"]) / float(rows[0]["profit"])
    assert ratio == pytest.approx(1.25, abs=1e-2)
    design_rows = csv_rows(out / "design.csv")
    included = [row for row in design_rows if row["included"] == "1"]
    assert included[0]["i"] == "500"


def test_verify_certifies_design_output(tmp_path):
    """``audit.json`` holds the report's fields, ``certified`` and ``seed``."""
    d, v = tmp_path / "d", tmp_path / "v"
    assert main(["design", "--n", "200", "--cutoff", "auto", "--out", str(d)]) == 0
    assert main(["verify", "--platform", str(d), "--out", str(v)]) == 0
    report = json.loads((v / "audit.json").read_text())
    assert set(report) == {f.name for f in fields(AuditReport)} | {"certified", "seed"}
    assert report["certified"] is True
    assert report["ic_max_violation"] <= 1e-8
    assert report["ir_min_slack"] >= -1e-12


def _manifest_lines(d, keys=("rho", "alpha", "r")):
    return [line for line in (d / "manifest.txt").read_text().splitlines()
            if line.split("=")[0] in keys]


# the design is verified with --platform and --out both naming it; the
# zero-transfer solve, which is not incentive compatible, with --out alone
@pytest.mark.parametrize("make, platform, status", [
    (["design", "--n", "20", "--rho", "2", "--cutoff", "auto"], True, 0),
    (["solve", "--n", "20", "--alpha", "0.3"], False, 1),
])
def test_verify_in_place_keeps_the_audited_rates(tmp_path, make, platform, status):
    """``verify`` audits at the artifact's rates and its manifest records
    them, so verifying a directory in place, twice, audits the same as
    verifying it into a fresh directory and leaves the rates as they were."""
    d, v = tmp_path / "d", tmp_path / "v"
    assert main([*make, "--out", str(d)]) == 0
    rates = _manifest_lines(d)
    assert main(["verify", "--platform", str(d), "--out", str(v)]) == status
    audits = [(v / "audit.json").read_bytes()]
    in_place = ["verify", *(["--platform", str(d)] if platform else []), "--out", str(d)]
    for _ in range(2):
        assert main(in_place) == status
        audits.append((d / "audit.json").read_bytes())
        assert _manifest_lines(d) == rates
    assert audits[1] == audits[0] and audits[2] == audits[0]
    assert _manifest_lines(v) == rates


@pytest.mark.parametrize("platform", [True, False])
def test_verify_in_place_keeps_the_build_requests(tmp_path, platform):
    """The run-level requests of the build (``n_request``, ``cutoff_request``,
    ``platform_source``) survive verifying its directory in place."""
    d = tmp_path / "d"
    assert main(["design", "--n", "40", "--rho", "2", "--cutoff", "auto", "--out", str(d)]) == 0
    keys = ("n_request", "cutoff_request", "platform_source")
    requests = _manifest_lines(d, keys)
    assert requests == ["cutoff_request=auto", "n_request=40", "platform_source="]
    in_place = ["verify", *(["--platform", str(d)] if platform else []), "--out", str(d)]
    for _ in range(2):
        assert main(in_place) == 0
        assert _manifest_lines(d, keys) == requests
        assert "command=verify" in (d / "manifest.txt").read_text().splitlines()


def test_verify_elsewhere_copies_the_build_requests(tmp_path):
    """Verifying into a fresh directory records the audited build's
    ``n_request`` and ``cutoff_request``, and the audited directory as its
    platform source."""
    d, v = tmp_path / "d", tmp_path / "v"
    assert main(["design", "--n", "40", "--cutoff", "auto", "--out", str(d)]) == 0
    assert main(["verify", "--platform", str(d), "--out", str(v)]) == 0
    assert _manifest_lines(v, ("n_request", "cutoff_request", "platform_source")) == [
        "cutoff_request=auto", "n_request=40", f"platform_source={d}"]


def test_verify_flags_corrupted_transfers(tmp_path):
    d = tmp_path / "d"
    assert main(["design", "--n", "100", "--cutoff", "0.5", "--out", str(d)]) == 0
    # full extraction: replace the transfer schedule with the wage column
    dse = {row["i"]: row["w"] for row in csv_rows(d / "dse.csv")}
    lines = ["i,t"] + [f"{i},{dse[str(i)]}" for i in range(100)]
    (d / "transfers.csv").write_text("\n".join(lines) + "\n")
    v = tmp_path / "v"
    assert main(["verify", "--platform", str(d), "--out", str(v)]) == 1
    report = json.loads((v / "audit.json").read_text())
    assert report["ic_max_violation"] > 1e-3


def _corrupt_platform_csv(d):
    (d / "platform.csv").write_text("i,j,j_last,G\n0,0,0,1\n1,1,1\n")


def _drop_dse_csv(d):
    (d / "dse.csv").unlink()


def _asymmetric_platform_csv(d):
    rows = ["0,0,0,0.999", "0,1,1,0.001", "1,1,1,1"] + [f"{i},{i},{i},1" for i in range(2, 6)]
    (d / "platform.csv").write_text("i,j,j_last,G\n" + "\n".join(rows) + "\n")


def _manifest_only_n(d):
    (d / "manifest.txt").write_text("n=4\n")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
       rho=st.floats(0.3, 2.5), alpha=st.floats(0.3, 2.5), r=st.floats(0.05, 2.0),
       max_outer=st.integers(1, 300), singular_step=st.integers(0, 3))
def test_solve_mixture_artifact_exits_cleanly(n, a, b, rho, alpha, r, max_outer,
                                              singular_step):
    """``solve --platform`` on a small mixture artifact either writes a
    certified state or exits 3 with one stderr line, never a traceback.
    A nonzero ``singular_step`` makes that policy step's wage system
    singular, so the hand-over to the damped loop runs as well as the
    hand-overs that cycling policies draw."""
    if a + b > 1.0:
        a, b = a / (a + b), b / (a + b)
    real_policy_wages = solver._policy_wages
    calls = 0

    def policy_wages(*args):
        nonlocal calls
        calls += 1
        return None if calls == singular_step else real_policy_wages(*args)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_policy_wages", policy_wages)
        artifact, out = os.path.join(tmp, "p"), os.path.join(tmp, "o")
        save_platform(Platform(grid=make_grid(n), cutoff=0, kernel=mixture_kernel(n, a, b),
                               transfers=np.zeros(n)),
                      ProductionFunction.multiplicative(), artifact)
        cfg = write_config(os.path.join(tmp, "c.cfg"), rho=rho, alpha=alpha, r=r,
                           max_outer=max_outer)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["solve", "--platform", artifact, "--config", cfg, "--out", out])
        err = err.getvalue()
        assert status in (0, 3)
        assert "Traceback" not in err
        if status == 3:
            assert err.startswith("matchlab: no convergence: ") and err.count("\n") == 1
            return
        assert err == ""
        with open(os.path.join(out, "residuals.json")) as fh:
            assert json.load(fh)["bellman"] <= 1e-10


@pytest.mark.parametrize("command, damage", [
    ("verify", _corrupt_platform_csv),
    ("verify", _drop_dse_csv),
    ("solve", _corrupt_platform_csv),
    ("simulate", _corrupt_platform_csv),
    ("solve", _asymmetric_platform_csv),
    ("simulate", _asymmetric_platform_csv),
    ("sweep", _corrupt_platform_csv),
    ("sweep", _asymmetric_platform_csv),
    ("sweep", _manifest_only_n),
    ("verify", _manifest_only_n),
])
def test_bad_platform_artifact_is_a_config_error(tmp_path, capsys, command, damage):
    d = tmp_path / "d"
    assert main(["solve", "--n", "6", "--out", str(d)]) == 0
    damage(d)
    capsys.readouterr()
    assert main([command, "--platform", str(d), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matchlab: config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    if damage is _manifest_only_n:
        assert err.endswith(f"{d / 'manifest.txt'}: missing key 'cutoff'\n")


_IDENTITY_RUNS = [f"{i},{i},{i},1" for i in range(6)]


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("rows", [
    _IDENTITY_RUNS[:5] + ["5,5,4,1"],                                  # j_last < j
    _IDENTITY_RUNS[:5] + ["5,5,6,1"],                                  # j_last >= n
    ["0,0,1,0.5", "0,1,1,0.5"] + _IDENTITY_RUNS[1:],                   # overlapping runs
    [_IDENTITY_RUNS[1], _IDENTITY_RUNS[0]] + _IDENTITY_RUNS[2:],       # out of order
    [f"{i},{i},1" for i in range(6)],                                  # three columns
], ids=["j_last-below-j", "j_last-at-n", "overlap", "out-of-order", "three-columns"])
def test_bad_platform_runs_are_a_config_error(tmp_path, capsys, command, rows):
    """A damaged run-layout ``platform.csv`` exits 2 with one line naming the file."""
    d = tmp_path / "d"
    assert main(["solve", "--n", "6", "--out", str(d)]) == 0
    assert (d / "platform.csv").read_text().splitlines()[1:] == _IDENTITY_RUNS
    (d / "platform.csv").write_text("i,j,j_last,G\n" + "\n".join(rows) + "\n")
    capsys.readouterr()
    assert main([command, "--platform", str(d), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"matchlab: config error: cannot read {d}: {d / 'platform.csv'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("column", ["w", "u"])
@pytest.mark.parametrize("word", ["nan", "inf"])
def test_verify_non_finite_dse_is_a_config_error(tmp_path, capsys, column, word):
    """A non-finite wage or density in ``dse.csv`` exits 2, naming the file,
    and writes no ``audit.json``."""
    d = tmp_path / "d"
    assert main(["solve", "--n", "5", "--epsilon", "0.5", "--out", str(d)]) == 0
    lines = (d / "dse.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[lines[0].split(",").index(column)] = word
    lines[2] = ",".join(row)
    (d / "dse.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--platform", str(d), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err == (f"matchlab: config error: cannot read {d}: {d / 'dse.csv'}: "
                   "wages w and densities u must be finite\n")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("name", ["dse.csv", "transfers.csv"])
@pytest.mark.parametrize("damage", ["missing", "repeated", "out-of-order", "header-only"])
def test_verify_incomplete_node_file_is_a_config_error(tmp_path, capsys, name, damage):
    """``dse.csv`` and ``transfers.csv`` list every node once, in order; any
    other file exits 2 with one line naming it and writes no ``audit.json``."""
    d = tmp_path / "d"
    assert main(["design", "--n", "6", "--cutoff", "auto", "--out", str(d)]) == 0
    assert main(["verify", "--platform", str(d), "--out", str(tmp_path / "ok")]) == 0
    header, *rows = (d / name).read_text().splitlines()
    rows = {"missing": rows[:2] + rows[3:], "repeated": rows + rows[-1:],
            "out-of-order": [rows[1], rows[0]] + rows[2:], "header-only": []}[damage]
    (d / name).write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--platform", str(d), "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err == (
        f"matchlab: config error: cannot read {d}: {d / name}: "
        "rows must list the nodes 0 to 5 once each, in order\n")
    assert not (tmp_path / "v").exists()


_ARTIFACT_FILES = ("dse.csv", "platform.csv", "transfers.csv", "manifest.txt")
_CORRUPTIONS = ("truncate", "empty", "header-only", "drop-column", "field", "extra-row",
                "crlf", "non-utf8")


def _corrupt(data: bytes, kind: str, sep: bytes, line: int, col: int, cut: int,
             word: bytes) -> bytes:
    """``data`` damaged one way; ``line``, ``col`` and ``cut`` are taken
    modulo the size of what they index."""
    lines = data.split(b"\n")[:-1]
    if kind == "truncate":
        return data[:cut % len(data)]
    if kind == "empty":
        return b""
    if kind == "header-only":
        return lines[0] + b"\n"
    if kind == "drop-column":
        rows = [row.split(sep) for row in lines]
        return b"".join(sep.join(r[:col % len(r)] + r[col % len(r) + 1:]) + b"\n"
                        for r in rows)
    if kind == "field":
        row = lines[line % len(lines)].split(sep)
        row[col % len(row)] = word
        lines[line % len(lines)] = sep.join(row)
        return b"\n".join(lines) + b"\n"
    if kind == "extra-row":
        return data + lines[line % len(lines)] + b"\n"
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    return b"\xff\xfe" + data  # non-utf8


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(_ARTIFACT_FILES), kind=st.sampled_from(_CORRUPTIONS),
       line=st.integers(0, 100), col=st.integers(0, 3), cut=st.integers(0, 10 ** 4),
       word=st.sampled_from([b"nan", b"inf", b"-inf", b"six"]))
def test_corrupted_artifact_exits_cleanly(name, kind, line, col, cut, word):
    """``verify`` and ``solve`` on an artifact with one damaged file exit 0,
    1, 2 or 3, never with a traceback, and a config error is one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "d")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["solve", "--n", "5", "--epsilon", "0.5", "--out", d]) == 0
        path = os.path.join(d, name)
        with open(path, "rb") as fh:
            data = fh.read()
        sep = b"=" if name == "manifest.txt" else b","
        with open(path, "wb") as fh:
            fh.write(_corrupt(data, kind, sep, line, col, cut, word))
        for command in ("verify", "solve"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main([command, "--platform", d, "--out", os.path.join(tmp, command)])
            err = err.getvalue()
            assert status in (0, 1, 2, 3)
            assert "Traceback" not in err
            if status == 2:
                assert err.startswith("matchlab: config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, key, value, message", [
    ("solve", "n", "six", "key 'n' must be an integer, got 'six'"),
    ("verify", "rho", None, "missing key 'rho'"),
    ("verify", "alpha", "half", "key 'alpha' must be a number, got 'half'"),
], ids=["n-not-an-integer", "rho-missing", "alpha-not-a-number"])
def test_bad_manifest_value_names_file_and_key(tmp_path, capsys, command, key, value, message):
    d = tmp_path / "d"
    assert main(["solve", "--n", "6", "--out", str(d)]) == 0
    path = d / "manifest.txt"
    lines = [line for line in path.read_text().splitlines() if not line.startswith(key + "=")]
    path.write_text("\n".join(lines + ([] if value is None else [f"{key}={value}"])) + "\n")
    capsys.readouterr()
    assert main([command, "--platform", str(d), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"matchlab: config error: cannot read {d}: {path}: {message}\n"
    assert not (tmp_path / "o").exists()


def _nan_table(tmp_path):
    """Write a 4-node production table with one NaN entry; returns its path."""
    rows = [(i, j, "nan" if i == j == 1 else format_float((i + 1) * (j + 1) / 16))
            for i in range(4) for j in range(4)]
    path = tmp_path / "table.csv"
    path.write_text("i,j,f\n" + "".join(f"{i},{j},{f}\n" for i, j, f in rows))
    return str(path)


@pytest.mark.parametrize("command, flags, keys", [
    ("solve", ["--rho", "nan"], {}),
    ("solve", ["--alpha", "inf"], {}),
    ("design", ["--r", "-1"], {}),
    ("sweep", [], {"sweep_rho": "-1,1"}),
    ("sweep", [], {"sweep_r": "0.05,nan"}),
    ("simulate", ["--r", "0.001"], {}),
    ("simulate", [], {"horizon": "10", "burn_in": "20"}),
    ("simulate", [], {"horizon": "inf"}),
    ("simulate", [], {"agents_per_node": "0"}),
    ("solve", [], {"tol_u": "nan"}),
    ("solve", [], {"tol_w": "nan"}),
    ("sweep", [], {"sweep_rho": "1,2", "tol_w": "-1"}),
    ("solve", [], {"max_outer": "0"}),
    ("simulate", ["--jobs", "-1"], {}),
    ("solve", ["--f", "xy+c", "--c", "nan"], {}),
    ("solve", ["--f", "xy+c", "--c", "inf"], {}),
    ("design", ["--f", "xy+c", "--c", "-1"], {}),
    ("sweep", ["--f", "xy+c", "--c", "nan"], {"sweep_rho": "1,2"}),
    ("solve", [], {"f": "table", "table": _nan_table}),
    ("simulate", ["--seed", "-1"], {}),
    ("solve", ["--seed", "-1"], {}),
    ("design", ["--seed", "-1"], {}),
    ("verify", ["--seed", "-1"], {}),
    ("sweep", ["--seed", "-1"], {"sweep_rho": "1,2"}),
    ("oracle", ["--seed", "-1"], {}),
    ("oracle", [], {"oracle_n": "7"}),
    ("oracle", [], {"oracle_n": "1"}),
    ("oracle", [], {"involution_block": "0"}),
    ("oracle", [], {"involution_block": "1"}),
    ("oracle", [], {"involution_block": "13"}),
    ("solve", ["--cutoff", "0.9"], {}),
    ("design", ["--cutoff", "0.9"], {}),
    ("simulate", ["--cutoff", "0.9"], {}),
    ("sweep", ["--cutoff", "0.9"], {"sweep_rho": "1,2"}),
    ("sweep", [], {"sweep_rho": ","}),
], ids=["rho-nan", "alpha-inf", "r-negative", "sweep-rho-negative", "sweep-r-nan",
        "simulate-truncation", "simulate-burn-in-past-horizon", "simulate-infinite-horizon",
        "simulate-no-agents", "tol-u-nan", "tol-w-nan", "sweep-tol-w-negative",
        "max-outer-zero", "jobs-negative", "c-nan", "c-inf", "c-negative", "sweep-c-nan", "table-nan",
        "seed-negative", "solve-seed-negative", "design-seed-negative",
        "verify-seed-negative", "sweep-seed-negative", "oracle-seed-negative",
        "oracle-n-above-6", "oracle-n-below-2",
        "involution-block-zero", "involution-block-one", "involution-block-above-12",
        "solve-cutoff-above-top-node",
        "design-cutoff-above-top-node", "simulate-cutoff-above-top-node",
        "sweep-cutoff-above-top-node", "sweep-list-empty"])
def test_bad_numeric_input_is_a_config_error(tmp_path, capsys, command, flags, keys):
    # a callable value writes its input file and returns the path
    keys = {key: value(tmp_path) if callable(value) else value for key, value in keys.items()}
    cfg = write_config(tmp_path / "c.cfg", n=4, **keys)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matchlab: config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_is_refused_by_every_command(tmp_path, capsys, command):
    """Every command refuses a negative seed with the one line ``simulate``
    gives, so no JSON artifact records one."""
    out = tmp_path / "o"
    assert main([command, "--n", "4", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "matchlab: config error: seed must be nonnegative, got -1\n"
    assert not out.exists()


#: numpy's message for an array too large to allocate.
_TOO_LARGE = ("Unable to allocate 8.88 PiB for an array with shape (100000000, 100000000) "
              "and data type bool")


def _allocation_fails(*args):
    """A layer that runs out of memory; module level, so a worker process
    can run it."""
    raise MemoryError(_TOO_LARGE)


def _allocation_fails_silently(*args):
    raise MemoryError()


@pytest.mark.parametrize("layer, expected", [
    (_allocation_fails, _TOO_LARGE), (_allocation_fails_silently, "an allocation failed")])
def test_failed_allocation_exits_2_with_one_line(tmp_path, capsys, monkeypatch, layer, expected):
    """A layer that cannot allocate its arrays ends the run with exit 2 and
    one line naming the allocation, never with a traceback or exit 1."""
    monkeypatch.setattr(cli, "solve_dse", layer)
    assert main(["solve", "--n", "4", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"matchlab: out of memory: {expected}\n"


def test_failed_allocation_in_a_worker_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """A ``--jobs`` worker's MemoryError comes back to the parent, which
    exits 2 with the worker's one line."""
    monkeypatch.setattr(cli, "_run_sweep_point", _allocation_fails)
    cfg = write_config(tmp_path / "c.cfg", sweep_rho="0.5,1")
    assert main(["sweep", "--n", "4", "--jobs", "2", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"matchlab: out of memory: {_TOO_LARGE}\n"


@pytest.mark.parametrize("damage", TABLE_DAMAGES)
def test_incomplete_table_is_a_config_error(tmp_path, capsys, damage):
    """A ``table.csv`` without every pair once, in row-major order, exits 2
    with one line naming the file."""
    table = write_table(tmp_path / "table.csv", damage)
    out = tmp_path / "o"
    assert main(["solve", "--n", "4", "--f", "table", "--config",
                 write_config(tmp_path / "c.cfg", table=table), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"matchlab: config error: cannot read {table}: {table}: rows must list every pair "
        "(i, j) of the nodes 0 to 3 once each, in row-major order\n")
    assert not out.exists()


def _state(M):
    n = len(M)
    return DSEState(w=np.zeros(n), u=np.ones(n), M=M, bellman_residual=0.0,
                    balance_residual=0.0)


_BAND = np.abs(np.subtract.outer(np.arange(9), np.arange(9))) <= 2


@pytest.mark.parametrize("M, runs", [(np.zeros((4, 4), dtype=bool), 0),
                                     (np.ones((5, 5), dtype=bool), 5),
                                     (np.triu(np.ones((12, 12), dtype=bool)), 12),
                                     (_BAND, 9),
                                     (_BAND | _BAND[::-1], 13)],
                         ids=["empty", "full", "upper", "band", "two-runs-per-row"])
def test_acceptance_csv_golden(tmp_path, M, runs):
    _write_acceptance(str(tmp_path), _state(M))
    expected = reference_runs(M, header="i,j,j_last", values=False)
    assert expected.count(b"\n") - 1 == runs
    assert (tmp_path / "acceptance.csv").read_bytes() == expected


def _mixture_artifact(d):
    save_platform(Platform(grid=make_grid(40), cutoff=0, kernel=mixture_kernel(40, 0.3, 0.3),
                           transfers=np.zeros(40)), ProductionFunction.multiplicative(), str(d))
    return ["--platform", str(d)]


@pytest.mark.parametrize("flags", [
    ["--n", "40"],
    ["--n", "40", "--epsilon", "0.5"],
    _mixture_artifact,
    ["--n", "40", "--cutoff", "0.5", "--epsilon", "0.2"],
], ids=["identity", "eps0.5", "mixture", "cutoff0.5"])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_acceptance_csv_runs_rebuild_m_from_dse(tmp_path, flags, command):
    """Expanding the runs of ``acceptance.csv`` gives exactly the acceptance
    rule applied to the wages of ``dse.csv``, in a solve and in every sweep point."""
    if callable(flags):
        flags = flags(tmp_path / "artifact")
    cfg = write_config(tmp_path / "c.cfg", sweep_rho="0.5,2")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 0
    dirs = ([out / row["dir"] for row in csv_rows(out / "sweep_manifest.csv")]
            if command == "sweep" else [out])
    for d in dirs:
        platform, production = load_platform(str(d))
        n = platform.grid.n
        w = np.array([float(row["w"]) for row in csv_rows(d / "dse.csv")])
        runs = csv_rows(d / "acceptance.csv")
        assert (d / "acceptance.csv").read_text().startswith("i,j,j_last\n")
        M = np.zeros((n, n), dtype=bool)
        for run in runs:
            M[int(run["i"]), int(run["j"]):int(run["j_last"]) + 1] = True
        assert np.array_equal(M, acceptance(production.values(platform.grid), w))
        assert 0 < len(runs) <= 2 * n


# ---------------------------------------------------------------------------
# golden bytes: each CSV against one formatted line per row
# ---------------------------------------------------------------------------


def test_dse_csv_golden_with_negative_zero_and_nan(tmp_path):
    g = make_grid(4)
    w = np.array([-0.0, 0.0, 0.125, np.nan])
    u = np.array([1.0, np.nan, 1.0 / 3.0, -0.0])
    _write_dse(str(tmp_path), g, DSEState(w=w, u=u, M=np.zeros((4, 4), dtype=bool),
                                         bellman_residual=0.0, balance_residual=0.0))
    expected = reference_csv("i,x,w,u", zip(range(4), g.nodes, w, u))
    assert "\n0,0.125,-0,1\n" in expected and "nan" in expected
    assert (tmp_path / "dse.csv").read_text() == expected


def test_design_csvs_golden(tmp_path, params, f_xy):
    out = tmp_path / "d"
    assert main(["design", "--n", "40", "--cutoff", "auto", "--out", str(out)]) == 0
    g = make_grid(40)
    exclusion = optimal_exclusion(g, f_xy)
    k = exclusion.cutoff_index
    result = design(g, f_xy, params, k)
    rent, _ = informational_rent(result.platform, f_xy, params, result.dse)
    w, t = result.dse.w, result.platform.transfers
    expected = {
        "design.csv": reference_csv("i,x,w,t,m,included", (
            (i, g.nodes[i], w[i], t[i], rent[i], "1" if i >= k else "0") for i in range(40))),
        "exclusion_curve.csv": reference_csv("k,x_tilde,profit,phi", zip(
            range(40), g.nodes, exclusion.profit_curve, exclusion.phi)),
        "dse.csv": reference_csv("i,x,w,u", zip(range(40), g.nodes, w, result.dse.u)),
        "transfers.csv": reference_csv("i,t", zip(range(40), t)),
    }
    for name, text in expected.items():
        assert (out / name).read_text() == text, name


def test_simulate_csvs_golden(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", n=4, r=1.0, agents_per_node=20, horizon=15.0,
                       burn_in=1.0, replications=2, event_log="true")
    assert main(["simulate", "--config", cfg, "--seed", "11", "--epsilon", "0.3",
                 "--out", str(out)]) == 0
    g = make_grid(4)
    params = SearchParams(rho=1.0, alpha=0.5, r=1.0)
    f = ProductionFunction.multiplicative()
    platform = glitch(first_best_platform(g, 0), 0.3)
    state = solve_dse(platform, f, params)
    outcome = simulate(platform, f, params, state.w,
                       SimConfig(agents_per_node=20, horizon=15.0, burn_in=1.0, seed=11,
                                 replications=2, collect_events=True))
    kinds = {kind for _, kind, _, _ in outcome.event_log}
    assert {"fail", "match", "divorce"} <= kinds and "miss" not in kinds
    assert (out / "sim.csv").read_text() == reference_csv(
        "i,x,u_hat,se_u,payoff_hat,se_payoff",
        zip(range(4), g.nodes, outcome.unmatched_fraction_by_node,
            outcome.se_unmatched_by_node, outcome.mean_discounted_payoff_by_node,
            outcome.se_payoff_by_node))
    assert (out / "events.csv").read_text() == reference_csv(
        "t,type,agent_a,agent_b", outcome.event_log)


# ---------------------------------------------------------------------------
# sweep and oracle
# ---------------------------------------------------------------------------


def test_sweep_creates_isolated_points(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", n=8, sweep_rho="0.5,1",
                       sweep_alpha="0.5,1")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = csv_rows(out / "sweep_manifest.csv")
    assert len(rows) == 4
    for row in rows:
        sub = out / row["dir"]
        assert (sub / "dse.csv").exists()
        manifest = dict(line.split("=", 1) for line in
                        (sub / "manifest.txt").read_text().splitlines())
        assert float(manifest["rho"]) == float(row["rho"])


@pytest.mark.parametrize("sweep_rho, rhos", [("0.5,1", [0.5, 1.0])], ids=["two-points"])
def test_sweep_manifest_csv_golden(tmp_path, sweep_rho, rhos):
    cfg = write_config(tmp_path / "c.cfg", n=6, sweep_rho=sweep_rho, sweep_alpha="0.3")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = [(idx, rho, 0.3, 0.05, f"point_{idx:04d}_rho{rho:g}_alpha0.3_r0.05")
            for idx, rho in enumerate(rhos)]
    assert (out / "sweep_manifest.csv").read_text() == reference_csv(
        "point,rho,alpha,r,dir", rows)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_loads_its_platform_once(tmp_path, monkeypatch, jobs):
    """Every point of a --platform sweep writes the CSVs a solve of that
    platform writes, from one load of the artifact."""
    d = tmp_path / "d"
    assert main(["solve", "--n", "6", "--epsilon", "0.3", "--out", str(d)]) == 0
    loads = []
    load = matchlab.cli.load_platform
    monkeypatch.setattr(matchlab.cli, "load_platform", lambda path: loads.append(path) or load(path))
    cfg = write_config(tmp_path / "c.cfg", sweep_rho="0.5,2")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--platform", str(d), "--jobs", jobs,
                 "--out", str(out)]) == 0
    assert loads == [str(d)]
    for row in csv_rows(out / "sweep_manifest.csv"):
        solo = tmp_path / f"solo{row['point']}"
        assert main(["solve", "--platform", str(d), "--rho", row["rho"],
                     "--out", str(solo)]) == 0
        point = read_dir_bytes(out / row["dir"])
        for name, data in read_dir_bytes(solo).items():
            if name.endswith(".csv"):
                assert point[name] == data, name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_glitches_its_platform_once(tmp_path, monkeypatch, jobs):
    """A sweep of the built-in platform under --epsilon glitches it once and
    hands the result to every point, which writes what a solve writes."""
    glitches = []
    mix = matchlab.cli.glitch
    monkeypatch.setattr(matchlab.cli, "glitch",
                        lambda platform, eps: glitches.append(eps) or mix(platform, eps))
    cfg = write_config(tmp_path / "c.cfg", sweep_rho="0.5,2")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--n", "8", "--epsilon", "0.3", "--jobs", jobs,
                 "--out", str(out)]) == 0
    assert glitches == [0.3]
    for row in csv_rows(out / "sweep_manifest.csv"):
        solo = tmp_path / f"solo{row['point']}"
        assert main(["solve", "--n", "8", "--epsilon", "0.3", "--rho", row["rho"],
                     "--out", str(solo)]) == 0
        point = read_dir_bytes(out / row["dir"])
        for name, data in read_dir_bytes(solo).items():
            if name.endswith(".csv"):
                assert point[name] == data, name


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", n=6, sweep_rho="0.5,1,2")
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(["sweep", "--config", cfg, "--jobs", "1", "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg, "--jobs", "2",
                 "--out", str(parallel)]) == 0
    for row in csv_rows(serial / "sweep_manifest.csv"):
        a = (serial / row["dir"] / "dse.csv").read_bytes()
        b = (parallel / row["dir"] / "dse.csv").read_bytes()
        assert a == b


def test_oracle_reports_results(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", oracle_n=3, involution_block=4)
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["prop4_upper_set_ok"] is True
    assert payload["involution_identity_minimal"] is True
    assert payload["involutions_scanned"] == 10


def test_oracle_names_the_refused_grid_size(tmp_path, capsys):
    """A grid size an exhaustive scan refuses exits 2 with the scan's
    message after the key's name."""
    for key, size, cap in (("oracle_n", 7, 6), ("involution_block", 13, 12)):
        cfg = write_config(tmp_path / "c.cfg", **{key: size})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"matchlab: config error: {key}: the exhaustive scan is limited to grids of "
            f"at most {cap} nodes, got {size}\n")


@pytest.mark.parametrize("oracle_n, involution_block", [(4, 5), (3, 3)],
                         ids=["block-default", "both-below"])
def test_oracle_refuses_a_table_of_another_size(tmp_path, capsys, monkeypatch,
                                                oracle_n, involution_block):
    """``oracle --f table`` reads one table on both scan grids: unless both
    sizes equal the table's, it exits 2 before either scan runs, with one
    line naming both keys and the table's size."""
    def no_scan(*args):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(matchlab.cli, "prop4_oracle", no_scan)
    monkeypatch.setattr(matchlab.cli, "involution_oracle", no_scan)
    table = tmp_path / "table.csv"
    table.write_text(reference_csv("i,j,f", [(i, j, float(i * j)) for i in range(4)
                                             for j in range(4)]))
    cfg = write_config(tmp_path / "c.cfg", f="table", table=table, oracle_n=oracle_n,
                       involution_block=involution_block)
    out = tmp_path / "o"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"matchlab: config error: oracle_n ({oracle_n}) and involution_block "
        f"({involution_block}) must both equal the size of {table} (4 nodes)\n")
    assert not out.exists()


def test_oracle_fails_on_submodular_output(tmp_path):
    """On the tabulated ``f = x + y - x y`` the assortative pairing is not
    rent-minimal, so ``oracle`` exits 1."""
    x = (np.arange(4) + 0.5) / 4
    table = tmp_path / "table.csv"
    table.write_text(reference_csv("i,j,f", [(i, j, float(x[i] + x[j] - x[i] * x[j]))
                                             for i in range(4) for j in range(4)]))
    cfg = write_config(tmp_path / "c.cfg", f="table", table=table, oracle_n=4, involution_block=4)
    out = tmp_path / "o"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 1
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["involution_identity_minimal"] is False
    assert payload["involutions_scanned"] == 10
