import csv
import json
import os

import numpy as np
import pytest

from matchlab.cli import _write_acceptance, main
from matchlab.core import DSEState


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


def test_auto_cutoff_only_for_design(tmp_path):
    assert main(["solve", "--n", "8", "--cutoff", "auto",
                 "--out", str(tmp_path / "o")]) == 2


def test_comment_lines_ignored(tmp_path):
    cfg = write_config(tmp_path / "c.cfg")
    with open(cfg, "a") as fh:
        fh.write("# a comment\nn=6  # trailing comment\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


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
    rows = list(csv.DictReader(open(out / "dse.csv")))
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
    cfg = write_config(tmp_path / "c.cfg", n=8, max_outer=1)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_solve_glitched_platform(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--n", "10", "--epsilon", "0.05", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "platform.csv")))
    assert len(rows) == 100  # the glitched kernel is dense


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
    rows = list(csv.DictReader(open(out / "sim.csv")))
    assert len(rows) == 4
    events = list(csv.DictReader(open(out / "events.csv")))
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


# ---------------------------------------------------------------------------
# design and verify
# ---------------------------------------------------------------------------


def test_design_reproduces_exclusion_example(tmp_path):
    out = tmp_path / "d"
    assert main(["design", "--n", "1000", "--rho", "1", "--alpha", "0.5",
                 "--r", "0.05", "--f", "xy", "--cutoff", "auto",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "exclusion_curve.csv")))
    assert len(rows) == 1000
    best = max(rows, key=lambda row: float(row["profit"]))
    assert abs(float(best["x_tilde"]) - 0.5) <= 1e-3
    ratio = float(best["profit"]) / float(rows[0]["profit"])
    assert ratio == pytest.approx(1.25, abs=1e-2)
    design_rows = list(csv.DictReader(open(out / "design.csv")))
    included = [row for row in design_rows if row["included"] == "1"]
    assert included[0]["i"] == "500"


def test_verify_certifies_design_output(tmp_path):
    d, v = tmp_path / "d", tmp_path / "v"
    assert main(["design", "--n", "200", "--cutoff", "auto", "--out", str(d)]) == 0
    assert main(["verify", "--platform", str(d), "--out", str(v)]) == 0
    report = json.loads((v / "audit.json").read_text())
    assert report["certified"] is True
    assert report["ic_max_violation"] <= 1e-8
    assert report["ir_min_slack"] >= -1e-12


def test_verify_flags_corrupted_transfers(tmp_path):
    d = tmp_path / "d"
    assert main(["design", "--n", "100", "--cutoff", "0.5", "--out", str(d)]) == 0
    # full extraction: replace the transfer schedule with the wage column
    dse = {row["i"]: row["w"] for row in csv.DictReader(open(d / "dse.csv"))}
    lines = ["i,t"] + [f"{i},{dse[str(i)]}" for i in range(100)]
    (d / "transfers.csv").write_text("\n".join(lines) + "\n")
    v = tmp_path / "v"
    assert main(["verify", "--platform", str(d), "--out", str(v)]) == 1
    report = json.loads((v / "audit.json").read_text())
    assert report["ic_max_violation"] > 1e-3


def _corrupt_platform_csv(d):
    (d / "platform.csv").write_text("i,j,G\n0,0,1\n1,1\n")


def _drop_dse_csv(d):
    (d / "dse.csv").unlink()


def _asymmetric_platform_csv(d):
    rows = ["0,0,0.999", "0,1,0.001", "1,1,1"] + [f"{i},{i},1" for i in range(2, 6)]
    (d / "platform.csv").write_text("i,j,G\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("command, damage", [
    ("verify", _corrupt_platform_csv),
    ("verify", _drop_dse_csv),
    ("solve", _corrupt_platform_csv),
    ("simulate", _corrupt_platform_csv),
    ("solve", _asymmetric_platform_csv),
    ("simulate", _asymmetric_platform_csv),
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
    ("solve", [], {"damping": "nan"}),
    ("solve", [], {"tol_w": "nan"}),
    ("sweep", [], {"sweep_rho": "1,2", "damping": "2"}),
], ids=["rho-nan", "alpha-inf", "r-negative", "sweep-rho-negative", "sweep-r-nan",
        "simulate-truncation", "simulate-burn-in-past-horizon", "simulate-infinite-horizon",
        "simulate-no-agents", "damping-nan", "tol-w-nan", "sweep-damping-out-of-range"])
def test_bad_numeric_input_is_a_config_error(tmp_path, capsys, command, flags, keys):
    cfg = write_config(tmp_path / "c.cfg", n=4, **keys)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matchlab: config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _state(M):
    n = len(M)
    return DSEState(w=np.zeros(n), u=np.ones(n), M=M, bellman_residual=0.0,
                    balance_residual=0.0)


@pytest.mark.parametrize("M", [np.zeros((4, 4), dtype=bool),
                               np.ones((5, 5), dtype=bool),
                               np.triu(np.ones((12, 12), dtype=bool))],
                         ids=["empty", "full", "upper"])
def test_acceptance_csv_golden(tmp_path, M):
    _write_acceptance(str(tmp_path), _state(M))
    expected = "i,j\n" + "".join(f"{a},{b}\n" for a, b in zip(*np.nonzero(M)))
    assert (tmp_path / "acceptance.csv").read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# sweep and oracle
# ---------------------------------------------------------------------------


def test_sweep_creates_isolated_points(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", n=8, sweep_rho="0.5,1",
                       sweep_alpha="0.5,1")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "sweep_manifest.csv")))
    assert len(rows) == 4
    for row in rows:
        sub = out / row["dir"]
        assert (sub / "dse.csv").exists()
        manifest = dict(line.split("=", 1) for line in
                        (sub / "manifest.txt").read_text().splitlines())
        assert float(manifest["rho"]) == float(row["rho"])


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", n=6, sweep_rho="0.5,1,2")
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg, "--jobs", "2",
                 "--out", str(parallel)]) == 0
    for row in csv.DictReader(open(serial / "sweep_manifest.csv")):
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
