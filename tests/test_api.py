"""The public names resolve, and the README's API example runs."""

import dataclasses
import inspect
import os
import re

import matchlab
from matchlab import cli, core, designer, simulator, solver, verifier

from conftest import BLAS_THREAD_VARS, fresh_python

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_public_names_resolve():
    for module in (matchlab, cli, core, designer, simulator, solver, verifier):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_names_are_gone():
    for name in ("misreport_value", "Involution", "first_best_dse",
                 "perfect_info_transfers"):
        assert name not in matchlab.__all__
        assert not hasattr(matchlab, name)
    for constructor in (core.ProductionFunction.__init__, core.ProductionFunction.tabulated):
        assert "dx_table" not in inspect.signature(constructor).parameters
    assert "masked_config_ic" not in verifier.__all__
    assert not hasattr(verifier, "masked_config_ic")
    assert "steady_state_density" not in solver.__all__
    for name in ("kernel", "x_tilde"):
        assert not hasattr(core.Platform, name)


def test_option_counts():
    """The number of fields of each config: an option added or removed
    shows here."""
    counts = {config.__name__: len(dataclasses.fields(config))
              for config in (cli.RunConfig, solver.SolverConfig, simulator.SimConfig)}
    assert counts == {"RunConfig": 27, "SolverConfig": 3, "SimConfig": 6}


def test_import_loads_no_numpy():
    assert fresh_python("import matchlab, sys; print('numpy' in sys.modules)") == "False\n"


def test_dir_covers_all():
    out = fresh_python("import matchlab; print(sorted(set(matchlab.__all__) - set(dir(matchlab))))")
    assert out == "[]\n"


def test_cli_runs_blas_on_one_thread():
    out = fresh_python(
        "import os, matchlab.cli\n"
        f"print([os.environ.get(var) for var in {BLAS_THREAD_VARS!r}])\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    print(len(os.listdir('/proc/self/task')))\n")
    lines = out.splitlines()
    assert lines[0] == "['1', '1', '1']"
    assert lines[1:] in ([], ["1"])


def test_cli_leaves_a_user_thread_count():
    out = fresh_python(
        "import os, matchlab.cli\n"
        f"print([os.environ.get(var) for var in {BLAS_THREAD_VARS!r}])\n",
        OMP_NUM_THREADS="2")
    assert out == "[None, '2', None]\n"


def test_readme_python_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
