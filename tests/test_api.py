"""The public names resolve, and the README's API example runs."""

import os
import re

import matchlab
from matchlab import cli, core, designer, simulator, solver, verifier

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


def test_readme_python_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
