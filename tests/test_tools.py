"""The A/B timing tool runs on this tree: `tools/abtime.py` leaves out a
target whose entry point a tree lacks or takes differently, so a
signature change in `src` would otherwise show only as a skipped target."""
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import bqtsim

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """The script tools/<name>.py as a module. abtime pins the BLAS thread
    count in the environment when it is imported, so the environment is
    restored after."""
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_abtime_runs_every_target_on_this_tree(capsys):
    """The tree's `src`, loaded through abtime's own loader under a name of
    its own, gives every target abtime names, none left out, and each
    target runs once.

    numpy's Gauss-Legendre rule at `average4096`'s 4096 nodes solves a
    4096x4096 eigenproblem, about 5 s, which abtime's blocks never time
    since the rule is cached after the first call. Here the loaded copy
    takes midpoint nodes for any rule above 128 points, so that call runs
    on arrays of the same sizes in milliseconds."""
    abtime = load_tool("abtime")
    with mock.patch.dict(sys.modules):
        pkg = abtime.load(Path(bqtsim.__file__).resolve().parents[1], "bqtsim_abtime")
    found = abtime.targets(pkg)
    assert tuple(found) == abtime.NAMES
    assert [name for name, call in found.items() if call is None] == []
    rule = pkg.metrics._nodes_weights

    def nodes_weights(points: int):
        if points <= 128:
            return rule(points)
        return (np.arange(points) + 0.5) / points, np.full(points, 1.0 / points)

    with mock.patch.object(pkg.metrics, "_nodes_weights", nodes_weights):
        for call in found.values():
            call()
    capsys.readouterr()
