"""Every layer the benchmark's tracer times must exist in bqtsim. The
tracer reports a missing target as absent rather than failing, so a
deleted or renamed function would otherwise only show in the benchmark's
own self-test."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_constants() -> dict:
    """The tracer's module-level PACKAGE and TARGETS, read from its source
    without running it."""
    found = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("PACKAGE", "TARGETS"):
                found[name] = ast.literal_eval(node.value)
    return found


def test_tracer_targets_resolve():
    constants = tracer_constants()
    package, targets = constants["PACKAGE"], constants["TARGETS"]
    assert targets
    for target in targets:
        # The tracer's own lookup: `module.func` under the package.
        module, func = target.split(".")
        fn = getattr(importlib.import_module(f"{package}.{module}"), func, None)
        assert callable(fn), f"{target} is not a callable of {package}"
