"""The package root is the product API, and every public name a module
lists in `__all__` must exist, so a deleted or renamed function cannot
leave a stale entry that only fails when a user star-imports the package.
The reference pipeline the tests hold the kernel against stays importable
from its modules, and importing the package runs none of it."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bqtsim

MODULES = ("bqtsim", "bqtsim.linalg", "bqtsim.channels", "bqtsim.protocol", "bqtsim.metrics", "bqtsim.oracles")

PRODUCT = {
    "QubitInput", "Scenario", "BranchOutcome", "ProtocolResult", "run_protocol", "distribute", "average_fidelity",
    "closed_form", "closed_form_names", "OracleValue", "entanglement_entropy_bob", "von_neumann_entropy",
}

# Names the package root no longer exports, by the module that keeps them.
DROPPED = {
    "bqtsim.linalg": ("kron", "embed_op", "partial_trace", "hermitian_eigenvalues"),
    "bqtsim.channels": (
        "DegenerateBranchError", "adc_kraus", "apply_channel", "eam_postselect", "weak_measurement_op",
    ),
    "bqtsim.protocol": ("prepare_channel", "compose_total", "correction_ops", "apply_correction", "enumerate_branches"),
}

# Records deleted from the package: a scenario's situation picks its weak
# family, `channels._check_unit` does every range check, and the input
# average's node count is internal.
DELETED = ("WeakVariant", "AdcParams", "WeakMeasurementParams", "QuadratureSpec")

# The reference functions, none of which an import may call.
REFERENCES = (
    "adc_kraus", "apply_channel", "eam_postselect", "weak_measurement_op", "kron", "embed_op",
    "prepare_channel", "compose_total", "correction_ops", "apply_correction", "enumerate_branches",
    "_branch_contractions", "partial_trace",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_star_import():
    namespace = {}
    exec("from bqtsim import *", namespace)
    assert set(bqtsim.__all__) <= set(namespace)


def test_root_exports_the_product_api():
    assert sorted(bqtsim.__all__) == sorted(PRODUCT)


@pytest.mark.parametrize("module,names", sorted(DROPPED.items()))
def test_dropped_root_names_resolve_from_their_module(module, names):
    found = importlib.import_module(module)
    for name in names:
        assert not hasattr(bqtsim, name), name
        assert getattr(found, name, None) is not None, f"{module}.{name}"


def test_deleted_records_exist_in_no_module():
    names = [info.name for info in pkgutil.walk_packages(bqtsim.__path__, "bqtsim.")]
    assert "bqtsim.protocol" in names
    for name in ["bqtsim"] + names:
        module = importlib.import_module(name)
        assert not [n for n in DELETED if hasattr(module, n)], name
    assert not any(hasattr(scenario, "weak_variant") for scenario in bqtsim.Scenario)


def test_import_runs_no_reference_code():
    """A fresh `import bqtsim`, profiled call by call, enters none of the
    reference functions."""
    probe = (
        "import sys\n"
        "calls = set()\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_globals.get('__name__', '').startswith('bqtsim'):\n"
        "        calls.add(frame.f_code.co_name)\n"
        "sys.setprofile(hook)\n"
        "import bqtsim\n"
        "sys.setprofile(None)\n"
        "assert '_adc_monomials' in calls, sorted(calls)\n"
        "print(' '.join(sorted(calls)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bqtsim.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    called = set(done.stdout.split())
    assert not called & set(REFERENCES), sorted(called & set(REFERENCES))
