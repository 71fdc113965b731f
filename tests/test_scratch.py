"""The totals-only calls (`_row_totals` and the input average) keep no
state between calls: each thread gets results equal, by bytes, to what it
computes alone, and the input average faults in no fresh pages per call,
since it builds no 4x4 branch state. Verify's stacked calls fault in at
most half the pages the complex 4x4 fold did, and a stacked fold hands
back its product without copying it."""
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bqtsim
from bqtsim.metrics import _average_fidelities, _node_states
from bqtsim.protocol import Scenario, _fold, _row_totals, distribute


def scratch_calls(scenario, p, seed):
    """Three totals-only calls of different sizes at one point: the input
    average at 32 and 64 nodes and the totals of 100 input rows."""
    dist, _ = distribute(scenario, p)
    rng = np.random.default_rng(seed)
    rows, row_qs = rng.random((100, 4)), rng.random(100)
    qs = [0.0, p, 1.0, float(rng.uniform())]
    return (
        lambda: _average_fidelities(dist, scenario, qs, 32),
        lambda: _average_fidelities(dist, scenario, qs, 64),
        lambda: _row_totals(dist, scenario, [row_qs], rows)[0],
    )


def as_bytes(result) -> bytes:
    return b"".join(np.asarray(part).tobytes() for part in result)


def test_threads_get_what_each_computes_alone():
    """Two threads, each cycling through its own three calls ten times,
    switching as often as the interpreter allows."""
    points = ((Scenario.ALL_ADC, 0.4, 1), (Scenario.RECOVERY_ADC, 0.7, 2))
    calls = [scratch_calls(*point) for point in points]
    alone = [[as_bytes(call()) for call in mine] for mine in calls]
    got = [[], []]

    def work(k):
        for _ in range(10):
            for call in calls[k]:
                got[k].append(as_bytes(call()))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(2):
        assert len(got[k]) == 30
        for n, result in enumerate(got[k]):
            assert result == alone[k][n % 3], f"thread {k} call {n}"


# Run in a fresh interpreter with one BLAS thread, as the benchmark runs:
# whether freed temporaries go back to the OS depends on the allocator's
# thresholds, which earlier work in the same process (other tests, BLAS
# thread start-up) can raise.
FAULT_CHILD = """\
import resource
from bqtsim.metrics import _average_fidelities
from bqtsim.protocol import Scenario, distribute
dist, _ = distribute(Scenario.ALL_ADC, 0.4)
for _ in range(5):
    _average_fidelities(dist, Scenario.ALL_ADC, [0.1, 0.3], 64)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    _average_fidelities(dist, Scenario.ALL_ADC, [0.1, 0.3], 64)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(child: str, *args: str) -> int:
    """The minor faults a child script prints, run in a fresh interpreter
    with one BLAS thread and a fixed, minimal environment, whatever the
    caller's: one launcher's larger environment took check 3's count from
    0 to about 200 per call. Which pages a call faults in also depends on
    what the process allocated and freed before it, and compiling a module
    frees buffers large enough to raise glibc's trim threshold above these
    calls' peaks. So the child loads every module from cached bytecode, as
    an installed package does: a first run of the same script fills a
    bytecode cache of its own, and the second run, the one measured, reads
    it."""
    pytest.importorskip("resource")
    with tempfile.TemporaryDirectory() as cache:
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(Path(bqtsim.__file__).parent.parent),
            "PYTHONPYCACHEPREFIX": cache,
        }
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", child, *args], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_input_average_does_not_fault_per_call():
    """After a warm-up, the 64-node input average touches no fresh pages:
    at most 2 minor faults per call on average over 20 calls. Fresh branch
    stacks on every call took some 200."""
    faults = minor_faults(FAULT_CHILD)
    assert faults / 20 <= 2.0, f"{faults} minor faults in 20 calls"


# Verify's stacked kernel calls: check 3's input average (51 unprotected-all
# states, 32 nodes) and check 1's row totals (10 all-adc states of 100 rows
# each, one q_w per row).
STACKED_CHILD = """\
import resource, sys
import numpy as np
from bqtsim.metrics import _average_fidelities
from bqtsim.protocol import Scenario, _row_totals, distribute
if sys.argv[1] == "check3":
    bare = Scenario.UNPROTECTED_ALL
    dists, _ = distribute(bare, [float(p) for p in np.linspace(0.0, 1.0, 51)])
    call = lambda: _average_fidelities(dists, bare, [0.0], 32)
else:
    grid = [k / 10 for k in range(10)]
    dists, _ = distribute(Scenario.ALL_ADC, grid)
    rows, qs = np.random.default_rng(1001).random((1000, 4)), np.tile(np.repeat(grid, 10), 10)
    call = lambda: _row_totals(dists, Scenario.ALL_ADC, [qs], rows)
for _ in range(5):
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("call, bound", [("check3", 207), ("check1", 109)])
def test_stacked_calls_fault_in_half_the_pages(call, bound):
    """After a warm-up, each of verify's stacked calls faults in at most
    half the pages per call that the complex 4x4 fold and forms product
    did: 414 to 466 and 218 minor faults per call, measured so. Which pages
    a call faults in depends on the allocator's thresholds and on what the
    process allocated before, so the bound is on the mean, not on zero."""
    faults = minor_faults(STACKED_CHILD, call)
    assert faults / 20 <= bound, f"{faults} minor faults in 20 calls"


def test_stacked_fold_returns_its_product_uncopied():
    """Check 3's fold, 51 states against the shared 32 node states: the
    batched product's output is the result, so the call's traced peak stays
    near the result's size. A product in the inputs' stride order, then
    copied by the final reshape, peaked at 2.1 times it."""
    bare = Scenario.UNPROTECTED_ALL
    dists = np.stack([distribute(bare, float(p))[0] for p in np.linspace(0.0, 1.0, 51)])
    rho, _ = _node_states(32)
    _fold(dists, rho)
    tracemalloc.start()
    try:
        folded = _fold(dists, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert folded.flags.c_contiguous
    assert peak <= 1.5 * folded.nbytes, f"peak {peak} bytes for a {folded.nbytes}-byte result"
