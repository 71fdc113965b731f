"""Span tracer for the public functions of bqtsim, installed from outside.

Each target `<module>.<function>` is wrapped once, and the wrapper is bound
at every place the original is looked up: every `bqtsim` module (the
package too) whose namespace holds that same function object. Patching
only the defining module would miss callers that imported the name, such
as `bqtsim.metrics.enumerate_branches` or `bqtsim.cli.run_protocol`.

Spans (target, start, end, parent) are kept in flat in-memory arrays and
written out by `save`. A target that does not exist in the loaded program
(a later refactor may delete or move it) is reported as absent; it is
never an error.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "bqtsim"

# Layer boundaries, `<module>.<function>` under the `bqtsim` package.
TARGETS = (
    "linalg.kron",
    "linalg.partial_trace",
    "linalg.embed_op",
    "linalg.hermitian_eigenvalues",
    "channels.adc_kraus",
    "channels.apply_channel",
    "channels.eam_postselect",
    "channels.weak_measurement_op",
    "protocol.prepare_channel",
    "protocol.distribute",
    "protocol.compose_total",
    "protocol.correction_ops",
    "protocol.apply_correction",
    "protocol.enumerate_branches",
    "protocol.run_protocol",
    "metrics.average_fidelity",
    "metrics.closed_form",
    "metrics.entanglement_entropy_bob",
    "metrics.von_neumann_entropy",
    "oracles.joint_prob_closed",
    "oracles.recovered_closed",
    "cli.main",
    "cli.cmd_sweep",
    "cli.cmd_verify",
)
ROOT = "bench.item"


def _count_live(tracer: "Tracer", branches) -> None:
    """Useful outcomes per attempt of one branch enumeration."""
    try:
        live = sum(1 for b in branches if not b.degenerate)
        tracer.live_branches += live
        tracer.all_branches += len(branches)
    except (TypeError, AttributeError):
        tracer.live_unavailable = True


_HOOKS = {"protocol.enumerate_branches": _count_live}


class Tracer:
    def __init__(self) -> None:
        self.targets = TARGETS
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list = []
        self.live_branches = 0
        self.all_branches = 0
        self.live_unavailable = False
        self.absent = [t for t in self.targets if self._lookup(t) is None]

    @staticmethod
    def _lookup(target: str):
        module, func = target.split(".")
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        fn = getattr(mod, func, None)
        return fn if callable(fn) else None

    def begin(self, name_index: int = 0) -> int:
        i = len(self.start)
        self.name_id.append(name_index)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_index: int, hook):
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(name_index)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if hook is not None:
                hook(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Bind a wrapper of every present target at each of its bindings."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for idx, target in enumerate(self.targets, start=1):
            fn = self._lookup(target)
            if fn is None:
                continue
            wrapper = self._wrap(fn, idx, _HOOKS.get(target))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array((ROOT,) + self.targets),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def per_round(self, lo: int, hi: int) -> dict:
        """calls, busy and self time per name for the spans in [lo, hi).

        Busy is a span's duration; self is busy minus the time its direct
        children cover. No target calls itself, so busy is not double
        counted. `top_busy_s` is the busy time of the spans directly under
        the benchmark's own item spans.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        inner = parent >= lo
        child = np.bincount(parent[inner] - lo, weights=dur[inner], minlength=hi - lo)
        n = len(self.targets) + 1
        calls = np.bincount(name_id, minlength=n)
        busy = np.bincount(name_id, weights=dur, minlength=n)
        self_time = np.bincount(name_id, weights=dur - child, minlength=n)
        under_root = inner & (name_id[np.clip(parent - lo, 0, None)] == 0)
        out = {"top_busy_s": float(dur[under_root].sum())}
        for idx, target in enumerate(self.targets, start=1):
            out[f"{target}.calls"] = int(calls[idx])
            out[f"{target}.busy_s"] = float(busy[idx])
            out[f"{target}.self_s"] = float(self_time[idx])
        return out
