"""Host-speed calibration: time measured on a shared host, rescaled to a fixed speed.

The benchmark runs on a few cores of a shared host whose speed swings by
1.4-1.8x in phases of seconds to minutes, the same for every process on
it. A run that falls in a slow phase would read slow whatever the program
does. To take that out, a fixed reference kernel of small numpy calls is
timed every PERIOD_S seconds of wall time from a SIGALRM handler, in the
same thread, interleaved with the program's work. Its duration divided by
REF_NOMINAL_S is the host's slowness factor at that moment.

A span of the program's time is then reported as the sum, over the gaps
between reference samples inside it, of gap length divided by the local
factor (a running median over SMOOTH samples). The handler's own time is
excluded, so the program's time is never inflated by the calibration.
The result reads in seconds at the host speed where the reference kernel
takes REF_NOMINAL_S. The kernel does not depend on the program, so a faster or
slower program still reads faster or slower by the same share.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.05
# About the median duration of back-to-back reference() calls on the 2-vCPU
# host the baseline was recorded on (Python 3.11.7, numpy 2.4.6, one
# OpenBLAS thread); medians of 300 calls there ranged from 0.0023 to
# 0.0034 s. Samples taken between the program's calls run colder and
# slower, so rescaled times read about a quarter below raw ones there.
REF_NOMINAL_S = 0.0028
SMOOTH = 3
REF_CALLS = 100

_rng = np.random.default_rng(20250731)
_U4 = np.linalg.qr(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))[0]


def reference() -> float:
    """A fixed amount of work, independent of the program.

    Many small numpy calls, as in the program's per-branch loops: on the
    2-vCPU baseline host their speed tracked the program's more closely
    than that of 64x64 matmuls or of pure-Python loops.
    """
    acc = 0.0
    for _ in range(REF_CALLS):
        acc += np.trace(np.kron(_U4, _U4)[:4, :4] @ _U4).real
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Calibrator:
    """Samples the reference kernel on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.h_start = array("d")
        self.h_end = array("d")
        self.h_cpu = array("d")
        self._busy = False
        self._old = None
        self._t_begin = 0.0
        self._segments = None

    def _sample(self, *_ignored) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            self.h_start.append(t0)
            self.h_end.append(t1)
            self.h_cpu.append(time.process_time() - c0)
        finally:
            self._busy = False

    def start(self) -> None:
        reference()  # first call pays numpy's lazy set-up, untimed
        self._t_begin = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(SMOOTH):  # so that even a short run has samples
            self._sample()
        start = np.frombuffer(self.h_start, dtype=np.float64)
        end = np.frombuffer(self.h_end, dtype=np.float64)
        ref = end - start
        half = SMOOTH // 2
        padded = np.pad(ref, half, mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        factor = local / REF_NOMINAL_S
        # Program time lies in the gaps between samples; the gap before
        # sample i takes sample i's factor, the tail takes the last one.
        self._segments = (
            np.concatenate(([self._t_begin], end)),
            np.concatenate((start, [np.inf])),
            np.concatenate((factor, factor[-1:])),
        )

    def factor(self) -> float:
        """Median slowness factor over the run (1 = nominal speed)."""
        return float(np.median(self._segments[2]))

    def program_time(self, ta: float, tb: float) -> tuple:
        """(raw program seconds, seconds at nominal speed) within [ta, tb]."""
        s, e, f = self._segments
        overlap = np.clip(np.minimum(e, tb) - np.maximum(s, ta), 0.0, None)
        return float(overlap.sum()), float((overlap / f).sum())

    def handler_cpu(self, ta: float, tb: float) -> float:
        """CPU seconds the reference samples used within [ta, tb]."""
        start = np.frombuffer(self.h_start, dtype=np.float64)
        inside = (start >= ta) & (start < tb)
        return float(np.frombuffer(self.h_cpu, dtype=np.float64)[inside].sum())
