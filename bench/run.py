"""bqtsim benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload point-mc --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): `point-mc` (single `run_protocol` calls at
fresh points), `fav-sweep` (single-p `bqtsim sweep` calls, input-averaged)
and `verify` (`bqtsim verify`). A run repeats fixed-size rounds of its
workload in this one single-threaded process until `--seconds` would be
exceeded (at least one round), and checks every output after its round,
outside the timed span.

`--trace 0` reports the end-to-end metrics:
  setup_s      median over fresh interpreters of `import bqtsim` plus one
               warm-up item
  wall_s       median wall time of one round
  cpu_s        median process CPU time of one round
  item_p50_ms  median latency of one item, pooled over all rounds
  item_p90_ms  90th percentile of the same
  peak_rss_mb  peak resident set of this process
Every time above is rescaled to a fixed host speed by calibrate.py: a
reference kernel timed every 50 ms in this thread gives the host's speed
at that moment, and the program's time between samples is divided by it;
the samples' own wall and CPU time are left out. The raw figures and the host's median slowness are printed as notes. The
shared host's speed swings by up to 1.8x between runs; the rescaled times
stay within a few percent.
The share of failed outputs is printed with its denominator and carried as
`failed`/`attempted` in the result line.

`--trace 1` alternates untraced rounds with rounds under the tracer of
tracer.py, and reports per-layer metrics: `<module>.<function>`
`.calls`, `.busy_s` and `.self_s` per round (median over traced rounds),
`channels.kraus_miss_ratio`, `protocol.live_branch_ratio` and
`trace.overhead_s`. Spans are written to `.bench_build/scratch/`.

Seeds 1-10 made the recorded baseline in `trajectory/`; seeds from 100 up
were not used while the benchmark was written and are the hold-out for
re-checking a claimed gain.
"""
from __future__ import annotations

import os

# One BLAS thread, the same on every commit: the benchmark is a single
# caller, and threaded 64x64 matmuls would contend for the few cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_NOMINAL_S, Calibrator, reference, reference_time
from tracer import Tracer
from workloads import WORKLOADS, input_digest, load_program

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "scratch"
SETUP_SAMPLES = 7
SETUP_REF_CALLS = 40

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {bench!r})
from pathlib import Path
from workloads import WORKLOADS, load_program
WORKLOADS[{name!r}].warmup(load_program(Path({src!r})), Path({scratch!r}))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(name: str, samples: int) -> list:
    """(raw, at nominal host speed) set-up seconds of `samples` fresh interpreters.

    The host's speed for each child is the median of SETUP_REF_CALLS
    reference samples taken in this process around it, half before and
    half after.
    """
    code = SETUP_CHILD.format(bench=str(Path(__file__).parent), name=name, src=str(SRC), scratch=str(SCRATCH))
    reference()
    out = []
    for _ in range(samples):
        ref = [reference_time() for _ in range(SETUP_REF_CALLS // 2)]
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        ref += [reference_time() for _ in range(SETUP_REF_CALLS // 2)]
        raw = float(proc.stdout.strip().splitlines()[-1])
        out.append((raw, raw * REF_NOMINAL_S / statistics.median(ref)))
    return out


def run_rounds(wl, bq, seed: int, budget: float, tiny: bool, tracer=None) -> list:
    """Rounds until the next one would overrun `budget` seconds.

    With a tracer, even rounds are traced and odd ones are not, so that
    drift during the run falls on both alike; at least one of each runs.
    Round 0 is traced so that a workload of one round per run (verify) is
    traced as a fresh process runs it, with the program's caches cold.
    Without a tracer, at least one round runs.
    """
    rounds = []
    r = 0
    t_begin = time.perf_counter()
    while True:
        traced = tracer if r % 2 == 0 else None
        items = wl.make_round(seed, r, tiny)
        prepared = [wl.prepare(bq, item, SCRATCH, k) for k, item in enumerate(items)]
        gc.collect()
        lo = traced.mark() if traced else 0
        if traced:
            traced.install()
        lat, outs = [], []
        w0, c0 = time.perf_counter(), time.process_time()
        for args in prepared:
            span = traced.begin() if traced else 0
            t0 = time.perf_counter()
            try:
                out = wl.run(bq, args)
            except (Exception, SystemExit) as exc:  # a raising item is a failed output
                out = exc
            lat.append((t0, time.perf_counter()))
            if traced:
                traced.finish(span)
            outs.append(out)
        w1, c1 = time.perf_counter(), time.process_time()
        if traced:
            traced.uninstall()
        failures = []
        for item, args, out in zip(items, prepared, outs):
            if isinstance(out, BaseException):
                failures.append(f"raised {type(out).__name__}: {out} for {item}")
                continue
            try:
                msg = wl.check(bq, item, args, out)
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc} for {item}"
            if msg:
                failures.append(msg)
        rounds.append({"span": (w0, w1), "wall": w1 - w0, "cpu": c1 - c0, "lat": lat, "failures": failures,
                       "traced": traced is not None, "spans": (lo, traced.mark() if traced else 0)})
        r += 1
        elapsed = time.perf_counter() - t_begin
        if r >= (2 if tracer else 1) and elapsed + statistics.median(x["wall"] for x in rounds) > budget:
            return rounds


def percentile(sorted_vals: list, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def blas_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    observed = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                observed = int(fn())
                break
        if observed is not None:
            break
    return {"blas": name, "blas_threads_set": BLAS_THREADS, "blas_threads_observed": observed}


def env_record(bq, args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "bqtsim": getattr(bq, "__version__", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs_sha256": input_digest(args.workload, args.seed, args.tiny),
    }


def end_to_end(rounds: list, setup: list, cal: Calibrator) -> tuple:
    """End-to-end metrics at nominal host speed, and notes with the raw figures."""
    walls, cpus, raw_walls = [], [], []
    for r in rounds:
        raw, scaled = cal.program_time(*r["span"])
        cpu = r["cpu"] - cal.handler_cpu(*r["span"])
        walls.append(scaled)
        cpus.append(cpu * scaled / raw)
        raw_walls.append(raw)
    lat = sorted(cal.program_time(t0, t1)[1] for r in rounds for t0, t1 in r["lat"])
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "item_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "item_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(lat)
    tail = f"p{100.0 * (n - 10) / n:.2f} {lat[n - 11] * 1e3:.4f} ms" if n > 10 else "n/a"
    notes = [
        f"items: {n} in {len(rounds)} rounds; highest percentile with 10 beyond it: {tail}",
        f"host slowness factor: median {cal.factor():.4f} over {len(cal.h_start)} reference samples; "
        f"raw wall_s {statistics.median(raw_walls):.6g} s, raw setup_s {statistics.median(r for r, _ in setup):.6g} s",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, traced: list, untraced: list) -> tuple:
    per = [tracer.per_round(*r["spans"]) for r in traced]
    metrics = {}
    for key in per[0]:
        if key == "top_busy_s":
            continue
        unit = "count" if key.endswith(".calls") else "s"
        metrics[key] = (statistics.median(p[key] for p in per), unit)
    adc = sum(p["channels.adc_kraus.calls"] for p in per)
    dist = sum(p["protocol.distribute.calls"] for p in per)
    metrics["channels.kraus_miss_ratio"] = (adc / dist if dist else 0.0, "1")
    live, every = tracer.live_branches, tracer.all_branches
    metrics["protocol.live_branch_ratio"] = (live / every if every else 0.0, "1")
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [
        f"kraus_miss_ratio base: {adc} adc_kraus calls / {dist} distribute calls",
        f"live_branch_ratio base: {live} live / {every} enumerated branches"
        + (" (result not countable)" if tracer.live_unavailable else ""),
        f"absent targets: {', '.join(tracer.absent) or 'none'}",
    ]
    top = statistics.median(p["top_busy_s"] for p in per)
    wall = statistics.median(r["wall"] for r in untraced)
    notes.append(
        f"accounting: top-level busy {top:.6g} s per round, minus overhead {overhead:.6g} s, "
        f"is {(top - overhead) / wall:.4f} of untraced wall_s {wall:.6g} s"
    )
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest rounds and one setup sample, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "bqtsim" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'bqtsim'} not found", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    bq = load_program(SRC)
    wl = WORKLOADS[args.workload]
    env = env_record(bq, args)
    print("env " + json.dumps(env, sort_keys=True))

    wl.warmup(bq, SCRATCH)
    if args.trace:
        tracer = Tracer()
        rounds = run_rounds(wl, bq, args.seed, args.seconds, args.tiny, tracer)
        tracer.save(SCRATCH / f"trace-{wl.name}.npz")
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        metrics, notes = per_layer(tracer, traced, untraced)
        notes.append(f"spans: {tracer.mark()} in {len(traced)} traced rounds, {len(untraced)} untraced rounds")
    else:
        setup = measure_setup(wl.name, 1 if args.tiny else SETUP_SAMPLES)
        print(f"setup_s samples (raw/at nominal speed): {' '.join(f'{r:.4f}/{s:.4f}' for r, s in setup)}")
        cal = Calibrator()
        cal.start()
        try:
            rounds = run_rounds(wl, bq, args.seed, args.seconds, args.tiny)
        finally:
            cal.stop()
        metrics, notes = end_to_end(rounds, setup, cal)

    attempted = sum(len(r["lat"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for msg in failures[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(f"{wl.name}: failed_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted} checked outputs)")
    for note in notes:
        print(note)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
