"""Time two bqtsim checkouts against each other, in one process at a time.

    python tools/abtime.py PARENT_SRC CHANGE_SRC [--only NAME ...]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
is imported under its own package name, so both trees live in the same
interpreter and see the same heap, BLAS and CPU state. Every target runs
in BLOCKS (20) alternating blocks: a block times the same number of calls
on each tree and records the mean time of one call, and the tree that
goes first alternates from block to block. The whole run is made twice,
in fresh interpreters, once with the parent's package imported first and
once with the change's, since import order moves where the heap puts
things.

For each target and load order the script prints the median, quartiles
and minimum of each tree's block times in us, the change's median over
the parent's, how many blocks the change won, and the median of the
per-block change/parent ratios with its 95 % bootstrap interval (2000
resamples of the blocks' ratios from a fixed seed, percentile interval):
an interval that excludes 0 resolves the change at this block count. The
targets:

  verify         cli.main(["verify"]), stdout captured
  check1..check8 each verify check function (checks 5 and 6 share one);
                 each builds the distributed states it reads
  sweep          cli.main of a one-p `sweep`, input-averaged, two q_w rows
  sweep-out      the same sweep with `--out`, every call rewriting one file
                 in a temporary directory of the tree's own, as a fav-sweep
                 item rewrites its CSV
  sweep-round    gc.collect(), then fav-sweep's six-item round (both
                 protected scenarios with `equal-p` and a two-row grid, both
                 bare ones at q_w = 0, one p, each with `--out`), timed as
                 bench/run.py times a round: from after the collection to
                 the last item's return
  parse          cli.main on that `--out` argv with the tree's cmd_sweep
                 swapped for a stub that returns 0, so only parsing and
                 dispatch are timed; left out on a tree whose main calls
                 the parser's function without looking it up by name
  parse-fallback the same with every option abbreviated (`--scen`,
                 `--p-st`, ...), which no plain-argv route takes, so the
                 cost of argparse's full parse stays in view; left out
                 as `parse` is
  branches       cli.main of `branches --scenario all-adc --p 0.4 --qw 0.2`,
                 the single-point branch table, stdout captured
  average64      metrics._average_fidelities, 64 nodes, two q_w
  average-extra  the same call as fav-sweep's grid items make it: on a tree
                 whose input average folds extra input rows with the nodes,
                 with the sweep's g_total row [0.5, 0, 0.5, 0]; on a later
                 one, which averages g_total with f_av, the call of average64
  average-stack  check 3's call: metrics._average_fidelities over 51
                 unprotected-all states, 32 nodes, with the row
                 [0.4, 0, 0.8, 0] on a tree that folds extra rows
  average-grid   check 7's protected call: metrics._average_fidelities over
                 9 all-adc states (p = 0.1 k, k = 1..9) at those 9 q_w, 32
                 nodes, with the row [0.5, 0, 0.5, 0] on a tree that folds
                 extra rows; left out on a tree whose input average takes
                 one state only
  average4096    metrics._average_fidelities of one all-adc state, 4096
                 nodes, two q_w
  run_protocol   one call at an interior point
  point-mc       200 run_protocol calls in the benchmark's point-mc mix, from
                 a fixed seed: 50 per scenario, p = 0 and p = 1 once each
                 (q_w = p when protected), q_w with a few exact 0, p and 1,
                 populations with a few exact 0 and 1, random phases
  distribute     protocol.distribute, all-adc p = 0.4
  distribute-stack  protocol.distribute, all-adc, the 51 p of checks 4 and 8
                 (`cli._EDGE_PS`) in one call; left out on a tree whose
                 distribute takes one p only
  entropy        metrics.entanglement_entropy_bob of that distributed state
  entropy-curve  cli.main(["entropy"]), the 51-p curves, stdout captured
  outcomes       the 16 BranchOutcome views of a one-row _run_rows result
  rows1..rows64  protocol._row_totals of 1, 32 and 64 input rows
  rows1000       check 1's call: protocol._row_totals over 10 all-adc
                 states (p = 0, 0.1, ..., 0.9) of 100 input rows each, with
                 one q_w per row; left out on a tree whose _row_totals
                 takes one state only

Only entry points whose signatures have stayed put are called, and a
target that one tree lacks is left out and named, so the script runs on
older checkouts too. A name given to --only that is not a target is a
usage error (exit status 2, with the list of targets), found before any
tree is imported. Uses numpy and the standard library only, with one BLAS
thread. Not part of the test suite.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import atexit
import contextlib
import gc
import importlib
import importlib.util
import inspect
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# Blocks per target and load order, and the seconds one tree spends on a
# target in one block, about.
BLOCKS = 20
BLOCK_S = 0.05
# Bootstrap resamples of the per-block ratios, and their fixed seed.
RESAMPLES = 2000
BOOTSTRAP_SEED = 2013
CHECKS = {
    "check1": ("_check_success_oracle", (10,)),
    "check2": ("_check_suppression", ()),
    "check3": ("_check_unprotected_f_av", ()),
    "check4": ("_check_eam", ()),
    "check5-6": ("_branch_sample_errors", ()),
    "check7": ("_check_qualitative", ()),
    "check8": ("_check_entropy", ()),
}
NAMES = ("verify", *CHECKS, "sweep", "sweep-out", "sweep-round", "parse", "parse-fallback", "branches", "average64", "average-extra",
         "average-stack", "average-grid", "average4096", "run_protocol", "point-mc", "distribute", "distribute-stack",
         "entropy", "entropy-curve", "outcomes", "rows1", "rows32", "rows64", "rows1000")
# The p of checks 4 and 8, `cli._EDGE_PS`, spelled out for trees that lack it.
EDGE_PS = tuple(float(p) for p in np.linspace(0.0, 1.0, 51))
SWEEP = ["sweep", "--scenario", "all-adc", "--p-min", "0.37", "--p-max", "0.37", "--p-steps", "1",
         "--qw-mode", "grid", "--qw-min", "0", "--qw-max", "0.8", "--qw-steps", "2"]
# SWEEP with every option abbreviated, `--out` too when it is added.
SWEEP_ABBREVIATED = ["sweep", "--scen", "all-adc", "--p-mi", "0.37", "--p-ma", "0.37", "--p-st", "1",
                     "--qw-mo", "grid", "--qw-mi", "0", "--qw-ma", "0.8", "--qw-st", "2"]
BRANCHES = ["branches", "--scenario", "all-adc", "--p", "0.4", "--qw", "0.2"]


def load(src: Path, name: str):
    """The bqtsim package under `src`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "bqtsim" / "__init__.py", submodule_search_locations=[str(src / "bqtsim")]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "metrics", "protocol"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def check_call(cli, name: str, args: tuple):
    """A call of verify check `name` on `cli`, or None if the tree lacks it.
    On an older tree, a check that reads states verify builds once per run
    (a `points` parameter) gets a fresh set of them in the call, so it
    builds its states as a check without the parameter does."""
    fn = getattr(cli, name, None)
    if fn is None:
        return None
    if "points" in inspect.signature(fn).parameters:
        make = getattr(cli, "_Points", None) or cli._protected_points
        return lambda: fn(*args, make())
    return lambda: fn(*args)


def average_call(metrics, *args, row: list):
    """A call of `metrics._average_fidelities(*args)` as the tree takes it:
    with `row` folded with the nodes as an extra input row on a tree whose
    input average takes them (an `extra` parameter), as its sweep and
    checks 3 and 7 called it, and without on a later tree, which averages
    the success with the fidelity."""
    fn = metrics._average_fidelities
    if "extra" in inspect.signature(fn).parameters:
        return lambda: fn(*args, [row])
    return lambda: fn(*args)


def tried(fn):
    """fn, or None if one call of it raises TypeError or ValueError, as an
    older tree's entry point does on arguments it does not take (a
    sequence of p, a stack of states)."""
    try:
        fn()
    except (TypeError, ValueError):
        return None
    return fn


def point_mix(protocol) -> list:
    """Arguments of 200 run_protocol calls in the benchmark's point-mc mix,
    the same for every tree (seed 2028): the scenarios in turn, each one's
    first two calls at p = 0 and p = 1 (q_w = p when protected, else 0),
    the rest at a uniform p with q_w exactly 0, p or 1 in about 3 % of
    calls each; each population exactly 0 or 1 in about 3 % of draws each,
    and uniform phases in [0, 2 pi)."""
    rng = np.random.default_rng(2028)
    scenarios = tuple(protocol.Scenario)

    def unit(edges: tuple) -> float:
        u = rng.random()
        for k, edge in enumerate(edges):
            if u < 0.03 * (k + 1):
                return edge
        return float(rng.random())

    calls = []
    for k in range(200):
        scenario = scenarios[k % len(scenarios)]
        if k < 2 * len(scenarios):
            p = float(k // len(scenarios))
            q_w = p
        else:
            p = float(rng.random())
            q_w = unit((0.0, p, 1.0))
        q_w = q_w if scenario.protected else 0.0
        alice, bob = (protocol.QubitInput(unit((0.0, 1.0)), float(rng.uniform(0.0, 2.0 * np.pi))) for _ in range(2))
        calls.append((scenario, p, q_w, alice, bob))
    return calls


def sweep_round(cli, out_dir: str):
    """A call that runs fav-sweep's round of six `sweep` items at one p
    after a full collection, as bench/run.py runs a round, and returns the
    seconds the items took, the collection left out."""
    equal_p = ["--qw-mode", "equal-p"]
    grid = ["--qw-mode", "grid", "--qw-min", "0", "--qw-max", "0.8", "--qw-steps", "2"]
    items = [(name, mode) for name in ("recovery-adc", "all-adc") for mode in (equal_p, grid)]
    items += [(name, []) for name in ("unprotected-recovery", "unprotected-all")]
    head = ["sweep", "--p-min", "0.37", "--p-max", "0.37", "--p-steps", "1", "--scenario"]
    argvs = [head + [name] + mode + ["--out", os.path.join(out_dir, f"round-{k}.csv")]
             for k, (name, mode) in enumerate(items)]

    def call() -> float:
        gc.collect()
        t0 = time.perf_counter()
        for argv in argvs:
            cli.main(argv)
        return time.perf_counter() - t0

    call.times_itself = True
    return call


def parse_only(cli, argv: list):
    """cli.main(argv) with cmd_sweep swapped for a stub that returns 0 during
    the call, or None if the tree's main does not call the stub."""
    cli.build_parser()
    real = cli.cmd_sweep

    def call(stub=lambda args: 0):
        cli.cmd_sweep = stub
        try:
            return cli.main(argv)
        finally:
            cli.cmd_sweep = real

    return call if call(lambda args: "stub") == "stub" else None


def targets(pkg) -> dict:
    """Each target's call on `pkg`; None for one whose entry point it lacks."""
    cli, metrics, protocol = pkg.cli, pkg.metrics, pkg.protocol
    scenario = protocol.Scenario.ALL_ADC
    dist, _ = protocol.distribute(scenario, 0.4)
    # A tree with a QuadratureSpec record takes one; a later tree takes the node count.
    rule = (lambda n: metrics.QuadratureSpec(points=n)) if hasattr(metrics, "QuadratureSpec") else (lambda n: n)
    bare = protocol.Scenario.UNPROTECTED_ALL
    stack = np.stack([protocol.distribute(bare, float(p))[0] for p in np.linspace(0.0, 1.0, 51)])
    alice, bob = protocol.QubitInput(0.3, 1.1), protocol.QubitInput(0.6, 2.0)
    rows = np.random.default_rng(7).random((64, 4))
    found = {"verify": lambda: quiet(cli.main, ["verify"])}
    for label, (name, args) in CHECKS.items():
        found[label] = check_call(cli, name, args)
    found["sweep"] = lambda: quiet(cli.main, SWEEP)
    out_dir = tempfile.mkdtemp(prefix="abtime-")
    atexit.register(shutil.rmtree, out_dir, True)
    sweep_out = SWEEP + ["--out", os.path.join(out_dir, "sweep.csv")]
    found["sweep-out"] = lambda: cli.main(sweep_out)
    found["sweep-round"] = sweep_round(cli, out_dir)
    found["parse"] = parse_only(cli, sweep_out)
    found["parse-fallback"] = parse_only(cli, SWEEP_ABBREVIATED + ["--ou", sweep_out[-1]])
    found["branches"] = lambda: quiet(cli.main, BRANCHES)
    found["average64"] = lambda: metrics._average_fidelities(dist, scenario, [0.1, 0.3], rule(64))
    found["average-extra"] = average_call(metrics, dist, scenario, [0.1, 0.3], rule(64), row=[0.5, 0, 0.5, 0])
    found["average-stack"] = average_call(metrics, stack, bare, [0.0], rule(32), row=[0.4, 0.0, 0.8, 0.0])
    # Check 7's protected call: its 9 p, each at its 9 q_w.
    trade = [0.1 * k for k in range(1, 10)]
    trade_dists = np.stack([protocol.distribute(scenario, p)[0] for p in trade])
    found["average-grid"] = tried(
        average_call(metrics, trade_dists, scenario, trade, rule(32), row=[0.5, 0.0, 0.5, 0.0])
    )
    found["average4096"] = lambda: metrics._average_fidelities(dist, scenario, [0.1, 0.3], rule(4096))
    found["run_protocol"] = lambda: protocol.run_protocol(scenario, 0.4, 0.25, alice, bob)
    mix = point_mix(protocol)
    found["point-mc"] = lambda: [protocol.run_protocol(*args) for args in mix]
    found["distribute"] = lambda: protocol.distribute(scenario, 0.4)
    found["distribute-stack"] = tried(lambda: protocol.distribute(scenario, EDGE_PS))
    found["entropy"] = lambda: metrics.entanglement_entropy_bob(dist)
    found["entropy-curve"] = lambda: quiet(cli.main, ["entropy"])
    branches = protocol._run_rows(dist, scenario, 0.25, rows[:1])
    found["outcomes"] = branches.outcomes
    for n in (1, 32, 64):
        found[f"rows{n}"] = lambda n=n: protocol._row_totals(dist, scenario, [0.25], rows[:n])
    # Check 1's call at grid 10: ten input draws per q_w at each p, one q_w per row.
    grid = [k / 10 for k in range(10)]
    dists = np.stack([protocol.distribute(scenario, p)[0] for p in grid])
    grid_rows, grid_qs = np.random.default_rng(11).random((1000, 4)), np.tile(np.repeat(grid, 10), 10)
    found["rows1000"] = tried(lambda: protocol._row_totals(dists, scenario, [grid_qs], grid_rows))
    assert tuple(found) == NAMES
    return found


def block_time(fn, reps: int) -> float:
    if getattr(fn, "times_itself", False):
        return sum(fn() for _ in range(reps)) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def child(srcs: dict, order: tuple, only: list) -> dict:
    """Times of every target for both trees, loaded in `order`."""
    fns = {side: targets(load(srcs[side], f"bqtsim_{side}")) for side in order}
    out = {}
    for label in only or fns["parent"]:
        if not (fns["parent"][label] and fns["change"][label]):
            out[label] = None
            continue
        one = max(block_time(fns[side][label], 1) for side in SIDES)
        reps = max(1, round(BLOCK_S / one))
        times = {side: [] for side in SIDES}
        for b in range(BLOCKS):
            for side in SIDES if b % 2 == 0 else SIDES[::-1]:
                times[side].append(block_time(fns[side][label], reps))
        out[label] = times
    return out


def summary(times: list) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4)
    return f"{med * 1e6:10.1f} [{q1 * 1e6:.1f}, {q3 * 1e6:.1f}] min {min(times) * 1e6:.1f}"


def block_ratio(parent: list, change: list) -> str:
    """The median of the per-block change/parent ratios, less 1, with its
    95 % percentile bootstrap interval."""
    ratios = [c / p for c, p in zip(change, parent)]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES))
    low, high = medians[round(0.025 * RESAMPLES)], medians[round(0.975 * RESAMPLES) - 1]
    return f"block ratio {statistics.median(ratios) - 1.0:+.1%} [{low - 1.0:+.1%}, {high - 1.0:+.1%}]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--only", nargs="*", default=[], choices=NAMES, help="target names (default: all)")
    parser.add_argument("--child", choices=("parent-first", "change-first"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    srcs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.child:
        order = SIDES if args.child == "parent-first" else SIDES[::-1]
        print(json.dumps(child(srcs, order, args.only)))
        return
    for order in ("parent-first", "change-first"):
        cmd = [sys.executable, __file__, str(srcs["parent"]), str(srcs["change"]), "--child", order, "--only", *args.only]
        results = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
        print(f"{order}: median [q1, q3] min of {BLOCKS} blocks, us per call")
        for label, times in results.items():
            if times is None:
                print(f"  {label:<16} skipped: one tree lacks it")
                continue
            p, c = times["parent"], times["change"]
            ratio = statistics.median(c) / statistics.median(p) - 1.0
            won = sum(x < y for x, y in zip(c, p))
            print(f"  {label:<16} parent {summary(p)}  change {summary(c)}  {ratio:+7.1%}  won {won}/{len(p)}  "
                  f"{block_ratio(p, c)}")


if __name__ == "__main__":
    main()
