"""Print one sha256 per family of bqtsim outputs, so that two checkouts can
be compared bit for bit.

    python tools/bitcorpus.py SRC_DIR

SRC_DIR is the `src` directory of the checkout to hash; bqtsim is imported
from there and nowhere else. Run the script on two checkouts and compare
the lines: a family whose hash differs has some output that moved by at
least one bit. The families:

  distribute     state and post-selection probability, 4 scenarios x 29 p
  run_protocol   every ProtocolResult field and branch, at edge points, and
                 at q_w values of every edge and type (floats next to 0 and
                 1, NaN, infinities, numpy and int scalars), bare
                 scenarios included, so range errors hash too
  _run_rows      every _Branches array and totals(), 1-100 rows, one float
                 q_w and one q_w per row
  average        _average_fidelities at 8-128 nodes, p = q_w = 1 included
  verify         the _verify_checks tuples of grids 2, 3 and 10
  cli            stdout, stderr and exit status of the command lines of
                 tests/test_cli_golden.py, of a few more, and of usage errors

Only entry points whose signatures have stayed put are called, so one copy
of this script runs on older checkouts too. Needs numpy only, and takes a
few seconds; it is not part of the test suite.
"""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np

# Values where the pipeline's edge cases live: exact 0 and 1, and the
# doubles next to them that are still inside the domain.
EDGES = (0.0, 1e-12, 1.0 - 1e-9, 1.0)
P_GRID = EDGES + tuple(float(p) for p in np.linspace(0.0, 1.0, 26)[1:-1]) + (0.37,)
ROW_COUNTS = (1, 2, 7, 64, 100, 3, 33)
NODE_COUNTS = (8, 17, 32, 64, 128)

GOLDEN_CASES = Path(__file__).resolve().parents[1] / "tests" / "test_cli_golden.py"


def golden_argv() -> list:
    """The command lines of the golden-file test's CASES, in its order, read
    from that test's source without running it. They come from the tree
    this script lives in, so every checkout it hashes runs the same ones."""
    for node in ast.parse(GOLDEN_CASES.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CASES":
            return list(ast.literal_eval(node.value).values())
    raise LookupError(f"no CASES in {GOLDEN_CASES}")


EXTRA_ARGV = [
    ["sweep", "--scenario", "all-adc", "--qw-mode", "grid", "--qw-steps", "11", "--p-steps", "11"],
    ["sweep", "--scenario", "recovery-adc", "--qw", "1", "--p-steps", "3"],
    ["sweep", "--scenario", "unprotected-recovery", "--p-steps", "6", "--pop0", "1"],
    ["branches", "--scenario", "all-adc", "--p", "1", "--qw", "1"],
    ["branches", "--scenario", "unprotected-all", "--p", "1", "--alice-pop0", "0"],
    ["verify", "--grid", "3"],
]
USAGE_ARGV = [
    ["sweep", "--scenario", "recovery-adc", "--p-min", "0.5", "--p-max", "0.2"],
    ["sweep", "--scenario", "recovery-adc", "--p-steps", "0"],
    ["sweep", "--scenario", "recovery-adc", "--qw", "1.5"],
    ["sweep", "--scenario", "recovery-adc", "--qw-mode", "grid", "--qw-min", "0.8", "--qw-max", "0.2"],
    ["sweep", "--scenario", "recovery-adc", "--pop0", "1.5"],
    ["sweep", "--scenario", "unprotected-recovery", "--qw", "0.3"],
    ["sweep", "--scenario", "unprotected-all", "--qw-mode", "equal-p"],
    ["branches", "--scenario", "recovery-adc", "--p", "1.5"],
    ["branches", "--scenario", "unprotected-all", "--p", "0.3", "--qw", "0.5"],
    ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--alice-pop0", "-0.1"],
    ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--alice-phase", "inf"],
    ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--bob-phase", "nan"],
    ["entropy", "--p-steps", "1"],
    ["verify", "--grid", "1"],
    ["sweep", "--scenario", "recovery-adc", "--p-steps", "1", "--out", "/nonexistent/x.csv"],
    ["entropy", "--p-steps", "2", "--out", "."],
    ["sweep", "--scenario", "no-such-scenario"],
    ["frobnicate"],
]


def feed(h, item) -> None:
    """Add an item's type, shape and exact bytes to the hash, recursing
    into tuples and lists."""
    if isinstance(item, (tuple, list)):
        h.update(f"[{len(item)}".encode())
        for part in item:
            feed(h, part)
        h.update(b"]")
    elif isinstance(item, str):
        h.update(f"s{len(item)}:".encode() + item.encode())
    elif item is None or isinstance(item, BaseException):
        h.update(repr(item).encode())
    else:
        arr = np.asarray(item)
        h.update(f"{arr.dtype}{arr.shape}:".encode() + np.ascontiguousarray(arr).tobytes())


def state(x):
    """The array of a state: checkouts that wrap states in an object with
    a `mat` array hash the same bytes as those that return the array."""
    return getattr(x, "mat", x)


def edge_rows(rng, n: int) -> np.ndarray:
    """n input rows [pop_a, phase_a, pop_b, phase_b], about a third of the
    populations at an edge value and of the phases at 0."""
    rows = rng.random((n, 4))
    rows[:, 1::2] *= 2.0 * math.pi
    pick = rng.random((n, 4)) < 0.35
    rows[:, 0::2] = np.where(pick[:, 0::2], rng.choice(EDGES, (n, 2)), rows[:, 0::2])
    rows[:, 1::2] = np.where(pick[:, 1::2], 0.0, rows[:, 1::2])
    return rows


def edge_qs(rng, scenario, p: float, n: int) -> np.ndarray:
    """n weak strengths for `scenario` at p: zeros when bare, else uniform
    draws of which about half are an edge value or p itself."""
    if not scenario.protected:
        return np.zeros(n)
    qs = rng.random(n)
    return np.where(rng.random(n) < 0.5, rng.choice(EDGES + (p,), n), qs)


def attempt(fn, *args):
    """fn(*args), or the exception it raises, so errors hash too."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return exc


def family_distribute(h, bq) -> int:
    count = 0
    for scenario in bq.Scenario:
        for p in P_GRID:
            got = attempt(bq.distribute, scenario, p)
            feed(h, (scenario.value, p, got if isinstance(got, BaseException) else (state(got[0]), got[1])))
            count += 1
    return count


# Weak strengths of every kind run_protocol takes as one q_w: the doubles
# at and next to 0 and 1 on both sides, the non-finite values, and a numpy
# and two int scalars. Bare scenarios get them all too, so that the order
# of their two range errors is hashed.
ODD_QS = (0.0, -0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, -1e-300,
          math.nan, math.inf, -math.inf, np.float64(0.3), 0, 1)


def family_run_protocol(h, bq) -> int:
    rng = np.random.default_rng(20261018)
    count = 0
    for scenario in bq.Scenario:
        for p in P_GRID[::2]:
            qs = ((0.0, 1e-12, p, 0.5, 1.0 - 1e-9, 1.0) if scenario.protected else (0.0, p)) + ODD_QS
            for q in qs:
                for row in edge_rows(rng, 3).tolist():
                    alice, bob = bq.QubitInput(row[0], row[1]), bq.QubitInput(row[2], row[3])
                    res = attempt(bq.run_protocol, scenario, p, q, alice, bob)
                    count += 1
                    if isinstance(res, BaseException):
                        feed(h, res)
                        continue
                    feed(h, (type(res.q_w).__name__, res.q_w))
                    feed(h, (res.eam_success, res.total_success, res.total_fidelity, res.postselected_fidelity))
                    for b in res.branches:
                        feed(h, (b.alice_index, b.bob_index, b.joint_prob, b.success_weight,
                                 b.branch_fidelity, b.degenerate, state(b.recovered), state(b.corrected)))
    return count


BRANCH_ARRAYS = ("recovered", "joint", "weight", "corrected", "fidelity", "degenerate")


def family_run_rows(h, bq, protocol) -> int:
    count = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for scenario in bq.Scenario:
            for p in P_GRID[seed::3]:
                dist, _ = bq.distribute(scenario, p)
                for n in ROW_COUNTS:
                    rows = edge_rows(rng, n)
                    per_row = edge_qs(rng, scenario, p, n)
                    for q_w in (float(per_row[0]), per_row):
                        branches = protocol._run_rows(dist, scenario, q_w, rows)
                        feed(h, [getattr(branches, name) for name in BRANCH_ARRAYS])
                        feed(h, branches.totals())
                        count += 1
    return count


def family_average(h, bq, metrics) -> int:
    count = 0
    for scenario in bq.Scenario:
        for p in P_GRID[::2] + (1.0,):
            dist, _ = bq.distribute(scenario, p)
            qs = [0.0, 1e-12, p, 0.5, 1.0 - 1e-9, 1.0] if scenario.protected else [0.0]
            for points in NODE_COUNTS:
                feed(h, metrics._average_fidelities(dist, scenario, qs, metrics.QuadratureSpec(points)))
                count += 1
    return count


def family_verify(h, cli) -> int:
    for grid in (2, 3, 10):
        feed(h, cli._verify_checks(grid))
    return 3


def family_cli(h, cli) -> int:
    argvs = golden_argv() + EXTRA_ARGV + USAGE_ARGV
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        feed(h, (argv, out.getvalue(), err.getvalue(), code))
    return len(argvs)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    import bqtsim as bq
    from bqtsim import cli, metrics, protocol

    if Path(bq.__file__).resolve().parent != src / "bqtsim":
        print(f"error: bqtsim imported from {bq.__file__}, not from {src}", file=sys.stderr)
        return 2
    families = (
        ("distribute", lambda h: family_distribute(h, bq)),
        ("run_protocol", lambda h: family_run_protocol(h, bq)),
        ("_run_rows", lambda h: family_run_rows(h, bq, protocol)),
        ("average", lambda h: family_average(h, bq, metrics)),
        ("verify", lambda h: family_verify(h, cli)),
        ("cli", lambda h: family_cli(h, cli)),
    )
    for name, run in families:
        h = hashlib.sha256()
        count = run(h)
        print(f"{name:<13} {h.hexdigest()}  ({count} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
