"""Print one sha256 per family of bqtsim outputs, so that two checkouts can
be compared bit for bit, and, given a second checkout, how far apart they
are.

    python tools/bitcorpus.py SRC_DIR [--against OTHER_SRC]

SRC_DIR is the `src` directory of the checkout to hash; bqtsim is imported
from there and nowhere else. Run the script on two checkouts and compare
the lines: a family whose hash differs has some output that moved by at
least one bit. The families:

  distribute     state and post-selection probability, 4 scenarios x 29 p
  run_protocol   every ProtocolResult field and branch, at edge points, and
                 at q_w values of every edge and type (floats next to 0 and
                 1, NaN, infinities, numpy and int scalars), bare
                 scenarios included, so range errors hash too
  _run_rows      every _Branches array and the rows' totals, 1-100 rows, one
                 float q_w and one q_w per row; the totals come from
                 _row_totals on the same rows and q_w
  average        _average_fidelities' f_av and g at 8-128 nodes, p = q_w = 1
                 included, and the paths of the sweep and of verify checks
                 2, 3 and 7: a stack of states, one q_w per state, and one
                 state at one q_w. On a tree that folds extra input rows
                 with the nodes, g is the success of the sweep's row
                 [0.5, 0, 0.5, 0], the g_total its sweep printed
  entropy        entanglement_entropy_bob of one state at a time, 4
                 scenarios x 29 p; of both protected scenarios' 51-p curve
                 as one stack; and of a stack of 400 random states whose
                 qubits have off-diagonals
  verify         the _verify_checks tuples of grids 2, 3 and 10, each
                 check's worst location among them
  oracles        the references themselves: every closed_form over P_GRID
                 and a q_w grid, each with values outside [0, 1] and NaN,
                 so range errors hash too; and the five oracles.*_rows
                 functions at one float p per call, 4 scenarios x 29 p,
                 over edge rows and weak strengths
  cli            stdout, stderr and exit status of the command lines of
                 tests/test_cli_golden.py, of a few more, of usage errors,
                 and of argparse's own outcomes (help, unknown options and
                 commands, bad values, `--`, abbreviations, --opt=value),
                 at 80 columns

With --against, both trees are imported in one process, under names of
their own, and each family prints both hashes. For a family whose hashes
differ, every leaf of every output is held against the other tree's, and
the differences are sorted by kind: a type, shape or error that differs
(structure), text, a boolean such as a degenerate mask (mask), NaN or
infinity positions (nan), zeros that differ only in sign, values left on
degenerate branches (dead branch), a value that moved by more than
1e-12 relative (value), and rounding below that.
For each kind the count of leaves and the first case show; for value and
rounding, per named field, the largest absolute and relative difference
(over the larger magnitude of the two) and the case of each.

Only entry points whose signatures have stayed put are called, so one copy
of this script runs on older checkouts too, back to commit 3c1e459, which
took every total as a product of two party sums; older trees no longer
run. Needs numpy only, and takes a
few seconds (about 20 s with --against); it is not part of the test suite.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import math
import os
import sys
from pathlib import Path
from unittest import mock

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
    # argparse's own outcomes: help at both levels, no command or a leading
    # option, unknown options, bad values, missing and stray arguments,
    # `--`, abbreviations (one ambiguous) and --opt=value.
    [],
    ["-h"],
    ["--help", "sweep"],
    ["sweep", "-h"],
    ["verify", "--help"],
    ["--grid", "3"],
    ["sweep", "--scenario", "all-adc", "--bogus"],
    ["sweep", "--scenario", "all-adc", "-h", "--bogus"],
    ["branches", "--scenario", "all-adc", "--p", "x"],
    ["verify", "--grid", "2.5"],
    ["sweep", "--scenario", "all-adc", "--qw-mode", "both"],
    ["sweep"],
    ["branches", "--scenario", "all-adc"],
    ["verify", "extra"],
    ["entropy", "--p-steps", "5", "extra", "--bogus=1"],
    ["sweep", "--scenario", "all-adc", "--", "x"],
    ["sweep", "--", "--scenario", "all-adc"],
    ["sweep", "--scen", "all-adc", "--p-st", "3", "--qw-m", "equal-p"],
    ["sweep", "--scenario", "all-adc", "--p", "0.3"],
    ["sweep", "--scenario=all-adc", "--p-steps=2", "--qw=0.25"],
    ["entropy", "--p-steps=5", "--p-steps", "7"],
    ["sweep", "--scenario", "all-adc", "--out"],
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


def family_distribute(out, bq) -> int:
    count = 0
    for scenario in bq.Scenario:
        for p in P_GRID:
            got = attempt(bq.distribute, scenario, p)
            item = (scenario.value, p, got)
            out(f"{scenario.value} p={p!r}", item)
            count += 1
    return count


# Weak strengths of every kind run_protocol takes as one q_w: the doubles
# at and next to 0 and 1 on both sides, the non-finite values, and a numpy
# and two int scalars. Bare scenarios get them all too, so that the order
# of their two range errors is hashed.
ODD_QS = (0.0, -0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, -1e-300,
          math.nan, math.inf, -math.inf, np.float64(0.3), 0, 1)


def family_run_protocol(out, bq) -> int:
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
                    case = f"{scenario.value} p={p!r} q_w={q!r} inputs={row}"
                    if isinstance(res, BaseException):
                        out(case, res)
                        continue
                    out(case, (type(res.q_w).__name__, res.q_w), ("q_w type", "q_w"))
                    out(case, (res.eam_success, res.total_success, res.total_fidelity, res.postselected_fidelity),
                        RESULT_FIELDS)
                    for b in res.branches:
                        out(f"{case} branch ({b.alice_index},{b.bob_index})",
                            (b.alice_index, b.bob_index, b.joint_prob, b.success_weight,
                             b.branch_fidelity, b.degenerate, b.recovered, b.corrected), BRANCH_FIELDS)
    return count


BRANCH_ARRAYS = ("recovered", "joint", "weight", "corrected", "fidelity", "degenerate")
TOTALS = ("total_success", "total_fidelity", "postselected_fidelity")
# The field names of run_protocol's items, which `--against` reports by.
RESULT_FIELDS = ("eam_success",) + TOTALS
BRANCH_FIELDS = ("alice_index", "bob_index", "joint_prob", "success_weight", "branch_fidelity", "degenerate",
                 "recovered", "corrected")


def family_run_rows(out, bq, protocol) -> int:
    count = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for scenario in bq.Scenario:
            for p in P_GRID[seed::3]:
                dist, _ = bq.distribute(scenario, p)
                for n in ROW_COUNTS:
                    rows = edge_rows(rng, n)
                    per_row = edge_qs(rng, scenario, p, n)
                    for kind, q_w in (("float", float(per_row[0])), ("per-row", per_row)):
                        branches = protocol._run_rows(dist, scenario, q_w, rows)
                        case = f"seed {seed} {scenario.value} p={p!r} {n} rows, {kind} q_w"
                        out(case, [getattr(branches, name) for name in BRANCH_ARRAYS], BRANCH_ARRAYS)
                        (totals,) = protocol._row_totals(dist, scenario, [q_w], rows)
                        out(case, totals, TOTALS)
                        count += 1
    return count


# The sweep's g_total row, which a tree that folds extra input rows with
# the nodes takes its averaged g from.
SWEEP_ROW = [0.5, 0.0, 0.5, 0.0]
AVERAGES = ("f_av", "g")


def averaged(metrics, dist, scenario, qs, points: int) -> tuple:
    """The input average's f_av and g at each q_w, as two arrays, on either
    kind of tree: as they are from a tree whose `_average_fidelities`
    returns both; from an older one, which takes extra input rows (an
    `extra` parameter), f_av and the success of `SWEEP_ROW` folded with
    the nodes."""
    fn = metrics._average_fidelities
    if "extra" not in inspect.signature(fn).parameters:
        return tuple(np.array(part) for part in fn(dist, scenario, qs, points))
    f_avs, totals = fn(dist, scenario, qs, points, [SWEEP_ROW])
    return np.array(f_avs), np.array([success[..., 0] for success, _, _ in totals]).reshape(np.shape(f_avs))


def family_average(out, bq, metrics) -> int:
    count = 0
    for scenario in bq.Scenario:
        for p in P_GRID[::2] + (1.0,):
            dist, _ = bq.distribute(scenario, p)
            qs = [0.0, 1e-12, p, 0.5, 1.0 - 1e-9, 1.0] if scenario.protected else [0.0]
            for points in NODE_COUNTS:
                case = f"{scenario.value} p={p!r} q_w={qs} {points} nodes"
                out(case, averaged(metrics, dist, scenario, qs, points), AVERAGES)
                count += 1
    return count + average_stacks(out, bq, metrics)


def average_stacks(out, bq, metrics) -> int:
    """The input average over a stack of states, with a float q_w and one
    q_w per state; then each state alone at one q_w, as a fixed-q_w sweep
    averages it."""
    count = 0
    for scenario in bq.Scenario:
        ps = P_GRID[::3] + (1.0,)
        stack = np.stack([bq.distribute(scenario, p)[0] for p in ps])
        edges = (0.0, 1e-12, 0.5, 1.0 - 1e-9, 1.0) if scenario.protected else (0.0,)
        qs = [*edges, list(ps)] if scenario.protected else [0.0, [0.0] * len(ps)]
        for points in (8, 32, 64):
            case = f"{scenario.value} stack p={ps} q_w={qs[:-1]} and one per state, {points} nodes"
            out(case, averaged(metrics, stack, scenario, qs, points), AVERAGES)
            count += 1
        for p, dist in zip(ps, stack):
            for q in edges + ((p,) if scenario.protected else ()):
                case = f"{scenario.value} p={p!r} q_w={q!r} 64 nodes"
                out(case, averaged(metrics, dist, scenario, [q], 64), AVERAGES)
                count += 1
    return count


def random_pairs(seed: int, count: int) -> np.ndarray:
    """`count` random pair stacks as one (count, 2, 4, 4) stack, each pair
    a density matrix of rank 1 to 4, so Bob's qubits have off-diagonals."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, 2, 4, 4)) + 1j * rng.normal(size=(count, 2, 4, 4))
    x *= np.arange(4) < rng.integers(1, 5, size=(count, 2, 1, 1))
    rho = x @ x.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def family_entropy(out, bq, metrics) -> int:
    """Bob's entropy of each distributed state, one call per state, so
    that the family runs on trees whose entropy takes one state only; then
    two stacked calls, which such a tree refuses: both protected
    scenarios' 51-p curve, and random states with off-diagonals."""
    count = 0
    for scenario in bq.Scenario:
        for p in P_GRID:
            out(f"{scenario.value} p={p!r}", metrics.entanglement_entropy_bob(bq.distribute(scenario, p)[0]))
            count += 1
    protected = [scenario for scenario in bq.Scenario if scenario.protected]
    curve = np.stack([bq.distribute(scenario, p)[0] for scenario in protected for p in np.linspace(0.0, 1.0, 51)])
    out("protected curves, 51 p", attempt(metrics.entanglement_entropy_bob, curve))
    out("random states with off-diagonals, seed 2035", attempt(metrics.entanglement_entropy_bob, random_pairs(2035, 400)))
    return count + 2


def family_verify(out, cli) -> int:
    for grid in (2, 3, 10):
        out(f"grid {grid}", cli._verify_checks(grid), [f"check {k}" for k in range(1, 9)])
    return 3


# Arguments outside [0, 1] that a closed form must refuse: the doubles
# next to 0 and 1 on the outside, NaN and the infinities.
OUTSIDE = (-1e-300, 1.0 + 2.0**-52, math.nan, math.inf, -math.inf)
FORM_QS = EDGES + (0.37, 0.5) + OUTSIDE
ORACLE_ROWS = ("joint_prob_rows", "branch_success_rows", "branch_fidelity_rows", "recovered_rows", "corrected_rows")


def family_oracles(out, metrics, oracles) -> int:
    """Every closed form at every (p, q_w) of P_GRID and FORM_QS, with the
    arguments outside [0, 1] among them; then, per scenario and p of
    P_GRID, the five `*_rows` oracles at that float p on seven edge rows,
    at three weak strengths for a protected scenario and at 0 for a bare
    one, so each rows call holds one p, as every tree takes it."""
    count = 0
    for name in metrics.closed_form_names():
        for p in P_GRID + OUTSIDE:
            for q in FORM_QS:
                got = attempt(metrics.closed_form, name, p, q)
                out(f"{name} p={p!r} q_w={q!r}", got if isinstance(got, BaseException) else (got.value, got.formula_ref))
                count += 1
    rng = np.random.default_rng(20261020)
    for scenario in oracles.Scenario:
        for p in P_GRID:
            rows = edge_rows(rng, 7)
            for q in edge_qs(rng, scenario, p, 3 if scenario.protected else 1).tolist():
                got = (
                    oracles.joint_prob_rows(scenario, p, rows),
                    oracles.branch_success_rows(scenario, p, q, rows),
                    oracles.branch_fidelity_rows(scenario, p, q, rows),
                    oracles.recovered_rows(scenario, p, rows),
                    oracles.corrected_rows(scenario, p, q, rows),
                )
                out(f"{scenario.value} p={p!r} q_w={q!r}", got, ORACLE_ROWS)
                count += 1
    return count


def family_cli(out, cli) -> int:
    argvs = golden_argv() + EXTRA_ARGV + USAGE_ARGV
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        # Help and usage text wrap at the terminal's width; 80 columns gives
        # the same bytes in a terminal and in a pipe.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out(" ".join(argv), (argv, stdout.getvalue(), stderr.getvalue(), code))
    return len(argvs)


def families(pkg) -> tuple:
    """(name, run) of every family on one imported package, run(out)
    calling out(case, item, names) for each item, with names for its
    top-level parts where they have them, and returning the case count."""
    bq, cli, metrics, protocol = pkg, pkg.cli, pkg.metrics, pkg.protocol
    return (
        ("distribute", lambda out: family_distribute(out, bq)),
        ("run_protocol", lambda out: family_run_protocol(out, bq)),
        ("_run_rows", lambda out: family_run_rows(out, bq, protocol)),
        ("average", lambda out: family_average(out, bq, metrics)),
        ("entropy", lambda out: family_entropy(out, bq, metrics)),
        ("verify", lambda out: family_verify(out, cli)),
        ("oracles", lambda out: family_oracles(out, metrics, cli.oracles)),
        ("cli", lambda out: family_cli(out, cli)),
    )


def collect(run) -> tuple:
    """A family's sha256 and its (case, item) list."""
    h, items = hashlib.sha256(), []

    def out(case, item, names=()):
        feed(h, item)
        items.append((case, item, names))

    run(out)
    return h.hexdigest(), items


def leaves(item, path="", names=()):
    """(path, leaf) of every leaf `feed` hashes, in its order, the top-level
    parts of the item named by `names` where given."""
    if isinstance(item, (tuple, list)):
        for k, part in enumerate(item):
            yield from leaves(part, f"{path}.{names[k]}" if k < len(names) else f"{path}[{k}]")
    else:
        yield path, item


def compare_leaf(a, b):
    """How leaf b differs from leaf a, or None where their bytes agree:
    ("structure", text) for a type, shape, dtype or error that differs;
    ("text", text) for strings; ("mask", count) for booleans, degenerate
    masks among them; ("nan", count) where NaN or infinity positions
    differ; ("signed zero", count) where only the sign of a zero does;
    otherwise (kind, largest absolute, largest relative difference), the
    relative one over the larger magnitude of the two, kind "value" where
    that exceeds VALUE_REL and "rounding" where it does not."""
    if isinstance(a, str) and isinstance(b, str):
        if a == b:
            return None
        lines = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y] or [(a, b)]
        return "text", f"first differing line {lines[0][0]!r} -> {lines[0][1]!r}"
    if isinstance(a, (str, BaseException)) or a is None or isinstance(b, (str, BaseException)) or b is None:
        return None if type(a) is type(b) and repr(a) == repr(b) else ("structure", f"{a!r} -> {b!r}")
    x, y = np.asarray(a), np.asarray(b)
    if x.dtype != y.dtype or x.shape != y.shape:
        return "structure", f"{x.dtype}{x.shape} -> {y.dtype}{y.shape}"
    if x.tobytes() == y.tobytes():
        return None
    if x.dtype.kind not in "fc":
        return ("mask" if x.dtype == bool else "structure"), f"{int(np.sum(x != y))} entries"
    fx, fy = np.isfinite(x), np.isfinite(y)
    odd = (fx != fy) | (~fx & ~((x == y) | (np.isnan(x) & np.isnan(y))))
    if odd.any():
        return "nan", f"{int(odd.sum())} entries"
    diff = np.where(fx, np.abs(x - y), 0.0)
    if not diff.any():
        return "signed zero", "only zero signs differ"
    big = np.maximum(np.abs(x), np.abs(y))
    rel = float(np.max(diff / np.where(big > 0.0, big, 1.0)))
    return ("value" if rel > VALUE_REL else "rounding"), float(diff.max()), rel


# The largest relative difference still sorted as rounding: a change of
# arithmetic order moves a value by some ulps, far below this.
VALUE_REL = 1e-12
KINDS = ("structure", "text", "mask", "nan", "signed zero", "dead branch", "value", "rounding")
# The kinds whose largest differences are printed per field.
MEASURED = ("value", "rounding")


def split_dead(x, y, dead):
    """Leaves x and y with the entries of degenerate branches taken out,
    when their leading axes are those of the mask `dead`, and whether those
    entries differ; x and y as they are otherwise."""
    if dead is None or not isinstance(x, np.ndarray) or x.shape[: dead.ndim] != dead.shape or x.dtype == bool:
        return x, y, False
    if not isinstance(y, np.ndarray) or y.shape != x.shape:
        return x, y, False
    return x[~dead], y[~dead], x[dead].tobytes() != y[dead].tobytes()


def report(mine: list, other: list) -> None:
    """Print how a family's items on the other tree differ from this one's:
    for each kind of difference, how many leaves and the first case with
    one; for value changes and rounding, per named field, the largest
    absolute and relative difference and the case of each. Where an item
    names a `degenerate` mask and both trees' masks agree, the entries of
    degenerate branches are held apart ("dead branch"): their values are
    whatever the kernel leaves there, so they are no rounding of a live
    value."""
    if [case for case, _, _ in mine] != [case for case, _, _ in other]:
        print(f"  structure    the trees run different cases ({len(mine)} against {len(other)})")
        return
    counts, first, worst = dict.fromkeys(KINDS, 0), {}, {}

    def note(kind, where, detail):
        counts[kind] += 1
        first.setdefault(kind, f"{where}: {detail}")

    for (case, a, names), (_, b, _) in zip(mine, other):
        left, right = list(leaves(a, names=names)), list(leaves(b, names=names))
        pairs = list(zip(left, right)) if len(left) == len(right) else [(("", repr(a)), ("", repr(b)))]
        masks = [(x, y) for (path, x), (_, y) in pairs if path == ".degenerate"]
        dead = None
        if masks and isinstance(masks[0][0], np.ndarray) and np.array_equal(*masks[0]):
            dead = masks[0][0]
        for (path, x), (_, y) in pairs:
            x, y, dead_differs = split_dead(x, y, dead)
            if dead_differs:
                note("dead branch", f"{case} {path}", "values on degenerate branches differ")
            found = compare_leaf(x, y)
            if found is None:
                continue
            note(found[0], f"{case} {path}", found[1])
            if found[0] in MEASURED:
                entry = worst.setdefault((found[0], path), [0, (0.0, ""), (0.0, "")])
                entry[0] += 1
                for k in (1, 2):
                    if found[k] > entry[k][0]:
                        entry[k] = (found[k], case)
    for kind in KINDS:
        if not counts[kind]:
            print(f"  {kind:<12} none")
        elif kind not in MEASURED:
            print(f"  {kind:<12} {counts[kind]} leaves, first at {first[kind]}")
    for (kind, path), (count, (big_abs, at_abs), (big_rel, at_rel)) in sorted(worst.items(), key=lambda e: MEASURED.index(e[0][0])):
        print(f"  {kind:<12} {path.lstrip('.')}: {count} leaves")
        print(f"    largest abs {big_abs:.3g} at {at_abs}")
        print(f"    largest rel {big_rel:.3g} at {at_rel}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path, help="the src directory of the checkout to hash")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC", help="a second checkout to compare with")
    args = parser.parse_args(argv[1:])
    src = args.src.resolve()
    if args.against is None:
        sys.path.insert(0, str(src))
        import bqtsim as bq
        from bqtsim import cli, metrics, oracles, protocol  # noqa: F401, the families read them as attributes

        if Path(bq.__file__).resolve().parent != src / "bqtsim":
            print(f"error: bqtsim imported from {bq.__file__}, not from {src}", file=sys.stderr)
            return 2
        for name, run in families(bq):
            h = hashlib.sha256()
            count = run(lambda case, item, names=(): feed(h, item))
            print(f"{name:<13} {h.hexdigest()}  ({count} cases)")
        return 0
    from abtime import load

    pkgs = [load(path.resolve(), f"bqtsim_{side}") for side, path in (("mine", src), ("other", args.against))]
    for (name, run), (_, run_other) in zip(*(families(pkg) for pkg in pkgs)):
        (digest, mine), (digest_other, other) = collect(run), collect(run_other)
        if digest == digest_other:
            print(f"{name:<13} {digest}  same ({len(mine)} items)")
            continue
        print(f"{name:<13} {digest} -> {digest_other}")
        report(mine, other)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
