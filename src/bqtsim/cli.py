"""CSV-emitting command line front end.

Subcommands: `sweep` (parameter grids), `branches` (single-point branch
table), `verify` (simulation vs closed forms, exit status reports the
outcome), `entropy` (receiver-side entanglement curves). All numeric
output uses 12 significant digits and is byte-identical across runs.

Exit statuses: 0 success, 1 failed verification or fully degenerate
point, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache
from typing import Optional

import numpy as np

from . import oracles
from .metrics import (
    QuadratureSpec,
    _average_fidelities,
    average_fidelity,
    closed_form,
    entanglement_entropy_bob,
)
from .protocol import _BRANCH_INDICES, QubitInput, Scenario, _run_rows, distribute, run_protocol

SWEEP_HEADER = "scenario,p,q_w,f_av,g_total,f_av_oracle,g_total_oracle,eam_success,entropy_bob"

_SCENARIO_NAMES = tuple(s.value for s in Scenario)
_PROTECTED = tuple(s for s in Scenario if s.protected)
_UNPROTECTED = tuple(s for s in Scenario if not s.protected)


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return "%.12g" % x


def _emit(lines: list, path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _form_name(prefix: str, scenario: Scenario) -> str:
    """The closed form `prefix` of the scenario's situation, e.g. g_t_I:
    g_t and g_eam for a protected scenario, f_av_unprot for a bare one."""
    return f"{prefix}_{scenario.situation}"


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = Scenario(args.scenario)
    if not (0.0 <= args.p_min <= args.p_max <= 1.0):
        return _usage_error("need 0 <= p-min <= p-max <= 1")
    if args.p_steps < 1:
        return _usage_error("p-steps must be at least 1")
    if args.pop0 is not None and not 0.0 <= args.pop0 <= 1.0:
        return _usage_error("pop0 must lie in [0, 1]")

    if args.qw_mode == "fixed":
        if not 0.0 <= args.qw <= 1.0:
            return _usage_error("qw must lie in [0, 1]")
        qw_for = lambda p: [args.qw]
    elif args.qw_mode == "equal-p":
        qw_for = lambda p: [p]
    else:
        if not (0.0 <= args.qw_min <= args.qw_max <= 1.0):
            return _usage_error("need 0 <= qw-min <= qw-max <= 1")
        if args.qw_steps < 1:
            return _usage_error("qw-steps must be at least 1")
        qs = [float(q) for q in np.linspace(args.qw_min, args.qw_max, args.qw_steps)]
        qw_for = lambda p: qs
    if not scenario.protected and (args.qw_mode != "fixed" or args.qw != 0.0):
        return _usage_error(f"{scenario.value} admits only --qw-mode fixed --qw 0")

    fixed_input = args.pop0 is not None
    header = SWEEP_HEADER + (",pop0" if fixed_input else "")
    lines = [header]
    g_name = _form_name("g_t", scenario) if scenario.protected else None
    f_name = None if scenario.protected else _form_name("f_av_unprot", scenario)
    pop0 = args.pop0 if fixed_input else 0.5
    for p in np.linspace(args.p_min, args.p_max, args.p_steps):
        p = float(p)
        # Every q_w row of this p shares one distributed state.
        dist, eam_success = distribute(scenario, p)
        s_bob = entanglement_entropy_bob(dist)
        qs = [float(q) for q in qw_for(p)]
        rows = np.tile([pop0, 0.0, pop0, 0.0], (len(qs), 1))
        success, fidelity, _ = _run_rows(dist, scenario, qs, rows).totals()
        f_avs = fidelity if fixed_input else _average_fidelities(dist, scenario, qs)
        for q, f_av, g_total in zip(qs, f_avs, success):
            f_oracle = closed_form(f_name, p, q).value if f_name and not fixed_input else None
            g_oracle = closed_form(g_name, p, q).value if g_name else None
            cols = [
                scenario.value,
                _fmt(p),
                _fmt(q),
                _fmt(f_av),
                _fmt(g_total),
                _fmt(f_oracle),
                _fmt(g_oracle),
                _fmt(eam_success),
                _fmt(s_bob),
            ]
            if fixed_input:
                cols.append(_fmt(args.pop0))
            lines.append(",".join(cols))
    _emit(lines, args.out)
    return 0


def cmd_branches(args: argparse.Namespace) -> int:
    scenario = Scenario(args.scenario)
    if not 0.0 <= args.p <= 1.0:
        return _usage_error("p must lie in [0, 1]")
    if not 0.0 <= args.qw <= 1.0:
        return _usage_error("qw must lie in [0, 1]")
    if not scenario.protected and args.qw != 0.0:
        return _usage_error(f"{scenario.value} admits only --qw 0")
    for name, v in (("alice-pop0", args.alice_pop0), ("bob-pop0", args.bob_pop0)):
        if not 0.0 <= v <= 1.0:
            return _usage_error(f"{name} must lie in [0, 1]")
    for name, v in (("alice-phase", args.alice_phase), ("bob-phase", args.bob_phase)):
        if not math.isfinite(v):
            return _usage_error(f"{name} must be finite")
    alice = QubitInput(args.alice_pop0, args.alice_phase)
    bob = QubitInput(args.bob_pop0, args.bob_phase)
    res = run_protocol(scenario, args.p, args.qw, alice, bob)
    if all(b.degenerate for b in res.branches):
        print("error: all 16 branches degenerate at this point", file=sys.stderr)
        return 1
    entry_names = []
    for r in range(4):
        for c in range(4):
            entry_names += [f"c{r}{c}_re", f"c{r}{c}_im"]
    lines = [",".join(["i", "j", "joint_prob", "success_weight", "branch_fidelity", "degenerate"] + entry_names)]
    for b in res.branches:
        cols = [str(b.alice_index), str(b.bob_index), _fmt(b.joint_prob), _fmt(b.success_weight)]
        if b.degenerate:
            cols += ["", "1"] + [""] * 32
        else:
            cols += [_fmt(b.branch_fidelity), "0"]
            for r in range(4):
                for c in range(4):
                    z = b.corrected.mat[r, c]
                    cols += [_fmt(z.real), _fmt(z.imag)]
        lines.append(",".join(cols))
    _emit(lines, None)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    if args.p_steps < 2:
        return _usage_error("p-steps must be at least 2")
    lines = ["p,entropy_recovery_adc,entropy_all_adc"]
    for p in np.linspace(0.0, 1.0, args.p_steps):
        p = float(p)
        vals = []
        for scenario in _PROTECTED:
            dist, _ = distribute(scenario, p)
            vals.append(entanglement_entropy_bob(dist))
        lines.append(",".join([_fmt(p)] + [_fmt(v) for v in vals]))
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify: simulation against every closed form, one line per check.
# Each check lists (error, location) pairs and `_verify_checks` reduces
# every list by `_worst`; a check passes when that error is at most its
# tolerance, so a NaN error, ranked above all others, fails it. Checks 7
# and 8 list signed margins, negative while each inequality holds.

# The per-party averaging integrands are quadratic polynomials (unprotected)
# or rationals whose only pole sits at least 0.125 outside [0, 1] for
# p, q_w <= 0.9 (protected), so 32 Gauss nodes are exact far beyond every
# check tolerance here. A fixed rule keeps verify's figures independent of
# the default one.
_VERIFY_QUAD = QuadratureSpec(points=32)


def _worst(pairs) -> tuple:
    """The first largest error of (error, location) pairs and its
    location, a NaN error counting as the largest; (0.0, "") when there are
    no pairs."""
    err, where = max(pairs, key=lambda pair: (math.isnan(pair[0]), pair[0]), default=(0.0, ""))
    return float(err), where


def _draw_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """n input rows [pop_a, phase_a, pop_b, phase_b], populations uniform
    on [0, 1) and phases on [0, 2 pi): the doubles, in the same order, of
    one `uniform()` call per population and `uniform(0, 2 pi)` per phase."""
    rows = rng.random((n, 4))
    rows[:, 1::2] *= 2.0 * math.pi
    return rows


def _check_success_oracle(grid_n: int) -> list:
    rng = np.random.default_rng(1001)
    grid = [k / grid_n for k in range(grid_n)]
    # Ten input draws per q_w; every row of a p in one evaluation.
    qs = np.repeat(grid, 10)
    pairs = []
    for scenario in _PROTECTED:
        name = _form_name("g_t", scenario)
        for p in grid:
            dist, _ = distribute(scenario, p)
            success = _run_rows(dist, scenario, qs, _draw_rows(rng, len(qs))).totals()[0]
            err = np.abs(success - np.repeat([closed_form(name, p, q).value for q in grid], 10))
            wheres = [f"{scenario.value} p={p:g} q_w={q:g}" for q in grid]
            pairs += ((e, wheres[k // 10]) for k, e in enumerate(err.tolist()))
    return pairs


def _check_suppression() -> tuple:
    """The pairs of check 2, and its note on skipped corner points."""
    pairs, skipped = [], 0
    inputs = np.array([[0.3, 0.4, 0.7, 1.1]])
    for p in np.linspace(0.0, 1.0, 11):
        p = float(p)
        for scenario in _PROTECTED:
            dist, _ = distribute(scenario, p)
            rows = _run_rows(dist, scenario, [p], inputs)
            degenerate = rows.degenerate[0]
            if p == 1.0 and degenerate.all():
                skipped += 1
                continue
            # A degenerate branch has no fidelity to be 1, so it fails.
            err = np.where(degenerate, np.nan, np.abs(rows.fidelity[0] - 1.0)).tolist()
            pairs += ((e, f"{scenario.value} p={p:g} branch ({i},{j})") for e, (i, j) in zip(err, _BRANCH_INDICES))
            f_av = _average_fidelities(dist, scenario, [p], _VERIFY_QUAD)[0]
            pairs.append((abs(f_av - 1.0), f"{scenario.value} p={p:g} f_av"))
    return pairs, f"; {skipped} annihilated corner point(s) skipped" if skipped else ""


def _check_unprotected_f_av() -> list:
    pairs = []
    inputs = np.array([[0.4, 0.0, 0.8, 0.0]])
    for scenario in _UNPROTECTED:
        name = _form_name("f_av_unprot", scenario)
        for p in np.linspace(0.0, 1.0, 51):
            p = float(p)
            where = f"{scenario.value} p={p:g}"
            dist, _ = distribute(scenario, p)
            f_av = _average_fidelities(dist, scenario, [0.0], _VERIFY_QUAD)[0]
            success = float(_run_rows(dist, scenario, [0.0], inputs).totals()[0][0])
            pairs += [(abs(f_av - closed_form(name, p).value), where), (abs(success - 1.0), where)]
    return pairs


def _check_eam() -> list:
    pairs = []
    for scenario in _PROTECTED:
        name = _form_name("g_eam", scenario)
        for p in np.linspace(0.0, 1.0, 51):
            p = float(p)
            _, got = distribute(scenario, p)
            pairs.append((abs(got - closed_form(name, p).value), f"{scenario.value} p={p:g}"))
    return pairs


def _branch_sample_errors() -> tuple:
    """The pairs of checks 5 and 6: recovered-state entry errors and
    joint-probability errors of every branch at the sampled points."""
    rng = np.random.default_rng(1005)
    rec, prob = [], []
    for scenario in _PROTECTED:
        for p in (0.2, 0.5, 0.8):
            inputs = _draw_rows(rng, 5)
            dist, _ = distribute(scenario, p)
            rows = _run_rows(dist, scenario, [0.0] * len(inputs), inputs)
            want = oracles.recovered_rows(scenario, p, inputs)
            rec_err = np.abs(rows.recovered - want).max(axis=(2, 3))
            prob_err = np.abs(rows.joint - oracles.joint_prob_rows(scenario, p, inputs))
            # Input row n, branch k = 4(i-1)+(j-1) is entry (n, k).
            wheres = [f"{scenario.value} p={p:g} ({i},{j})" for i, j in _BRANCH_INDICES] * len(inputs)
            rec += zip(rec_err.ravel().tolist(), wheres)
            prob += zip(prob_err.ravel().tolist(), wheres)
    return rec, prob


def _check_qualitative() -> list:
    grid = [0.1 * k for k in range(1, 10)]
    slack = 1e-9
    half = np.tile([0.5, 0.0, 0.5, 0.0], (len(grid), 1))
    # f_av and total success of each protected scenario as [p, q_w] arrays
    # over the grid, and f_av of each bare one as a [p] array.
    fav, g_sim = {}, {}
    for scenario in _PROTECTED:
        f_rows, g_rows = [], []
        for p in grid:
            # Every q_w of this p shares one distributed state.
            dist, _ = distribute(scenario, p)
            f_rows.append(_average_fidelities(dist, scenario, grid, _VERIFY_QUAD))
            g_rows.append(_run_rows(dist, scenario, grid, half).totals()[0])
        fav[scenario], g_sim[scenario] = np.array(f_rows), np.array(g_rows)
    unprot = {bare: np.array([average_fidelity(bare, p, 0.0, _VERIFY_QUAD) for p in grid]) for bare in _UNPROTECTED}
    # Each protected scenario is held against the bare one of its situation.
    bare_of = {bare.situation: bare for bare in _UNPROTECTED}
    pairs = []
    for prot in _PROTECTED:
        f, g, f_bare = fav[prot], g_sim[prot], unprot[bare_of[prot.situation]]
        for a, p in enumerate(grid):
            for b, q in enumerate(grid):
                if q <= p:
                    pairs.append((f_bare[a] - slack - f[a, b], f"dominance {prot.value} p={p:g} q_w={q:g}"))
                else:
                    pairs.append((f[a, b] - (f[a, a] - slack), f"prohibited f_av {prot.value} p={p:g} q_w={q:g}"))
                    pairs.append((g[a, b] - (g[a, a] - slack), f"prohibited g {prot.value} p={p:g} q_w={q:g}"))
    f_all, f_rec = fav[Scenario.ALL_ADC], fav[Scenario.RECOVERY_ADC]
    for a, p in enumerate(grid):
        for b, q in enumerate(grid):
            pairs.append((f_all[a, b] - slack - f_rec[a, b], f"ordering p={p:g} q_w={q:g}"))
    return pairs


def _check_entropy() -> list:
    def s_at(scenario: Scenario, p: float) -> float:
        dist, _ = distribute(scenario, p)
        return entanglement_entropy_bob(dist)

    pairs = [(abs(s_at(scenario, 0.0) - 2.0) - 1e-9, f"{scenario.value} p=0") for scenario in _PROTECTED]
    for p in np.linspace(0.0, 1.0, 51):
        p = float(p)
        pairs.append((s_at(Scenario.ALL_ADC, p) - s_at(Scenario.RECOVERY_ADC, p) - 1e-12, f"ordering p={p:g}"))
    for k in range(1, 10):
        p = 0.1 * k
        pairs.append((1e-9 - (s_at(Scenario.RECOVERY_ADC, p) - s_at(Scenario.ALL_ADC, p)), f"strictness p={p:g}"))
    return pairs


def _verify_checks(grid_n: int) -> list:
    """Run every verify check once, `grid_n` points per axis on the success
    grid; one (title, error, tolerance, worst location, note) tuple per
    check, which passes when error <= tolerance."""
    suppression, suppression_note = _check_suppression()
    # Checks 5 and 6 read the same sampled branches.
    recovered, joint = _branch_sample_errors()
    table = [
        ("total success vs closed form", _check_success_oracle(grid_n), 1e-10, ""),
        ("noise suppression at q_w = p", suppression, 1e-9, suppression_note),
        ("unprotected average fidelity and determinism", _check_unprotected_f_av(), 1e-6, ""),
        ("post-selection success probability", _check_eam(), 1e-12, ""),
        ("recovered branch states vs closed forms", recovered, 1e-12, ""),
        ("joint branch probabilities vs closed forms", joint, 1e-12, ""),
        ("dominance, prohibited domain, scenario ordering", _check_qualitative(), 0.0, ""),
        ("entropy boundary values and ordering", _check_entropy(), 0.0, ""),
    ]
    checks = []
    for title, pairs, tol, note in table:
        err, where = _worst(pairs)
        checks.append((title, err, tol, where, note))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    if args.grid < 2:
        return _usage_error("grid must be at least 2")
    checks = _verify_checks(args.grid)
    failures = 0
    for idx, (name, err, tol, where, note) in enumerate(checks, start=1):
        ok = err <= tol
        line = f"[{idx}/{len(checks)}] {name}: max error {err:.3g} (tol {tol:g}){note}"
        if not ok:
            line += f" worst at {where}"
            failures += 1
        line += " PASS" if ok else " FAIL"
        print(line)
    print(f"verify: {len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The `bqtsim` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(prog="bqtsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid sweep of f_av, g_total, entropy over (p, q_w)")
    sweep.add_argument("--scenario", required=True, choices=_SCENARIO_NAMES)
    sweep.add_argument("--p-min", type=float, default=0.0)
    sweep.add_argument("--p-max", type=float, default=1.0)
    sweep.add_argument("--p-steps", type=int, default=51)
    sweep.add_argument("--qw-mode", choices=("fixed", "equal-p", "grid"), default="fixed")
    sweep.add_argument("--qw", type=float, default=0.0, help="weak strength in fixed mode")
    sweep.add_argument("--qw-min", type=float, default=0.0)
    sweep.add_argument("--qw-max", type=float, default=1.0)
    sweep.add_argument("--qw-steps", type=int, default=11)
    sweep.add_argument("--pop0", type=float, default=None, help="fix both inputs instead of averaging")
    sweep.add_argument("--out", default=None, help="output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    branches = sub.add_parser("branches", help="per-branch table at a single parameter point")
    branches.add_argument("--scenario", required=True, choices=_SCENARIO_NAMES)
    branches.add_argument("--p", type=float, required=True)
    branches.add_argument("--qw", type=float, default=0.0)
    branches.add_argument("--alice-pop0", type=float, default=0.5)
    branches.add_argument("--alice-phase", type=float, default=0.0)
    branches.add_argument("--bob-pop0", type=float, default=0.5)
    branches.add_argument("--bob-phase", type=float, default=0.0)
    branches.set_defaults(func=cmd_branches)

    verify = sub.add_parser("verify", help="cross-check the simulation against every closed form")
    verify.add_argument("--grid", type=int, default=10, help="per-axis resolution of the success grid")
    verify.set_defaults(func=cmd_verify)

    entropy = sub.add_parser("entropy", help="receiver-side entanglement entropy curves")
    entropy.add_argument("--p-steps", type=int, default=51)
    entropy.add_argument("--out", default=None, help="output path (default: stdout)")
    entropy.set_defaults(func=cmd_entropy)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up by name when it runs, not taken from the
    # parser built at the first call, so a later rebinding of a cmd_*
    # function (a tracing wrapper, say) is the one called.
    return globals()[args.func.__name__](args)
