"""The three benchmark workloads: input generation, one item, its check.

Every workload is a closed loop with one caller: the next item is sent
only after the previous one returns. A round is a fixed amount of work
generated from (seed, round index) alone, so the same seed gives the same
inputs whatever the run length. Items call only the program's stable entry
points (`run_protocol`, `QubitInput`, `Scenario`, `cli.main`, `closed_form`
and `oracles.joint_prob_closed`), always looked up on the module at call
time so that the tracer's wrappers are seen.

Checks run outside the timed span and use the acceptance tolerances of the
README. An exception raised by an item counts as a failed output.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import re
import sys
from pathlib import Path

PROTECTED = ("recovery-adc", "all-adc")
UNPROTECTED = ("unprotected-recovery", "unprotected-all")
SCENARIOS = PROTECTED + UNPROTECTED
# Closed form per scenario: total success of the protected ones, average
# fidelity of the unprotected baselines.
G_TOTAL_FORM = {"recovery-adc": "g_t_I", "all-adc": "g_t_II"}
F_AV_FORM = {"unprotected-recovery": "f_av_unprot_I", "unprotected-all": "f_av_unprot_II"}

# Rounds hashed into the input digest, independent of how many rounds ran.
DIGEST_ROUNDS = 8


def load_program(src: Path):
    """Import bqtsim from `src` (never from an installed copy)."""
    sys.path.insert(0, str(src))
    bq = importlib.import_module("bqtsim")
    for sub in ("cli", "oracles"):
        importlib.import_module(f"bqtsim.{sub}")
    if Path(bq.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"bqtsim imported from {bq.__file__}, not from {src}")
    return bq


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


# ---------------------------------------------------------------- point-mc


class PointMC:
    """One `run_protocol` call per item at a fresh (scenario, p).

    Each round holds the same number of items of every scenario, in a
    shuffled order. p, q_w, the populations and phases are continuous
    draws, with a few exact 0, 1 and q_w = p draws; round 0 also holds
    p = 0 and p = 1 once per scenario, including the all-degenerate
    protected point p = q_w = 1.
    """

    name = "point-mc"
    round_items = 200
    tiny_round_items = 8

    def make_round(self, seed: int, r: int, tiny: bool) -> list:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        per = (self.tiny_round_items if tiny else self.round_items) // len(SCENARIOS)

        def pop0() -> float:
            u = rng.random()
            return 0.0 if u < 0.03 else 1.0 if u < 0.06 else rng.random()

        items = []
        for scenario in SCENARIOS:
            protected = scenario in PROTECTED
            for j in range(per):
                if r == 0 and j < 2:
                    p = float(j)
                    q = p if protected else 0.0
                else:
                    p = rng.random()
                    u = rng.random()
                    if not protected:
                        q = 0.0
                    elif u < 0.03:
                        q = p
                    elif u < 0.06:
                        q = 0.0
                    elif u < 0.09:
                        q = 1.0
                    else:
                        q = rng.random()
                tau = 2.0 * math.pi
                items.append((scenario, p, q, pop0(), rng.uniform(0.0, tau), pop0(), rng.uniform(0.0, tau)))
        rng.shuffle(items)
        return items

    def warmup(self, bq, scratch: Path) -> None:
        bq.run_protocol(bq.Scenario("unprotected-all"), 0.5, 0.0, bq.QubitInput(0.3, 1.0), bq.QubitInput(0.6, 2.0))

    def prepare(self, bq, item, scratch: Path, k: int):
        scenario, p, q, pa, fa, pb, fb = item
        return (bq.Scenario(scenario), p, q, bq.QubitInput(pa, fa), bq.QubitInput(pb, fb))

    def run(self, bq, args):
        return bq.run_protocol(*args)

    def check(self, bq, item, args, res):
        scenario, p, q, alice, bob = args
        budget = sum(b.joint_prob for b in res.branches)
        if not _close(budget, 1.0, 1e-12):
            return f"trace budget {budget!r} at {item}"
        for b in res.branches:
            want = bq.oracles.joint_prob_closed(scenario, b.alice_index, b.bob_index, p, alice, bob)
            if not _close(b.joint_prob, want, 1e-12):
                return f"joint_prob ({b.alice_index},{b.bob_index}) {b.joint_prob!r} != {want!r} at {item}"
        if all(b.degenerate for b in res.branches):
            # Expected only where the weak pulse annihilates everything
            # (p = q_w = 1): fidelities are NaN and nothing succeeds.
            return None if res.total_success == 0.0 else f"all-degenerate with success {res.total_success!r} at {item}"
        form = G_TOTAL_FORM.get(scenario.value)
        want = bq.closed_form(form, p, q).value if form else 1.0
        if not _close(res.total_success, want, 1e-10):
            return f"total_success {res.total_success!r} != {want!r} at {item}"
        return None


# ---------------------------------------------------------------- fav-sweep


class FavSweep:
    """One in-process `bqtsim sweep` call at a single p per item.

    A round covers all four scenarios at one fresh p in [0, 0.95]: each
    protected scenario once with `--qw-mode equal-p` and once with a
    two-row `--qw-mode grid`, each unprotected one once at q_w = 0. Every
    row is input-averaged with the default 64-node rule, and the CSV goes
    to the benchmark's scratch directory.
    """

    name = "fav-sweep"

    def make_round(self, seed: int, r: int, tiny: bool) -> list:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        p = 0.95 * rng.random()
        qw_max = rng.uniform(0.05, 1.0)
        items = []
        for scenario in PROTECTED:
            items.append((scenario, p, "equal-p", None))
            items.append((scenario, p, "grid", qw_max))
        for scenario in UNPROTECTED:
            items.append((scenario, p, "fixed", None))
        return items

    def _argv(self, item, out: Path) -> list:
        scenario, p, mode, qw_max = item
        argv = ["sweep", "--scenario", scenario, "--p-min", repr(p), "--p-max", repr(p), "--p-steps", "1"]
        if mode == "equal-p":
            argv += ["--qw-mode", "equal-p"]
        elif mode == "grid":
            argv += ["--qw-mode", "grid", "--qw-min", "0", "--qw-max", repr(qw_max), "--qw-steps", "2"]
        return argv + ["--out", str(out)]

    def warmup(self, bq, scratch: Path) -> None:
        argv = ["sweep", "--scenario", "unprotected-recovery", "--p-min", "0.5", "--p-max", "0.5", "--p-steps", "1"]
        if bq.cli.main(argv + ["--out", str(scratch / "warmup.csv")]) != 0:
            raise RuntimeError("warm-up sweep failed")

    def prepare(self, bq, item, scratch: Path, k: int):
        out = scratch / f"{self.name}-{k}.csv"
        return self._argv(item, out), out

    def run(self, bq, args):
        return bq.cli.main(args[0])

    def check(self, bq, item, args, rc):
        scenario, p, mode, qw_max = item
        if rc != 0:
            return f"exit status {rc} for {item}"
        with open(args[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        qs = {"equal-p": [p], "grid": [0.0, qw_max], "fixed": [0.0]}[mode]
        if len(rows) != len(qs):
            return f"{len(rows)} rows, expected {len(qs)} for {item}"
        for row, q in zip(rows, qs):
            if row["scenario"] != scenario or not _close(float(row["p"]), p, 1e-11) or not _close(float(row["q_w"]), q, 1e-11):
                return f"row {row} does not echo {item}"
            f_av, g_total = float(row["f_av"]), float(row["g_total"])
            if scenario in PROTECTED:
                want = bq.closed_form(G_TOTAL_FORM[scenario], p, q).value
                if not _close(g_total, want, 1e-10):
                    return f"g_total {g_total!r} != {want!r} at q_w={q!r} for {item}"
                if mode == "equal-p" and not _close(f_av, 1.0, 1e-9):
                    return f"equal-p f_av {f_av!r} != 1 for {item}"
            else:
                want = bq.closed_form(F_AV_FORM[scenario], p).value
                if not _close(f_av, want, 1e-6):
                    return f"f_av {f_av!r} != {want!r} for {item}"
        return None


# ---------------------------------------------------------------- verify


class Verify:
    """One in-process `bqtsim verify` at default settings per item.

    Its stdout is captured inside the timed span. The seed does not change
    the work: verify draws its own fixed inputs.
    """

    name = "verify"
    _passed = re.compile(r"^verify: (\d+)/(\d+) checks passed$", re.MULTILINE)

    def make_round(self, seed: int, r: int, tiny: bool) -> list:
        return [["verify", "--grid", "2"] if tiny else ["verify"]]

    warmup = FavSweep.warmup

    def prepare(self, bq, item, scratch: Path, k: int):
        return item

    def run(self, bq, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = bq.cli.main(argv)
        return rc, buf.getvalue()

    def check(self, bq, item, args, out):
        rc, text = out
        m = self._passed.search(text)
        if rc != 0 or m is None or m.group(1) != m.group(2) or int(m.group(2)) < 8:
            return f"verify exit {rc}: {text.strip().splitlines()[-1:]}"
        return None


WORKLOADS = {w.name: w for w in (PointMC(), FavSweep(), Verify())}


def input_digest(name: str, seed: int, tiny: bool = False) -> str:
    """sha256 of the first DIGEST_ROUNDS rounds of generated inputs."""
    wl = WORKLOADS[name]
    rounds = [wl.make_round(seed, r, tiny) for r in range(DIGEST_ROUNDS)]
    return hashlib.sha256(json.dumps(rounds).encode()).hexdigest()
