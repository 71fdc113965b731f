"""Acceptance gate: one test per shipped guarantee, at the stated
tolerance. Criteria 1-8 are the checks of `bqtsim verify`, run once for
the module and read here one per test. Each test prints a single summary
line; run with -rA or -s to see them on success."""
import subprocess
import sys
import time

import pytest

from bqtsim import cli
from bqtsim.metrics import _average_fidelities, average_fidelity
from bqtsim.protocol import Scenario, distribute


def report(num, name, err, tol, extra=""):
    print(f"[acceptance {num:>2}] {name}: max error {err:.3g} (tol {tol:g}){extra} PASS")


@pytest.fixture(scope="module")
def verify_run():
    """verify's (title, err, tol, where, note) checks at its default
    --grid 10, and the seconds they took together."""
    t0 = time.perf_counter()
    checks = cli._verify_checks(10)
    return checks, time.perf_counter() - t0


def accept(verify_run, num):
    """Assert verify check `num` and report it; returns its note."""
    title, err, tol, where, note = verify_run[0][num - 1]
    assert err <= tol, f"{title}: max error {err:.3g} > tol {tol:g} at {where}"
    report(num, title, err, tol, note)
    return note


def test_c01_total_success_matches_closed_forms(verify_run):
    accept(verify_run, 1)
    _, seconds = verify_run
    assert seconds < 30.0


def test_c02_equal_strength_suppression(verify_run):
    # p = q_w = 1 annihilates both protected scenarios and nothing else.
    assert accept(verify_run, 2) == "; 2 annihilated corner point(s) skipped"


def test_c03_unprotected_average_fidelity(verify_run):
    accept(verify_run, 3)


def test_c04_postselection_probability(verify_run):
    accept(verify_run, 4)


def test_c05_recovered_branch_states(verify_run):
    accept(verify_run, 5)


def test_c06_joint_branch_probabilities(verify_run):
    accept(verify_run, 6)


def test_c07_dominance_prohibited_domain_ordering(verify_run):
    accept(verify_run, 7)


def test_c08_entropy_boundaries_and_ordering(verify_run):
    accept(verify_run, 8)


def test_c09_quadrature_insensitivity():
    tol, worst = 1e-8, 0.0
    points = {
        Scenario.RECOVERY_ADC: ((0.3, 0.1), (0.8, 0.5)),
        Scenario.ALL_ADC: ((0.3, 0.1), (0.8, 0.5)),
        Scenario.UNPROTECTED_RECOVERY: ((0.3, 0.0), (0.8, 0.0)),
        Scenario.UNPROTECTED_ALL: ((0.3, 0.0), (0.8, 0.0)),
    }
    for scenario, pts in points.items():
        for p, q in pts:
            base = average_fidelity(scenario, p, q)
            doubled = _average_fidelities(distribute(scenario, p)[0], scenario, [q], 128)[0][0]
            worst = max(worst, abs(base - doubled))
    assert worst < tol
    report(9, "doubling the quadrature rule", worst, tol)


def test_c10_verify_command_passes():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bqtsim", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8/8 checks passed" in proc.stdout
    assert elapsed < 60.0
    report(10, "verify subcommand exits 0", 0.0, 1.0, f", {elapsed:.1f}s")
