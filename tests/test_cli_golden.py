"""Byte-exact CLI output against checked-in golden files.

Each case runs one command line and compares its stdout with
`tests/golden/<name>.txt` byte for byte, so a change that moves any printed
digit fails here. A golden file is rewritten only when an output change is
intended, by `python -m bqtsim <argv> > tests/golden/<name>.txt`.
"""
from pathlib import Path

import pytest

from bqtsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify": ["verify"],
    "verify_grid2": ["verify", "--grid", "2"],
    "sweep_fixed": ["sweep", "--scenario", "recovery-adc", "--p-steps", "6", "--qw", "0.2"],
    "sweep_equal_p": ["sweep", "--scenario", "all-adc", "--p-steps", "6", "--qw-mode", "equal-p"],
    "sweep_grid": [
        "sweep", "--scenario", "all-adc", "--p-min", "0.1", "--p-max", "0.9",
        "--p-steps", "3", "--qw-mode", "grid", "--qw-steps", "4",
    ],
    "sweep_pop0": ["sweep", "--scenario", "recovery-adc", "--p-steps", "4", "--qw", "0.3", "--pop0", "0.3"],
    "sweep_unprotected": ["sweep", "--scenario", "unprotected-all", "--p-steps", "6"],
    "branches_interior": [
        "branches", "--scenario", "all-adc", "--p", "0.4", "--qw", "0.25",
        "--alice-pop0", "0.3", "--alice-phase", "0.7", "--bob-pop0", "0.8", "--bob-phase", "1.9",
    ],
    # Branches with i > 2 or j > 2 are annihilated at this point.
    "branches_partial": ["branches", "--scenario", "recovery-adc", "--p", "1", "--alice-pop0", "1", "--bob-pop0", "1"],
    "entropy": ["entropy", "--p-steps", "5"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
