"""Command line surface: schemas, determinism, exit statuses.

The heavyweight `verify` subcommand is exercised end to end by the
acceptance suite; here only its reduction rule and its failure path.
"""
import math

import numpy as np
import pytest

from bqtsim import cli
from bqtsim.cli import SWEEP_HEADER, main
from bqtsim.metrics import OracleValue, closed_form_names
from bqtsim.protocol import QubitInput, Scenario, run_protocol


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# ------------------------------------------------------ scenario record


def test_scenario_spellings_and_closed_form_names():
    # Every --scenario spelling looks its record up, and every closed form
    # the CLI names from a record's situation exists.
    assert cli._SCENARIO_NAMES == ("recovery-adc", "all-adc", "unprotected-recovery", "unprotected-all")
    for name in cli._SCENARIO_NAMES:
        scenario = Scenario(name)
        assert scenario.value == name
        for prefix in ("g_t", "g_eam") if scenario.protected else ("f_av_unprot",):
            assert cli._form_name(prefix, scenario) in closed_form_names()


# ---------------------------------------------------------------- sweep


def test_sweep_header_and_shape(capsys):
    code, out, err = run_cli(
        ["sweep", "--scenario", "recovery-adc", "--p-steps", "4", "--qw", "0.2"], capsys
    )
    assert code == 0 and err == ""
    header, body = rows(out)
    assert header == SWEEP_HEADER
    assert len(body) == 4
    for cols in body:
        assert len(cols) == 9
        assert cols[0] == "recovery-adc"
        assert cols[2] == "0.2"
        assert cols[5] == ""  # no averaged-fidelity closed form here
        assert cols[6] != ""  # success closed form present
    assert body[1][1] == "%.12g" % (1.0 / 3.0)


def test_sweep_is_deterministic(tmp_path, capsys):
    argv = [
        "sweep", "--scenario", "all-adc", "--p-min", "0.2", "--p-max", "0.7",
        "--p-steps", "2", "--qw-mode", "grid", "--qw-steps", "2",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    a = first.read_bytes()
    assert a == second.read_bytes()
    assert a.endswith(b"\n")
    assert a.decode().splitlines()[0] == SWEEP_HEADER
    assert len(a.decode().splitlines()) == 1 + 2 * 2


def test_sweep_equal_p_suppresses_noise(capsys):
    code, out, _ = run_cli(
        ["sweep", "--scenario", "all-adc", "--qw-mode", "equal-p", "--p-steps", "5"], capsys
    )
    assert code == 0
    _, body = rows(out)
    for cols in body:
        assert cols[1] == cols[2]
        if float(cols[1]) < 1.0:
            assert abs(float(cols[3]) - 1.0) < 1e-9
        else:
            assert cols[3] == "nan"  # p = q_w = 1 annihilates every branch


def test_sweep_fixed_input_column(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "--scenario", "recovery-adc", "--p-min", "0.4", "--p-max", "0.4",
            "--p-steps", "1", "--qw", "0.1", "--pop0", "0.3",
        ],
        capsys,
    )
    assert code == 0
    header, body = rows(out)
    assert header == SWEEP_HEADER + ",pop0"
    (cols,) = body
    assert cols[-1] == "0.3"
    assert cols[5] == ""
    inp = QubitInput(0.3)
    res = run_protocol(Scenario.RECOVERY_ADC, 0.4, 0.1, inp, inp)
    assert cols[3] == "%.12g" % res.total_fidelity
    assert cols[4] == "%.12g" % res.total_success


def test_sweep_unprotected_closed_form_column(capsys):
    code, out, _ = run_cli(
        ["sweep", "--scenario", "unprotected-all", "--p-steps", "3"], capsys
    )
    assert code == 0
    _, body = rows(out)
    for cols in body:
        p = float(cols[1])
        want = ((3 - 2 * p + p * p) / 3.0) ** 2
        assert abs(float(cols[5]) - want) < 1e-12
        assert abs(float(cols[3]) - want) < 1e-6
        assert cols[6] == ""
        assert float(cols[4]) == 1.0


@pytest.mark.parametrize(
    "argv",
    [
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
        ["entropy", "--p-steps", "1"],
        ["verify", "--grid", "1"],
        ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--alice-phase", "inf"],
        ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--bob-phase", "nan"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------- branches


def test_branches_table_shape_and_sums(capsys):
    code, out, err = run_cli(
        ["branches", "--scenario", "all-adc", "--p", "0.4", "--qw", "0.15",
         "--alice-pop0", "0.3", "--alice-phase", "0.9", "--bob-pop0", "0.8"],
        capsys,
    )
    assert code == 0 and err == ""
    header, body = rows(out)
    fields = header.split(",")
    assert fields[:6] == ["i", "j", "joint_prob", "success_weight", "branch_fidelity", "degenerate"]
    assert len(fields) == 6 + 32
    assert fields[6:8] == ["c00_re", "c00_im"]
    assert fields[-2:] == ["c33_re", "c33_im"]
    assert len(body) == 16
    pairs = [(int(cols[0]), int(cols[1])) for cols in body]
    assert pairs == [(i, j) for i in range(1, 5) for j in range(1, 5)]
    assert abs(sum(float(cols[2]) for cols in body) - 1.0) < 1e-10
    for cols in body:
        assert cols[5] == "0"
        assert 0.0 <= float(cols[4]) <= 1.0 + 1e-12
        # corrected state has unit trace
        trace = sum(float(cols[6 + 2 * (4 * r + r)]) for r in range(4))
        assert abs(trace - 1.0) < 1e-10


def test_branches_noiseless_and_balanced_points(capsys):
    code, out, _ = run_cli(["branches", "--scenario", "recovery-adc", "--p", "0"], capsys)
    assert code == 0
    _, body = rows(out)
    for cols in body:
        assert abs(float(cols[4]) - 1.0) < 1e-12
    code, out, _ = run_cli(
        ["branches", "--scenario", "recovery-adc", "--p", "0.5", "--qw", "0.5"], capsys
    )
    assert code == 0
    _, body = rows(out)
    for cols in body:
        assert abs(float(cols[3]) - 1.0 / 36.0) < 1e-12
        assert abs(float(cols[4]) - 1.0) < 1e-12


def test_branches_partial_degeneracy(capsys):
    code, out, _ = run_cli(
        ["branches", "--scenario", "recovery-adc", "--p", "1",
         "--alice-pop0", "1", "--bob-pop0", "1"],
        capsys,
    )
    assert code == 0
    _, body = rows(out)
    for cols in body:
        i, j = int(cols[0]), int(cols[1])
        if i <= 2 and j <= 2:
            assert cols[5] == "0"
        else:
            assert cols[5] == "1"
            assert cols[4] == ""
            assert all(c == "" for c in cols[6:])
            assert float(cols[3]) == 0.0


def test_branches_all_degenerate_exits_1(capsys):
    code, out, err = run_cli(
        ["branches", "--scenario", "recovery-adc", "--p", "1", "--qw", "1"], capsys
    )
    assert code == 1
    assert out == ""
    assert "degenerate" in err


# -------------------------------------------------------------- entropy


def test_entropy_curves(tmp_path, capsys):
    out_path = tmp_path / "entropy.csv"
    code, _, err = run_cli(["entropy", "--p-steps", "11", "--out", str(out_path)], capsys)
    assert code == 0 and err == ""
    header, body = rows(out_path.read_text())
    assert header == "p,entropy_recovery_adc,entropy_all_adc"
    assert len(body) == 11
    assert body[0][0] == "0" and body[-1][0] == "1"
    assert abs(float(body[0][1]) - 2.0) < 1e-9
    assert abs(float(body[0][2]) - 2.0) < 1e-9
    assert float(body[-1][1]) == 0.0
    assert float(body[-1][2]) == 0.0
    assert "-0" not in {body[-1][1], body[-1][2]}
    for cols in body:
        s1, s2 = float(cols[1]), float(cols[2])
        assert s1 >= s2 - 1e-12
        if 0.0 < float(cols[0]) < 1.0:
            assert s1 - s2 > 1e-9
    mids = [float(cols[1]) for cols in body]
    assert all(not math.isnan(v) for v in mids)


# --------------------------------------------------------------- verify


def test_input_rows_draw_the_scalar_stream():
    # verify's sampled checks draw their input rows as one array; those are
    # the doubles a loop of one uniform() call per population and one
    # uniform(0, 2 pi) per phase gives, in the same order, bit for bit.
    rng = np.random.default_rng(1001)
    tau = 2.0 * math.pi
    loop = [[rng.uniform(), rng.uniform(0.0, tau), rng.uniform(), rng.uniform(0.0, tau)] for _ in range(1000)]
    rows = cli._draw_rows(np.random.default_rng(1001), 1000)
    assert rows.shape == (1000, 4)
    assert rows.tobytes() == np.array(loop).tobytes()


def test_worst_ranks_nan_above_every_error():
    assert cli._worst([]) == (0.0, "")
    assert cli._worst([(-2.0, "a"), (-1.0, "b"), (-1.0, "c")]) == (-1.0, "b")
    err, where = cli._worst([(1.0, "a"), (math.nan, "b"), (2.0, "c"), (math.nan, "d")])
    assert math.isnan(err) and where == "b"


def test_verify_fails_on_nan_closed_forms(monkeypatch, capsys):
    # Checks 1, 3 and 4 compare against closed forms; a NaN there must
    # surface as their error and fail them, not be passed over.
    monkeypatch.setattr(cli, "closed_form", lambda name, p, q_w=0.0: OracleValue(name, math.nan, "nan"))
    code, out, _ = run_cli(["verify", "--grid", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    for num in (1, 3, 4):
        assert lines[num - 1].startswith(f"[{num}/8]")
        assert "max error nan " in lines[num - 1] and lines[num - 1].endswith(" FAIL")
    assert lines[-1] == "verify: 5/8 checks passed"
