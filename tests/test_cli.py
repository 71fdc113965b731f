"""Command line surface: schemas, determinism, exit statuses.

The heavyweight `verify` subcommand is exercised end to end by the
acceptance suite; here only its reduction rule and its failure path.
"""
import argparse
import contextlib
import errno
import io
import math
import os
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import bqtsim
from bqtsim import cli, protocol
from bqtsim.cli import SWEEP_HEADER, main
from bqtsim.metrics import _closed_forms, closed_form_names
from bqtsim.protocol import QubitInput, Scenario, run_protocol
from test_metrics import PARTY_RULE_FINITE


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


@pytest.mark.parametrize("flag,column", [("--qw", 2), ("--pop0", -1)])
def test_sweep_prints_negative_zero_input_as_zero(flag, column, capsys):
    # -0.0 is the same setting as 0, so it must give the same bytes.
    outs = []
    for zero in ("0", "-0.0"):
        code, out, err = run_cli(["sweep", "--scenario", "recovery-adc", "--p-steps", "3", flag, zero], capsys)
        assert code == 0 and err == ""
        assert all(cols[column] == "0" for cols in rows(out)[1])
        outs.append(out)
    assert outs[0] == outs[1]


# An --out path that cannot be written: a missing directory, a directory.
UNWRITABLE_OUT = [
    ["sweep", "--scenario", "recovery-adc", "--p-steps", "1", "--out", "/nonexistent/x.csv"],
    ["entropy", "--p-steps", "2", "--out", "."],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "recovery-adc", "--p-min", "0.5", "--p-max", "0.2"],
        ["sweep", "--scenario", "recovery-adc", "--p-steps", "0"],
        ["sweep", "--scenario", "recovery-adc", "--qw", "1.5"],
        ["sweep", "--scenario", "recovery-adc", "--qw-mode", "grid", "--qw-min", "0.8", "--qw-max", "0.2"],
        ["sweep", "--scenario", "recovery-adc", "--qw-mode", "grid", "--qw-steps", "0"],
        ["sweep", "--scenario", "recovery-adc", "--pop0", "1.5"],
        ["sweep", "--scenario", "unprotected-recovery", "--qw", "0.3"],
        ["sweep", "--scenario", "unprotected-all", "--qw-mode", "equal-p"],
        ["branches", "--scenario", "recovery-adc", "--p", "1.5"],
        ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "1.5"],
        ["branches", "--scenario", "unprotected-all", "--p", "0.3", "--qw", "0.5"],
        ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--alice-pop0", "-0.1"],
        ["entropy", "--p-steps", "1"],
        ["verify", "--grid", "1"],
        ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--alice-phase", "inf"],
        ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--bob-phase", "nan"],
    ]
    + UNWRITABLE_OUT,
)
def test_usage_errors_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv", UNWRITABLE_OUT)
def test_unwritable_out_fails_before_any_work(argv, capsys, monkeypatch, tmp_path):
    """An --out that names a directory or lies in a missing one is refused
    before the first `distribute`, with the message a failed write gives,
    and no file is created."""

    def distribute(*args):
        raise AssertionError("distribute called before --out was checked")

    monkeypatch.setattr(cli, "distribute", distribute)
    monkeypatch.chdir(tmp_path)
    path = argv[-1]
    try:
        open(path, "w")
    except OSError as exc:
        reason = exc.strerror
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


# --out is written in place and cut to the new length, so it holds what
# stdout would, whatever the file held before.
OUT_COMMANDS = [
    ["sweep", "--scenario", "recovery-adc", "--p-steps", "3"],
    ["entropy", "--p-steps", "5"],
]


@pytest.mark.parametrize("argv", OUT_COMMANDS)
@pytest.mark.parametrize("held", [0.5, 2.0])
def test_out_rewrites_a_file_with_stdouts_bytes(argv, held, tmp_path, capsys):
    """A longer file rewritten with a shorter output, and a shorter file
    with a longer one."""
    code, printed, _ = run_cli(argv, capsys)
    assert code == 0
    path = tmp_path / "out.csv"
    path.write_bytes(b"#\n" * int(held * len(printed) / 2))
    assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_out_creates_a_file_with_the_umask_mode(argv, tmp_path, capsys):
    path = tmp_path / "out.csv"
    umask = os.umask(0o027)
    try:
        assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_out_to_devices(argv, capsys):
    """A device is written without truncation: /dev/null takes the output,
    and /dev/full fails the write with the usual message."""
    assert run_cli(argv + ["--out", os.devnull], capsys) == (0, "", "")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    message = "error: cannot write /dev/full: No space left on device\n"
    assert run_cli(argv + ["--out", "/dev/full"], capsys) == (2, "", message)


def test_rewriting_out_dirties_no_fresh_pages(tmp_path, capsys):
    """`ru_oublock` counts the blocks of the page-cache pages this process
    dirties. Truncating a file drops its pages, so each rewrite through
    open(path, "w") dirties fresh ones (and ext4 starts their writeback on
    close), while a rewrite in place finds its page still dirty. The probe
    calibrates: where it reads 0 (tmpfs, say), the two cannot be told apart."""

    def blocks():
        return resource.getrusage(resource.RUSAGE_SELF).ru_oublock

    probe = tmp_path / "probe.csv"
    probe.write_text("x\n")
    start = blocks()
    for _ in range(50):
        with open(probe, "w") as fh:
            fh.write("x\n")
    truncating = blocks() - start
    if truncating == 0:
        pytest.skip("this filesystem counts no blocks for a rewrite after truncation")
    argv = ["sweep", "--scenario", "recovery-adc", "--p-steps", "1", "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0
    start = blocks()
    for _ in range(50):
        assert main(argv) == 0
    assert blocks() - start <= truncating / 10
    assert capsys.readouterr().err == ""


def test_out_is_opened_once_and_never_statted(tmp_path, monkeypatch, capsys):
    """An --out sweep opens its path once, before the work, and writes
    through that descriptor: no second open, and no stat of the path or of
    its directory."""
    opened = []
    real_open = os.open

    def counted(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("--out path statted")

    path = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", "all-adc", "--p-steps", "2", "--qw-mode", "grid", "--qw-steps", "2"]
    code, printed, _ = run_cli(argv, capsys)
    assert code == 0
    monkeypatch.setattr(os, "open", counted)
    for name in ("stat", "lstat"):
        monkeypatch.setattr(os, name, refused)
    monkeypatch.setattr(os.path, "isdir", refused)
    monkeypatch.setattr(os.path, "exists", refused)
    assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
    monkeypatch.undo()
    assert opened == [str(path)]
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize("held", [None, b"held\n"])
def test_out_descriptor_is_closed_when_the_work_raises(held, tmp_path, monkeypatch):
    """The descriptor opened before the work is closed when the work
    raises: a new file is left empty, an existing one as it was."""
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def tracked_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def tracked_close(fd):
        closed.append(fd)
        return real_close(fd)

    def distribute(*args):
        raise RuntimeError("work failed")

    path = tmp_path / "out.csv"
    if held is not None:
        path.write_bytes(held)
    monkeypatch.setattr(cli, "distribute", distribute)
    monkeypatch.setattr(os, "open", tracked_open)
    monkeypatch.setattr(os, "close", tracked_close)
    for argv in (["sweep", "--scenario", "recovery-adc", "--p-steps", "2"], ["entropy", "--p-steps", "3"]):
        opened.clear(), closed.clear()
        with pytest.raises(RuntimeError, match="work failed"):
            main(argv + ["--out", str(path)])
        assert len(opened) == 1 and closed == opened
        assert path.read_bytes() == (held or b"")


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_out_work_oserror_propagates(argv, tmp_path, monkeypatch, capsys):
    """An OSError raised by the work is the work's, not a failed write: it
    comes out of main unchanged, with nothing on stderr, the descriptor
    closed and an existing file as it was."""
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def tracked_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def tracked_close(fd):
        closed.append(fd)
        return real_close(fd)

    failure = OSError(errno.EIO, "work failed")

    def distribute(*args):
        raise failure

    path = tmp_path / "out.csv"
    path.write_bytes(b"held\n")
    monkeypatch.setattr(cli, "distribute", distribute)
    monkeypatch.setattr(os, "open", tracked_open)
    monkeypatch.setattr(os, "close", tracked_close)
    with pytest.raises(OSError) as raised:
        main(argv + ["--out", str(path)])
    monkeypatch.undo()
    assert raised.value is failure
    assert len(opened) == 1 and closed == opened
    assert path.read_bytes() == b"held\n"
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_out_close_failure_is_a_failed_write(argv, tmp_path, monkeypatch, capsys):
    """A close that fails after the whole output is written (as NFS may
    report a deferred write error) fails the command like any write."""
    code, printed, _ = run_cli(argv, capsys)
    assert code == 0
    real_close = os.close

    def failing_close(fd):
        real_close(fd)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    path = tmp_path / "out.csv"
    monkeypatch.setattr(os, "close", failing_close)
    outcome = run_cli(argv + ["--out", str(path)], capsys)
    monkeypatch.undo()
    assert outcome == (2, "", f"error: cannot write {path}: Input/output error\n")
    assert path.read_bytes() == printed.encode()


# Doubles where np.linspace takes each of its branches: one point, a zero
# step of a subnormal span, signed zeros, a span that overflows.
GRID_EDGES = [
    (0.0, 1.0, 0), (0.3, 0.7, 1), (0.3, 0.7, 2), (0.0, 1.0, 51), (0.1, 0.9, 100_001), (0.37, 0.37, 1),
    (0.37, 0.37, 5), (-0.0, -0.0, 1), (-0.0, -0.0, 3), (0.0, -0.0, 2), (-0.0, 0.0, 4), (0.5, -0.0, 1),
    (0.0, 5e-324, 3), (0.0, 1e-320, 1000), (-5e-324, 5e-324, 7), (1e-310, 2e-310, 9), (-1e308, 1e308, 1),
    (-1e308, 1e308, 3), (1.0, 0.0, 11),
]
ANY_DOUBLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0]),
)


def assert_grid_is_linspace(lo, hi, n):
    grid = cli._grid(lo, hi, n)
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, n)
    assert all(type(x) is float for x in grid)
    assert np.array(grid, dtype=float).tobytes() == want.tobytes(), (lo, hi, n)


@pytest.mark.parametrize("lo, hi, n", GRID_EDGES)
def test_grid_is_linspace_at_its_edges(lo, hi, n):
    """`cli._grid` is `np.linspace(lo, hi, n).tolist()` byte for byte, one
    Python float per point."""
    assert_grid_is_linspace(lo, hi, n)


@seed(20261020)
@settings(database=None, deadline=None, max_examples=500)
@given(ANY_DOUBLE, ANY_DOUBLE, st.one_of(st.integers(0, 3), st.integers(0, 2000)))
def test_grid_is_linspace_over_draws(lo, hi, n):
    assert_grid_is_linspace(lo, hi, n)


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


def run_into_closed_pipe(args):
    """Run the interpreter with `args`, stdout a pipe whose read end was
    closed before the start; the exit status and stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(bqtsim.__file__).parent.parent))
    try:
        done = subprocess.run([sys.executable, *args], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


CLOSED_PIPE_ARGV = (["verify", "--grid", "2"], ["entropy", "--p-steps", "5"])


@pytest.mark.parametrize("argv", CLOSED_PIPE_ARGV)
def test_closed_stdout_exits_141_quietly(argv):
    # `bqtsim ... | head` with the reader gone before the first write: no
    # traceback, and a status apart from a failed verify's 1.
    assert run_into_closed_pipe(["-m", "bqtsim", *argv]) == (141, b"")


@pytest.mark.parametrize("argv", CLOSED_PIPE_ARGV)
def test_console_script_exits_141_quietly(argv):
    # The installed `bqtsim` script calls the target pyproject.toml names,
    # as its generated wrapper does, and must end the same way.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^bqtsim\s*=\s*"([\w.]+):(\w+)"', text, re.MULTILINE).groups()
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    assert run_into_closed_pipe(["-c", wrapper, *argv]) == (141, b"")


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
    # A check's errors are one array; `_worst` names only the location of
    # the error it reports, so `where` runs once, on that index.
    asked = []
    where = lambda k: asked.append(k) or "abcd"[k]
    assert cli._worst(np.empty(0), where) == (0.0, "") and asked == []
    assert cli._worst(np.array([-2.0, -1.0, -1.0]), where) == (-1.0, "b") and asked == [1]
    err, at = cli._worst(np.array([1.0, math.nan, 2.0, math.nan]), where)
    assert math.isnan(err) and at == "b" and asked == [1, 1]


def test_verify_checks_return_one_array_each():
    # Every check gives its errors as one 1-D float array and a location for
    # any index of it; the counts are those of the default grid.
    results = {
        1: cli._check_success_oracle(10),
        2: cli._check_suppression()[0],
        3: cli._check_unprotected_f_av(),
        4: cli._check_eam(),
        7: cli._check_qualitative()[0],
        8: cli._check_entropy(),
    }
    results[5], results[6] = cli._branch_sample_errors()
    sizes = {1: 2000, 2: 2 * 11 * 17 - 2 * 17, 3: 204, 4: 102, 5: 480, 6: 480, 7: 2 * (45 + 2 * 36) + 81 + 2 * 2 * 36, 8: 62}
    # Locations at a few indices, in the order the checks listed them.
    wheres = {
        1: {0: "recovery-adc p=0 q_w=0", 10: "recovery-adc p=0 q_w=0.1", 1999: "all-adc p=0.9 q_w=0.9"},
        2: {0: "recovery-adc p=0 branch (1,1)", 16: "recovery-adc p=0 f_av", 17: "all-adc p=0 branch (1,1)",
            339: "all-adc p=0.9 f_av"},
        7: {0: "dominance recovery-adc p=0.1 q_w=0.1", 1: "prohibited f_av recovery-adc p=0.1 q_w=0.2",
            2: "prohibited g recovery-adc p=0.1 q_w=0.2", 314: "ordering p=0.9 q_w=0.9",
            315: "trade-off f_av recovery-adc p=0.2 q_w=0.1->0.2", 316: "trade-off g recovery-adc p=0.2 q_w=0.1->0.2",
            458: "trade-off g all-adc p=0.9 q_w=0.8->0.9"},
        8: {0: "recovery-adc p=0", 1: "all-adc p=0", 2: "ordering p=0", 52: "ordering p=1", 53: "strictness p=0.1",
            61: "strictness p=0.9"},
    }
    for num, (errors, where) in results.items():
        assert errors.dtype == np.float64 and errors.shape == (sizes[num],), num
        assert all(isinstance(where(k), str) and where(k) for k in (0, len(errors) - 1)), num
        assert {k: where(k) for k in wheres.get(num, ())} == wheres.get(num, {}), num


def test_verify_trade_off_fails_where_f_av_falls_below_p(monkeypatch):
    # Check 7's trade-off: with the first two q_w of every protected f_av
    # row swapped, f_av falls from q_w = 0.1 to 0.2 at each p >= 0.2, and
    # those steps, and no other trade-off step, fail; the note prints the
    # least margin, now positive.
    real = cli._average_fidelities

    def swapped(dist, scenario, q_ws, points):
        f_avs, g_avs = real(dist, scenario, q_ws, points)
        if not scenario.protected:
            return f_avs, g_avs
        return [f_avs[1], f_avs[0], *f_avs[2:]], g_avs

    (errors, where), note = cli._check_qualitative()
    assert note == "; least trade-off margin -0.00115"
    trade = range(315, len(errors))
    assert all(errors[k] < 0.0 for k in trade)
    monkeypatch.setattr(cli, "_average_fidelities", swapped)
    (errors, where), note = cli._check_qualitative()
    failing = {where(k) for k in trade if errors[k] > 0.0}
    grid = [0.1 * k for k in range(2, 10)]
    assert failing == {f"trade-off f_av {s.value} p={p:g} q_w=0.1->0.2" for s in cli._PROTECTED for p in grid}
    assert note == f"; least trade-off margin {max(errors[k] for k in trade):.3g}" and errors[trade].max() > 0.0


def count_folds(monkeypatch) -> dict:
    """Patch the kernel's entry and its fold stage with counters; the
    counts, by stage name."""
    counts = dict.fromkeys(("_fold_and_correct", "_fold"), 0)

    def counted(name):
        stage = getattr(protocol, name)

        def count(*args, **kwargs):
            counts[name] += 1
            return stage(*args, **kwargs)

        return count

    for name in counts:
        monkeypatch.setattr(protocol, name, counted(name))
    return counts


def test_verify_and_sweep_fold_blocks_of_p(monkeypatch, capsys):
    # Each check folds all its p in one kernel call per scenario, and the
    # sweep averages each p's f_av and g_total from one fold of its nodes;
    # every kernel call folds once. There were 326 and 102 folds when every p of a check
    # was its own call and a sweep's g_total rows were a second fold, and
    # 80 and 51 when a call folded a block of 128 rows at a time. The input
    # average folds without the branch kernel's entry, so of verify's 14
    # folds only the 6 of checks 1, 2 and 5-6 go through it, and none of
    # the sweep's.
    counts = count_folds(monkeypatch)
    checks = cli._verify_checks(10)
    assert all(err <= tol for _, err, tol, _, _ in checks)
    assert counts == {"_fold_and_correct": 6, "_fold": 14}
    counts.update(dict.fromkeys(counts, 0))
    argv = ["sweep", "--scenario", "all-adc", "--qw-mode", "grid", "--qw-steps", "11"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 51 * 11
    assert counts == {"_fold_and_correct": 0, "_fold": 51}


def test_every_folded_state_is_a_mirror_image(monkeypatch, capsys):
    """The kernel folds Bob's inputs through the map it reads off rho_12,
    which is his only when rho_34 is SWAP rho_12 SWAP (`protocol._fold`),
    and its totals-only calls and input average fold one outcome per
    Z-partner class, which sums every outcome only when outcome 2's map
    has outcome 1's A slot and its B slot negated, and outcome 4's outcome
    3's (`protocol._CLASS_FOLD_TABLE`). Every distributed state that
    reaches the fold in one verify and one fav-sweep round (both protected
    scenarios at equal p and on a two-q_w grid, both bare ones, at one p)
    is such a mirror image, bit for bit, and has such Z-partners, the A
    slots bit for bit and the B slots by value (their zeros differ in
    sign). Of verify's 14 folds the 10 of the totals-only calls and the
    input average take the class route, and so do all 6 of the round's."""
    fold, states, routes = protocol._fold, [], []

    def kept(dist, *args, **kwargs):
        states.append(dist.reshape(-1, 2, 4, 4).copy())
        routes.append(kwargs.get("classes", False))
        return fold(dist, *args, **kwargs)

    monkeypatch.setattr(protocol, "_fold", kept)
    assert main(["verify"]) == 0
    head = ["sweep", "--p-min", "0.37", "--p-max", "0.37", "--p-steps", "1", "--scenario"]
    grid = ["--qw-mode", "grid", "--qw-min", "0", "--qw-max", "0.8", "--qw-steps", "2"]
    for argv in [head + [s.value, *mode] for s in cli._PROTECTED for mode in (["--qw-mode", "equal-p"], grid)] + [
        head + [s.value] for s in cli._UNPROTECTED
    ]:
        assert main(argv) == 0
    capsys.readouterr()
    assert len(states) == 14 + 6
    assert (sum(routes[:14]), sum(routes[14:])) == (10, 6)
    pairs = np.concatenate(states)
    # SWAP rho SWAP exchanges the two qubits of each row and column index.
    mirrored = pairs[:, 0].reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 4, 4)
    assert pairs[:, 1].tobytes() == mirrored.tobytes()
    maps = np.dot(pairs[:, 0].reshape(-1, 16), protocol._FOLD_TABLE).reshape(-1, 4, 4, 2)
    for first, partner in ((0, 1), (2, 3)):
        assert maps[..., partner, 0].tobytes() == maps[..., first, 0].tobytes()
        assert np.array_equal(maps[..., partner, 1], -maps[..., first, 1])


def test_sweep_g_total_meets_its_closed_form_at_the_corners(monkeypatch, capsys):
    """The sweep's input-averaged g_total lies within 1e-12 relative of
    `g_t_*` at q_w = p = 1 - 10^-k, k = 1..15, and at q_w = 1 on the same
    p, in both protected scenarios, where the true values fall to 1e-60:
    its success integrand sums every outcome's weight, however small. The
    row totals still drop a party outcome of weight below DEGENERATE_TOL
    (ROADMAP item 7): `run_protocol`'s total_success at pops (0.3, 0.6)
    and a `--pop0 0.5` sweep's g_total are within 1e-12 relative as far
    as the input average's f_av stays finite, and 0 beyond."""
    # Every column at full precision, so a relative 1e-12 can be read.
    monkeypatch.setattr(cli, "_fmt", lambda x: "" if x is None else repr(x + 0.0))

    def g_total(argv) -> float:
        code, out, _ = run_cli(argv, capsys)
        header, (row,) = rows(out)
        assert code == 0
        return float(row[header.split(",").index("g_total")])

    for scenario, finite in PARTY_RULE_FINITE.items():
        name = cli._form_name("g_t", scenario)
        for k in range(1, 16):
            p = 1.0 - 10.0**-k
            head = ["sweep", "--scenario", scenario.value, "--p-min", repr(p), "--p-max", repr(p), "--p-steps", "1"]
            for q_w, mode in ((p, ["--qw-mode", "equal-p"]), (1.0, ["--qw", "1"])):
                where = f"{scenario.value} k={k} q_w={q_w!r}"
                form = float(_closed_forms(name, p, q_w))
                assert abs(g_total(head + mode) - form) <= 1e-12 * form, where
                rows_success = (
                    run_protocol(scenario, p, q_w, QubitInput(0.3), QubitInput(0.6)).total_success,
                    g_total(head + mode + ["--pop0", "0.5"]),
                )
                for success in rows_success:
                    if k <= finite:
                        assert abs(success - form) <= 1e-12 * form, where
                    else:
                        assert success == 0.0, where


def test_verify_builds_each_protected_state_once(monkeypatch, capsys):
    # Each check distributes all its p in one call per scenario it reads,
    # so verify makes 16 distribute calls, one per (check, scenario), and
    # `bqtsim entropy` makes 2; check 8 takes the entropies of its 106
    # distinct states from one call on their stack. Verify made 214 calls,
    # one per distinct (scenario, p), when its checks shared a map of
    # one-p calls, 292 when only checks 4 and 8 shared theirs and 410 when
    # each check built its own; check 8 made 106 entropy calls, one per
    # state.
    built, entropies = [], []
    distribute, entropy = cli.distribute, cli.entanglement_entropy_bob
    monkeypatch.setattr(cli, "distribute", lambda scenario, ps: built.append((scenario, len(ps))) or distribute(scenario, ps))
    monkeypatch.setattr(cli, "entanglement_entropy_bob", lambda states: entropies.append(len(states)) or entropy(states))
    cli._check_entropy()
    # The 51 p of `_EDGE_PS`, then the strictness p that are not among them.
    others = {0.1 * k for k in range(1, 10)} - set(cli._EDGE_PS)
    assert built == [(scenario, len(cli._EDGE_PS) + len(others)) for scenario in cli._PROTECTED]
    assert entropies == [106]
    built.clear()
    assert all(err <= tol for _, err, tol, _, _ in cli._verify_checks(10))
    # (scenarios, p per call) of each check, in the order verify runs them:
    # 2, 5-6, 1, 3, 4, 7 (protected, then bare) and 8.
    per_check = [
        (cli._PROTECTED, 11), (cli._PROTECTED, 3), (cli._PROTECTED, 10), (cli._UNPROTECTED, 51),
        (cli._PROTECTED, 51), (cli._PROTECTED, 9), (cli._UNPROTECTED, 9), (cli._PROTECTED, 53),
    ]
    assert built == [(scenario, n) for scenarios, n in per_check for scenario in scenarios]
    assert len(built) == 16
    built.clear()
    assert cli.main(["entropy"]) == 0 and len(capsys.readouterr().out.splitlines()) == 52
    assert built == [(scenario, 51) for scenario in cli._PROTECTED]


def test_verify_takes_each_reference_in_one_array_call(monkeypatch):
    # Checks 1, 3 and 4 take each scenario's closed forms from one array
    # call, and checks 5-6 each scenario's branch oracles from one call on
    # its 15 rows, one p per row. Verify made 404 scalar closed_form calls,
    # one per (p, q_w), and 12 oracle calls, one per (scenario, p).
    calls = []

    def count(module, name, shape):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append((name, *shape(*args))) or real(*args))

    count(cli, "closed_form", lambda *args: args)
    count(cli, "_closed_forms", lambda name, *args: (name, np.broadcast(*args).shape))
    for name in ("recovered_rows", "joint_prob_rows"):
        count(cli.oracles, name, lambda scenario, p, rows: (scenario, tuple(p)))
    assert all(err <= tol for _, err, tol, _, _ in cli._verify_checks(10))
    p_rows = (0.2,) * 5 + (0.5,) * 5 + (0.8,) * 5
    # In the order verify runs them: 5-6, then 1, 3 and 4.
    assert calls == [
        *((name, scenario, p_rows) for scenario in cli._PROTECTED for name in ("recovered_rows", "joint_prob_rows")),
        ("_closed_forms", "g_t_I", (10, 10)), ("_closed_forms", "g_t_II", (10, 10)),
        ("_closed_forms", "f_av_unprot_I", (51,)), ("_closed_forms", "f_av_unprot_II", (51,)),
        ("_closed_forms", "g_eam_I", (51,)), ("_closed_forms", "g_eam_II", (51,)),
    ]


def test_verify_fails_on_nan_closed_forms(monkeypatch, capsys):
    # Checks 1, 3 and 4 compare against closed forms; a NaN there must
    # surface as their error and fail them, not be passed over.
    monkeypatch.setattr(cli, "_closed_forms", lambda name, p, q_w=0.0: np.full(np.broadcast(p, q_w).shape, math.nan))
    code, out, _ = run_cli(["verify", "--grid", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    for num in (1, 3, 4):
        assert lines[num - 1].startswith(f"[{num}/8]")
        assert "max error nan " in lines[num - 1] and lines[num - 1].endswith(" FAIL")
    assert lines[-1] == "verify: 5/8 checks passed"


# -------------------------------------------------------------- parsing


def stub_commands(monkeypatch) -> list:
    """Swap every cmd_* for a stub that records the Namespace it is called
    with and returns 0; the list of those Namespaces."""
    seen = []
    for name in ("cmd_sweep", "cmd_branches", "cmd_verify", "cmd_entropy"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    return seen


COMMAND_ARGV = [
    ["sweep", "--scenario", "all-adc", "--p-min", "0.37", "--p-max", "0.37", "--p-steps", "1",
     "--qw-mode", "grid", "--qw-min", "0", "--qw-max", "0.8", "--qw-steps", "2", "--out", "x.csv"],
    ["branches", "--scenario", "recovery-adc", "--p", "0.3", "--qw", "0.1", "--bob-phase", "1.5"],
    ["verify", "--grid", "3"],
    ["entropy", "--p-steps", "5"],
]


def test_command_argv_is_parsed_once(monkeypatch):
    # A plain argv (a command, then exact `--option value` pairs) is read
    # off the command's option table with no argparse parse; an abbreviated
    # or `--opt=value` argv takes exactly the full parse, one top-level call
    # and the one nested in it.
    seen = stub_commands(monkeypatch)
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in COMMAND_ARGV:
        calls.clear()
        assert main(argv) == 0
        assert calls == []
    for argv in (["sweep", "--scen", "all-adc", "--p-st", "3"], ["entropy", "--p-steps=5"]):
        calls.clear()
        assert main(argv) == 0
        assert calls == ["bqtsim", f"bqtsim {argv[0]}"]
    assert [args.command for args in seen] == [argv[0] for argv in COMMAND_ARGV] + ["sweep", "entropy"]


# Command lines that exercise argparse itself, each parsed by main and by
# the full parser, which is the reference.
PARITY_ARGV = COMMAND_ARGV + [
    [],
    ["frobnicate"],
    ["-h"],
    ["--help", "sweep"],
    ["sweep", "-h"],
    ["verify", "--help"],
    ["--grid", "3"],
    ["sweep", "--scenario", "all-adc", "--bogus"],
    ["sweep", "--scenario", "all-adc", "-h", "--bogus"],
    ["branches", "--scenario", "all-adc", "--p", "x"],
    ["branches", "--scenario", "all-adc", "--p", "-0.5"],
    ["verify", "--grid", "2.5"],
    ["sweep", "--scenario", "no-such-scenario"],
    ["sweep", "--scenario", "all-adc", "--qw-mode", "both"],
    ["sweep"],
    ["branches", "--scenario", "all-adc"],
    ["verify", "extra"],
    ["entropy", "--p-steps", "5", "extra", "--bogus=1"],
    ["sweep", "--scenario", "all-adc", "--", "x"],
    ["sweep", "--", "--scenario", "all-adc"],
    ["verify", "--"],
    ["sweep", "--scen", "all-adc", "--p-st", "3", "--qw-m", "equal-p"],
    ["sweep", "--scenario", "all-adc", "--p", "0.3"],
    ["sweep", "--scenario=all-adc", "--p-steps=2", "--out=x.csv"],
    ["entropy", "--p-steps=5", "--p-steps", "7"],
    ["sweep", "--scenario", "all-adc", "--out"],
    ["branches", "--scenario", "all-adc", "--p", "0.3", "--alice-pop0", "0.2", "--al", "0.1"],
    # The plain path's edges: repeated options, an odd token count, values
    # that are empty, start with "-" or are "--", and values that a type or
    # a choice refuses or that only look like another type.
    ["sweep", "--scenario", "all-adc", "--p-steps", "3", "--p-steps", "4"],
    ["sweep", "--scenario", "all-adc", "--p-steps"],
    ["sweep", "--scenario", "all-adc", "--p-steps", "3", "--p-min"],
    ["sweep", "--scenario", "all-adc", "--out", ""],
    ["sweep", "--scenario", "all-adc", "--out", "-x.csv"],
    ["sweep", "--scenario", "all-adc", "--out", "--p-min"],
    ["sweep", "--scenario", "all-adc", "--out", "--"],
    ["sweep", "--scenario", "all-adc", "--p-steps", "2.0"],
    ["sweep", "--scenario", "all-adc", "--p-min", "nan"],
    ["sweep", "--scenario", "all-adc", "--p-min", " 0.5"],
    ["sweep", "--scenario", "all-adc", "--p-max", "1_0"],
    ["sweep", "--scenario", "All-ADC"],
    ["verify"],
]


def outcome(call, argv) -> tuple:
    """Exit status, stdout, stderr and the Namespace of one parse, as its
    repr, so that the order of its attributes counts and a NaN value
    equals itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = call(argv), 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), repr(args)


def assert_parses_as_the_full_parser(argv, monkeypatch):
    # The same status and bytes as the full parse, and, for a valid argv,
    # the same Namespace in the command, `command` included.
    monkeypatch.setenv("COLUMNS", "80")
    seen = stub_commands(monkeypatch)

    def via_main(argv):
        assert main(list(argv)) == 0
        return seen.pop()

    want = outcome(cli.build_parser().parse_args, list(argv))
    assert outcome(via_main, argv) == want
    assert seen == []


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, monkeypatch):
    assert_parses_as_the_full_parser(argv, monkeypatch)


def drawn_tokens(sub: argparse.ArgumentParser) -> tuple:
    """The pieces an argv of `sub` is drawn from: its required options, each
    with a value it takes; `--option value` pairs, twelve of a value the
    option takes to one of each edge value; and faults, each a lone token:
    an option string, an abbreviation, an `--option=value` or a value."""
    edges = ["", "-x.csv", "--p-min", "--", "2.0", "nan", " 0.5", "1_0", "All-ADC", "-0.5"]
    stores = [a for a in sub._actions if isinstance(a, argparse._StoreAction)]
    takes = {a: list(a.choices or {int: ["3"], float: ["0.25", "1"], None: ["x.csv"]}[a.type]) for a in stores}
    required = [[a.option_strings[0], takes[a][0]] for a in stores if a.required]
    pairs = [[s, v] for a in stores for s in a.option_strings for v in 12 * takes[a] + edges]
    options = [s for a in sub._actions for s in a.option_strings]
    faults = options + [s[:k] for s in options if s.startswith("--") for k in range(3, len(s))]
    faults += [f"{s}={v}" for s, v in pairs] + edges
    return required, pairs, [[token] for token in faults]


DRAWN_TOKENS = {
    name: drawn_tokens(sub)
    for name, sub in next(
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).items()
}


@st.composite
def drawn_argvs(draw) -> list:
    """A command; its required options, or not; up to four drawn pairs;
    and, in about half the draws, one fault at a drawn place."""
    command = draw(st.sampled_from(sorted(DRAWN_TOKENS)))
    required, pairs, faults = DRAWN_TOKENS[command]
    argv = [command] + (sum(required, []) if draw(st.booleans()) else [])
    for k in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4)):
        argv += pairs[k]
    if draw(st.booleans()):
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = faults[draw(st.integers(0, len(faults) - 1))]
    return argv


@seed(20261021)
@settings(database=None, deadline=None, max_examples=300, derandomize=True)
@given(drawn_argvs())
def test_main_parses_drawn_argvs_as_the_full_parser(argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_parses_as_the_full_parser(argv, monkeypatch)
