"""Structural self-test of the benchmark at tiny sizes; it never checks speed.

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed; that every workload prints
every end-to-end metric with its unit and its failed_ratio with the
denominator; that a traced run prints every per-layer metric with its unit
and marks absent targets; that a tracer given a missing target reports it
absent instead of failing; that inputs are reproducible from the seed; and
that the benchmark fails without printing a result when the program is
missing. Verify is run untraced only, since its size is fixed by the
program and the per-layer names are the same for every workload.
Takes about half a minute.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS, input_digest, load_program  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
problems: list = []


def expect(cond: bool, msg: str) -> None:
    if not cond:
        problems.append(msg)
        print(f"FAIL: {msg}")


def check_manifest(bench: dict) -> None:
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "manifest keys")
    expect(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128, "metric counts")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    expect(len(names) == len(set(names)), "names used once")
    for n in names:
        expect(bool(NAME.match(n)), f"name {n!r}")
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w['name']}")
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"end_to_end {m['name']}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(bool(UNIT.match(m["unit"])) and m["better"] in ("lower", "higher"), f"unit/better of {m['name']}")
    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s metric")
    expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]), "setup_s has the largest bound")
    expect(list(WORKLOADS) == [w["name"] for w in bench["workloads"]], "workloads match workloads.py")


def run(bench: dict, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(bench: dict, workload: str, trace: int) -> None:
    proc = run(bench, workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{tag} exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    if proc.returncode != 0:
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(list(result) == ["correct", "attempted", "failed", "metrics"], f"{tag} result keys")
    expect(isinstance(result["correct"], bool), f"{tag} correct is a bool")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag} attempted")
    expect(isinstance(result["failed"], int), f"{tag} failed")
    declared = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in declared}, f"{tag} metric names: {set(got) ^ {m['name'] for m in declared}}")
    for m in declared:
        v = got.get(m["name"], {})
        expect(v.get("unit") == m["unit"], f"{tag} unit of {m['name']}")
        expect(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"]), f"{tag} value of {m['name']}")
    ratio = f"{workload}: failed_ratio .* \\({result['failed']}/{result['attempted']} checked outputs\\)"
    expect(any(re.fullmatch(ratio, line) for line in lines), f"{tag} failed_ratio line with its denominator")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    expect(env["inputs_sha256"] == input_digest(workload, 3, tiny=True), f"{tag} input digest")
    for key in ("python", "numpy", "blas", "blas_threads_set", "nproc", "seed"):
        expect(key in env, f"{tag} env record has {key}")
    if trace:
        absent = next((line for line in lines if line.startswith("absent targets: ")), None)
        expect(absent is not None, f"{tag} marks absent targets")


def check_tracer_absent() -> None:
    bq = load_program(ROOT / "src")
    saved = tracer.TARGETS
    tracer.TARGETS = saved + ("linalg.no_such_function",)
    try:
        t = tracer.Tracer()
        expect(t.absent == ["linalg.no_such_function"], f"absent targets {t.absent}")
        t.install()
        try:
            bq.run_protocol(bq.Scenario("recovery-adc"), 0.3, 0.2, bq.QubitInput(0.4), bq.QubitInput(0.6))
        finally:
            t.uninstall()
        per = t.per_round(0, t.mark())
        expect(per.get("linalg.no_such_function.calls") == 0, "absent target reported with zero calls")
        expect(per.get("protocol.run_protocol.calls") == 1, "run_protocol traced through the package binding")
        expect(per.get("protocol.distribute.calls") == 1, "distribute traced through the protocol binding")
        expect(bq.run_protocol is not None and not hasattr(bq.run_protocol, "__wrapped__"), "uninstall restores bindings")
    finally:
        tracer.TARGETS = saved


def check_digests() -> None:
    for name in ("point-mc", "fav-sweep"):
        a, b = input_digest(name, 11), input_digest(name, 11)
        expect(a == b, f"{name} digest reproducible")
        expect(a != input_digest(name, 12), f"{name} digest depends on the seed")


def check_bare_directory(bench: dict) -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bench, "point-mc", 0, cwd=bare)
    expect(proc.returncode != 0, "bare directory run fails")
    expect(not any(line.startswith("{") for line in proc.stdout.splitlines()), "bare directory run prints no result")
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(bench)
    check_tracer_absent()
    check_digests()
    check_bare_directory(bench)
    for workload in WORKLOADS:
        check_output(bench, workload, 0)
        if workload != "verify":
            check_output(bench, workload, 1)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
