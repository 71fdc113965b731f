"""Run the benchmark over several seeds and report the spread of each metric.

    python3 bench/prove.py --workloads point-mc verify --seeds 1-10
    python3 bench/prove.py --seeds 1-10 --out bench/trajectory/NN-name.json
    python3 bench/prove.py --seeds 100-109 --against bench/trajectory/00-seed.json

Runs are sequential, one process at a time, with BENCHMARK.json's command
and run_seconds. For every end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median, and marks a spread above a third of the metric's bound
(setup_s exempt). With --against, it also prints the median's change
against a recorded file as a share of that file's median, next to the
bound. --out records every run's environment and result line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int) -> tuple:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    parser.add_argument("--label", default="", help="free text stored with --out")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    previous = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"label": args.label, "command": bench["command"], "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            env, result = run_once(bench, workload, seed)
            runs.append({"seed": seed, "env": env, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs], bound)
            summary[name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
                steady = False
            line = (f"  {workload:9s} {name:12s} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                    f"spread {s['spread']:.4f} bound {bound}{flag}")
            if workload in previous:
                before = previous[workload]["summary"][name]["median"]
                line += f"  change vs against {(s['median'] - before) / before:+.4f}"
            print(line, flush=True)
        if any(not r["result"]["correct"] for r in runs):
            steady = False
            print(f"  {workload}: some runs were not correct", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
