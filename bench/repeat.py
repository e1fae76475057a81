#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's median and spread.

    python3 bench/repeat.py --workload grid --seeds 1-10 [--seconds 20] [--trace 0]

Runs bench/run.py once per seed, one run at a time, and prints for every
metric the median, the quartiles and the quartile spread as a share of the
median (quartiles as ``statistics.quantiles(values, n=4)`` gives them).
The raw result lines are kept in ``.bench_out/repeat-<workload>-trace<t>.jsonl``.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    OUT.mkdir(exist_ok=True)
    lines = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append(last)
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} failed={last['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in last["metrics"].items()), flush=True)
    with open(OUT / f"repeat-{args.workload}-trace{args.trace}.jsonl", "w") as fh:
        for last in lines:
            fh.write(json.dumps(last) + "\n")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in lines[0]["metrics"]:
        values = [last["metrics"][name]["value"] for last in lines]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
