#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload hdr-train --seeds 1-10

Runs the benchmark once per seed (each in a fresh process, one at a time),
then prints for every end-to-end metric its median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound from BENCHMARK.json.  A benchmark is steady when each
spread except setup_s's is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def iqr_share(values: list) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--json", type=Path, help="also write every run's result to this file")
    args = p.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        results.append(res)

    print(f"{'metric':14s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        share = iqr_share(values) if len(values) > 1 else float("nan")
        flag = "" if share < m["bound"] / 3 else "  above bound/3"
        print(f"{m['name']:14s} {statistics.median(values):12.6g} {share:11.4f} "
              f"{m['bound']:6.2f}{flag}")
    print(f"all correct: {all(r['correct'] for r in results)}")
    if args.json:
        args.json.write_text(json.dumps(dict(workload=args.workload, seconds=args.seconds,
                                             results=results), indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
