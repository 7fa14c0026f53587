"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload iris-train --seeds 1..10 [--out runs.json]
    python3 perfbench/spread.py --compare first.json second.json

The first form runs `run.py --trace 0` once per seed, one run at a time, and
prints for each metric the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
The second form compares the medians of two saved sets against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = map(int, text.split(".."))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"seed {seed}: incorrect or failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def report(runs: list[dict]) -> None:
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, spec in BOUNDS.items():
        med, q1, q3, s = spread([r[name] for r in runs])
        flag = "" if s < spec["bound"] / 3 else ("  over bound/3" if s <= spec["bound"] else "  OVER BOUND")
        print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f} {spec['bound']:>6}{flag}")


def compare(first: list[dict], second: list[dict]) -> None:
    print(f"{'metric':<14} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
    for name, spec in BOUNDS.items():
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in second)
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        flag = "" if worse <= spec["bound"] else "  OVER BOUND"
        print(f"{name:<14} {a:>12.6g} {b:>12.6g} {worse:>9.4f} {spec['bound']:>6}{flag}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--out", help="save the per-seed metrics as JSON")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second)
        return
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    report(runs)


if __name__ == "__main__":
    main()
