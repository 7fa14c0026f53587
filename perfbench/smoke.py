"""Smoke check of the benchmark at a tiny length.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with `--seconds 1`, one
run at a time, and checks that:
- the last line has exactly the keys `correct`, `attempted`, `failed` and
  `metrics`, is correct, and failed nothing;
- every metric BENCHMARK.json names is emitted with its unit, and no other;
- `layers.json` names the same per-layer metrics as BENCHMARK.json, and each
  layer is called on exactly the workloads it lists in `runs_on`;
- the traced run's output digest equals the untraced run's;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "42", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, proc, problems: list[str]) -> dict:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last line has keys {sorted(result)}")
        return {}
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = BENCH["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or (not trace and v <= 0):
            problems.append(f"{where}: {name} = {v!r}")
    details = next(json.loads(line[len("details: "):]) for line in lines
                   if line.startswith("details: "))
    return {"metrics": {n: m["value"] for n, m in result["metrics"].items()},
            "digest": details["digest"]}


def main() -> int:
    problems: list[str] = []
    listed = [f"{entry['layer']}.{s}" for entry in LAYERS for s in entry["stats"]]
    if listed != [m["name"] for m in BENCH["per_layer"]]:
        problems.append("layers.json and BENCHMARK.json list different per-layer metrics")

    for workload in (w["name"] for w in BENCH["workloads"]):
        untraced = check_result(workload, 0, run(workload, 0), problems)
        traced = check_result(workload, 1, run(workload, 1), problems)
        print(f"{workload}: done", flush=True)
        if not untraced or not traced:
            continue
        if untraced["digest"] != traced["digest"]:
            problems.append(f"{workload}: traced and untraced runs gave different outputs")
        for entry in LAYERS:
            key = f"{entry['layer']}.{entry['stats'][0]}"
            ran = traced["metrics"].get(key, 0) > 0
            if ran != (workload in entry["runs_on"]):
                problems.append(f"{workload}: {key} = {traced['metrics'].get(key)}, "
                                f"but runs_on is {entry['runs_on']}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-smoke-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        workload = BENCH["workloads"][0]["name"]
        proc = run(workload, 0, cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the source tree the benchmark did not fail cleanly")

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} failed checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
