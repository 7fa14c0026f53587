"""signolearn benchmark: one workload, one process, no worker threads.

    python3 perfbench/run.py --workload sr-multi-term --seed 42 --seconds 20 --trace 0

Run it from the repository root; it imports signolearn from `src/` there and
from nowhere else. With `--trace 0` it repeats the workload's set-up, warms
up, then times passes of identical work until `--seconds` is used up, and
reports the end-to-end metrics named in `BENCHMARK.json` as medians over
set-ups and passes. Times are at reference speed (see meter.py); the raw
ones are among the details. With `--trace 1` it runs one untraced pass,
then twice a traced set-up plus pass, and reports the per-layer metrics:
counts from the first traced pass, which must equal the second, and raw
self times as medians of the two.

Every metric is printed with its unit, followed by the run's details,
provenance and failed checks; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from meter import Meter, Op
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ".perfbench-work"  # relative to ROOT; removed when the run ends
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 2000
TRACED_PASSES = 2


def _import_package():
    """Import signolearn from ROOT/src; None when that tree is not there."""
    src = ROOT / "src"
    if not (src / "signolearn" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import signolearn

    if Path(signolearn.__file__).resolve().parent != src / "signolearn":
        return None
    return signolearn


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance() -> dict:
    import numpy as np

    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "num_threads_env": threads,
        "SIGNOLEARN_THREADS": os.environ.get("SIGNOLEARN_THREADS"),
        "signolearn_threads_pool": (
            "bypassed: workloads call evaluate_recovery and `search` directly; "
            "only the `benchmark` subcommand uses that pool"
        ),
        "platform": platform.platform(),
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _time_setups(workload, seed: int, meter: Meter, problems: list[str]):
    """Repeat set-up until it has run enough; returns (its ops, the state)."""
    first, fingerprints = len(meter.ops), set()
    while True:
        with meter.op("setup"):
            state = workload.setup(seed)
        fingerprints.add(state.fingerprint)
        ops = meter.ops[first:]
        spent = sum(op.wall_s for op in ops)
        if len(ops) >= SETUP_MAX_REPS or (
            len(ops) >= SETUP_MIN_REPS and spent >= SETUP_MIN_SECONDS
        ):
            break
    if len(fingerprints) != 1:
        problems.append("set-up is not deterministic: repeated set-ups differ")
    return ops, state


@dataclass
class Pass:
    result: object  # workloads.PassResult
    ops: list[Op]
    elapsed_s: float  # wall time, probes and bookkeeping included


def _run_pass(workload, state, meter: Meter) -> Pass:
    first, t0 = len(meter.ops), time.perf_counter()
    result = workload.run(state, meter)
    meter.probe()  # brackets the pass's last operation
    return Pass(result, meter.ops[first:], time.perf_counter() - t0)


def _check_digests(passes: list[Pass], problems: list[str], what: str) -> None:
    digests = {p.result.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"{what}: passes of identical work gave {len(digests)} output digests")


def measure(workload, seed: int, seconds: float, problems: list[str]):
    """Untraced run: returns (end-to-end metrics, passes, details)."""
    meter = Meter()
    setups, state = _time_setups(workload, seed, meter, problems)
    workload.warm_up(state)  # first calls run slower; users pay that once
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(workload, state, meter))
        if len(passes) > 1:
            passes[-1].result.outputs = None  # only the first pass is verified
        typical = statistics.median(p.elapsed_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    problems += workload.verify(state, passes[0].result)
    _check_digests(passes, problems, "untraced run")
    if not math.isfinite(passes[0].result.quality):
        problems.append("no operation produced a quality figure")

    name = workload.op_name
    ops = [op for p in passes for op in p.ops if op.kind == name]
    metrics = {
        "setup_s": statistics.median(meter.each(setups)),
        "wall_s": statistics.median(meter.total(p.ops) for p in passes),
        "cpu_s": statistics.median(meter.total(p.ops, "cpu_s") for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": passes[0].result.quality,
    }
    details = {
        key: statistics.median(p.result.details[key] for p in passes)
        for key in passes[0].result.details
    }
    details.update({
        f"{name}_p50_ms": 1000.0 * statistics.median(meter.each(ops)),
        "raw_setup_s": statistics.median(meter.each(setups, ref=False)),
        "raw_wall_s": statistics.median(meter.total(p.ops, ref=False) for p in passes),
        "raw_cpu_s": statistics.median(meter.total(p.ops, "cpu_s", ref=False) for p in passes),
        f"raw_{name}_p50_ms": 1000.0 * statistics.median(meter.each(ops, ref=False)),
        "reference_speed": meter.speed(),
        "setups": len(setups),
        "passes": len(passes),
        "ops_per_pass": len(ops) // len(passes),
        "digest": passes[0].result.digest,
    })
    if len(ops) >= 1000:  # at least ten samples above the 99th percentile
        details[f"{name}_p99_ms"] = 1000.0 * _percentile(meter.each(ops), 0.99)
    return metrics, [p.result for p in passes], details


def trace(workload, seed: int, layer_names: list[str], problems: list[str]):
    """Traced run: returns (per-layer metrics, passes, details)."""
    meter = Meter()
    state = workload.setup(seed)
    base = _run_pass(workload, state, meter)
    passes, summaries = [base], []
    for _ in range(TRACED_PASSES):
        with Tracer() as tracer:
            passes.append(_run_pass(workload, workload.setup(seed), meter))
        summaries.append(tracer.summary())
    problems += workload.verify(state, base.result)
    _check_digests(passes, problems, "traced run (untraced pass first)")

    def counts(summary):
        return {k: v for k, v in summary.items() if not k.endswith(".self_s")}

    if any(counts(s) != counts(summaries[0]) for s in summaries):
        problems.append("traced passes of identical work gave different counts")

    first = summaries[0]
    traced_s = [meter.total(p.ops) for p in passes[1:]]
    metrics = {}
    for name in layer_names:
        if name == "trace.overhead_frac":
            metrics[name] = statistics.median(traced_s) / meter.total(base.ops)
        elif name == "signomial.evaluate.per_row":
            rows = passes[1].result.rows
            metrics[name] = first.get("signomial.evaluate.calls", 0) / rows if rows else 0.0
        elif name.endswith(".self_s"):
            metrics[name] = statistics.median(s.get(name, 0.0) for s in summaries)
        else:
            metrics[name] = first.get(name, 0)
    details = {
        "untraced_pass_s": meter.total(base.ops),
        "traced_pass_s": traced_s,
        "layers_seen": sorted({k.rsplit(".", 1)[0] for k in first}),
        "digest": base.result.digest,
    }
    return metrics, [p.result for p in passes], details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if _import_package() is None:
        print(f"error: no signolearn source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    os.chdir(ROOT)  # workload paths are relative so outputs match across checkouts
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.mkdir(WORKDIR)
    problems: list[str] = []
    try:
        workload = workloads.make(args.workload, WORKDIR)
        if args.trace:
            declared = bench["per_layer"]
            metrics, passes, details = trace(
                workload, args.seed, [m["name"] for m in declared], problems
            )
        else:
            declared = bench["end_to_end"]
            metrics, passes, details = measure(workload, args.seed, seconds, problems)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print("details: " + json.dumps(details, sort_keys=True))
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print("checks: " + json.dumps(problems or ["all passed"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
