"""Benchmark of the stiefel-sync program, driven from outside through
``stiefel_sync.cli.main`` with the arguments a user types.

    python3 perfbench/run.py --workload pair_audit --seed 1 --seconds 35 --trace 0

Run from anywhere; it works on the checkout that holds this directory, and
reads and writes only there (``.perfbench_work/``). Workloads: pair_audit,
sweep, csv_reaudit (see README.md). The inputs are made from ``--seed``.

With ``--trace 0`` it reports the end-to-end metrics: set-up time, the wall
time of a round and the median wall time of one operation, both in units of
a reference computation timed around each operation (see worker.py), and
the peak memory that the operations add to the process that runs them. With ``--trace 1``
it reports the per-layer metrics of traced rounds, interleaved with
untraced ones so that the tracing overhead is stated. Every operation's
outputs are checked after the timed rounds. The last line of standard
output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Without the program's source (``src/stiefel_sync``) it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"

# set-up is timed in this many fresh interpreters, after one untimed probe
# that fills the file cache and compiles the bytecode
SETUP_PROBES = 9
# a run must end within 180 s; set-up and checks take about 15 s
WORKER_TIMEOUT = 140


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def measure_setup(configs: list[str]) -> float:
    def probe() -> float:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *configs],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    probe()
    return statistics.median(probe() for _ in range(SETUP_PROBES))


def run_worker(work: str, ops, seconds: int, trace: bool) -> dict:
    plan = {
        "src": SRC,
        "ops": [{"argv": op.argv, "outputs": op.outputs} for op in ops],
        "seconds": seconds,
        "trace": trace,
        "spans": os.path.join(work, "spans.tsv"),
    }
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as handle:
        json.dump(plan, handle)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
        timeout=WORKER_TIMEOUT,
        check=True,
    )
    with open(result_path) as handle:
        return json.load(handle)


def check_ops(workload, result: dict) -> tuple[int, list[str]]:
    """Failed operations and the reasons. An operation fails in every round
    when its outputs fail a check; repeats must match the first round's
    exit code, standard output and output files byte for byte."""
    failed = 0
    reasons = []
    for index, first in enumerate(result["first"]):
        problems = [
            f"round {r['round']} differs from round 0"
            for r in result["differs"]
            if r["op"] == index
        ]
        try:
            problems += workload.check(index, first)
        except Exception as exc:  # a missing or malformed output fails the check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        if problems:
            failed += result["rounds"]
            argv = " ".join(workload.ops[index].argv)
            reasons += [f"op {index} ({argv}): {p}" for p in problems]
            if first["err"]:
                reasons.append(f"op {index} stderr: {first['err'].strip()[-2000:]}")
    return failed, reasons


def layer_metrics(result: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced rounds, with the counts required to repeat
    exactly, and the tracing overhead against the untraced rounds."""
    import tracer

    layers = result["layers"]
    problems = []
    for name in tracer.COUNTS:
        if len({round_[name] for round_ in layers}) != 1:
            problems.append(f"{name} differs between traced rounds")
    first = layers[0]
    if first["model.rhs_calls"] != 4 * first["integrate.steps"]:
        problems.append(
            f"model.rhs_calls {first['model.rhs_calls']} != 4 x integrate.steps"
            f" {first['integrate.steps']}"
        )
    metrics = {name: statistics.median(r[name] for r in layers) for name in first}
    traced = statistics.median(result["traced_walls"])
    untraced = statistics.median(result["walls"])
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stiefel_sync", "__init__.py")):
        print(f"error: the program's source is missing: {SRC}/stiefel_sync", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import stiefel_sync

    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(stiefel_sync.__file__))) != SRC:
        print(f"error: stiefel_sync imported from {stiefel_sync.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_s = None if args.trace else measure_setup(workload.configs)
    result = run_worker(work, workload.ops, args.seconds, bool(args.trace))

    failed, reasons = check_ops(workload, result)
    if args.trace:
        metrics, problems = layer_metrics(result)
        reasons += problems
    else:
        problems = []
        metrics = {
            "setup_s": setup_s,
            "wall_rel": statistics.median(result["relative_walls"]),
            "op_p50_rel": statistics.median(result["relative"]),
            "peak_rss_mb": result["added_rss_kb"] / 1024.0,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    for reason in reasons:
        print(f"FAIL {reason}", file=sys.stderr)

    attempted = len(result["seconds"])
    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  (seconds, not normalised: round {statistics.median(result['walls']):.4g}, "
              f"operation {statistics.median(result['seconds']):.4g})")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
