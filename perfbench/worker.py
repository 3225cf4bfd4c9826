"""Run a workload's operations in a fresh interpreter and record them.

    python3 perfbench/worker.py <plan.json> <result.json>

The plan names the program's source directory, the operations (argument
lists for ``stiefel_sync.cli.main`` and the files each writes), the run
length in seconds, whether to trace, and where to write the spans. The
worker runs the first operation once untimed, then whole rounds until the
run length is spent, at least two. With tracing, rounds alternate between
untraced and traced. The result holds every operation's wall time, the
first round's exit codes, outputs and output digests, any later call whose
exit code, output or digests differ from them, the round wall times, the per-layer metrics
of each traced round and the peak resident memory the operations add to
the process once the program is imported.

A fixed reference computation, apart from the program, is timed before the
first operation and after every operation. Each operation's time is also
given relative to the mean of the two reference times around it: the shared
machine's speed swings by up to 1.7 times within a run, and the ratio
cancels most of a swing that lasts longer than one operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from array import array

import numpy as np

MIN_ROUNDS = 2
# iterations of the reference computation, 20-30 ms on a 2-vCPU Xeon VM
REFERENCE_ITERATIONS = 1000


def reference_seconds() -> float:
    """Time a fixed computation of the same kind as the program's stepping:
    a Python loop of small batched matrix products, a thin SVD and an
    update, on arrays made from a fixed seed. Nothing of the program runs
    in it."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4, 2))
    mix = rng.standard_normal((4, 4)) / 4.0
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        y = mix @ x - 0.5 * (x @ (x.transpose(0, 2, 1) @ x))
        np.linalg.svd(x[0] + 1e-3 * y[0], full_matrices=False)
        x = x + 1e-9 * y
    return time.perf_counter() - start


def digest(paths: list[str]) -> dict[str, str]:
    out = {}
    for path in paths:
        with open(path, "rb") as handle:
            out[path] = hashlib.sha256(handle.read()).hexdigest()
    return out


def hwm_kb() -> int:
    """This process's peak resident memory in kB (Linux ``VmHWM``). Unlike
    ``ru_maxrss`` it does not start from the high-water mark of the parent
    that forked the process."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM")


class Calls:
    """The operations' wall times, in call order, and the first round's
    record of each operation. A later call is kept only if its exit code,
    standard output or output digests differ from the first round's, so the
    memory held does not grow with the number of rounds and the process's
    peak memory stays that of the program."""

    def __init__(self):
        self.seconds = array("d")
        self.relative = array("d")
        self.first: list[dict] = []
        self.differs: list[dict] = []

    def add(self, op, round_, code, out, err, seconds, relative, digests) -> None:
        self.seconds.append(seconds)
        self.relative.append(relative)
        record = {"op": op, "round": round_, "code": code, "out": out, "err": err,
                  "digest": digests}
        if round_ == 0:
            self.first.append(record)
        elif (code, out, digests) != tuple(self.first[op][k] for k in ("code", "out", "digest")):
            self.differs.append(record)

    def result(self, rounds: int) -> dict:
        return {"rounds": rounds, "seconds": list(self.seconds),
                "relative": list(self.relative), "first": self.first, "differs": self.differs}


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    from stiefel_sync import cli

    import tracer as tracing

    # the operations' memory is measured above the imported program
    imported_kb = hwm_kb()

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            code = cli.main(argv, out=out, err=err)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start

    ops = plan["ops"]
    call(ops[0]["argv"])
    reference_seconds()
    calls = Calls()
    walls, relative_walls, traced_walls, layers = [], [], [], []
    spans = []
    deadline = time.perf_counter() + plan["seconds"]
    rounds = 0
    before = reference_seconds()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        tracer = None
        if plan["trace"] and rounds % 2 == 1:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        wall = relative_wall = 0.0
        try:
            for index, op in enumerate(ops):
                if tracer is None:
                    code, out, err, seconds = call(op["argv"])
                else:
                    code, out, err, seconds = tracer.call_op(index + 1, call, op["argv"])
                after = reference_seconds()
                relative = seconds / (0.5 * (before + after))
                before = after
                wall += seconds
                relative_wall += relative
                calls.add(index, rounds, code, out, err, seconds, relative,
                          digest(op["outputs"]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            walls.append(wall)
            relative_walls.append(relative_wall)
        else:
            traced_walls.append(wall)
            layers.append(tracing.round_metrics(tracer.spans))
            spans = tracer.spans
        rounds += 1

    if spans:
        tracing.write_spans(spans, plan["spans"])
    result = {
        **calls.result(rounds),
        "walls": walls,
        "relative_walls": relative_walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "added_rss_kb": hwm_kb() - imported_kb,
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
