"""Span tracing of the calls into the program's layers.

The tracer wraps each traced function where the calling layer binds it (a
module attribute such as ``stiefel_sync.integrate.rhs``), so nothing under
``src/`` changes. Every call records a span: its operation id, its own id,
the id of the span that caused it, a name, a start and an end in
nanoseconds, and an optional count (rows, bytes or steps). Spans are held in
memory; :func:`round_metrics` turns the spans of one round into the
per-layer metrics.

A parent is found through a per-thread stack. Calls made in the program's
thread pool start with an empty stack, so their parent is the root span of
the operation that started the pool.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# span names counted as audits; only the outermost audit span of a nest is
# added to diagnostics.audit_s, because the in-memory audits call the
# series-level cores
AUDIT = "diagnostics.audit"


class Tracer:
    """Collects spans of the calls into the program while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.op = 0
        self.root = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a traced version. ``count`` maps
        (args, result) to the amount recorded with the span."""
        raw = vars(owner)[attr]
        target = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer.root
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            # counted after the end time, so counting is not the call's time
            amount = None if count is None else count(args, result)
            tracer.spans.append((tracer.op, span_id, parent, name, start, end, amount))
            return result

        traced.__wrapped__ = target
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def call_op(self, op: int, fn, *args):
        """Run one operation as the root span ``cli.main``."""
        self.op = op
        self.root = next(self._ids)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.spans.append((op, self.root, 0, "cli.main", start, end, None))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer calls, where it binds them."""
    # the package re-exports a function named ``integrate``, which hides the
    # submodule of that name, so modules are taken from the import system
    cli, diagnostics, integrate, scenario = (
        importlib.import_module(f"stiefel_sync.{name}")
        for name in ("cli", "diagnostics", "integrate", "scenario")
    )
    Scenario = scenario.Scenario

    def steps(args, result):
        # the steps taken, read from the trajectory the program returns: the
        # final step is always recorded, at time steps * h
        return int(round(float(result.times[-1]) / args[2].h))

    def rows_and_bytes(args, _result):
        return (len(args[0]), os.path.getsize(args[2]))

    def rows_read(_args, result):
        return len(next(iter(result.values())))

    tracer.wrap(cli, "run_scenario", "scenario.run_scenario")
    tracer.wrap(cli, "read_series", "series_io.read", rows_read)
    tracer.wrap(Scenario, "from_file", "scenario.build")
    tracer.wrap(scenario, "integrate", "integrate.integrate", steps)
    tracer.wrap(scenario, "emit_series", "series_io.emit", rows_and_bytes)
    tracer.wrap(scenario, "potential", "model.potential")
    tracer.wrap(scenario, "contraction_slack", "model.slack")
    tracer.wrap(integrate, "rhs", "model.rhs")
    tracer.wrap(integrate, "_polar_unchecked", "linalg.polar")
    tracer.wrap(integrate, "orthonormality_drift", "manifold.drift")
    tracer.wrap(integrate, "ensemble_diameter", "manifold.diameter")
    tracer.wrap(diagnostics, "contraction_slack", "model.slack")
    tracer.wrap(diagnostics, "correlation_gap_series", "diagnostics.gap_series")
    tracer.wrap(diagnostics, "consensus_status", "diagnostics.consensus")
    for audit in (
        "audit_diameter_bound",
        "audit_correlation_contraction",
        "audit_agent_distance_bound",
        "audit_diameter_bound_series",
        "audit_correlation_contraction_series",
        "audit_agent_distance_bound_series",
    ):
        tracer.wrap(diagnostics, audit, AUDIT)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans: list[tuple]) -> dict:
    """Per span name: calls, total and self nanoseconds, and summed counts.

    Also the number of pair runs (scenario spans with two integrations) and
    the outermost audit time."""
    children = defaultdict(list)
    names = {}
    for op, span_id, parent, name, start, end, _ in spans:
        children[(op, parent)].append((start, end))
        names[(op, span_id)] = name
    totals = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "amount": 0, "bytes": 0})
    integrations = defaultdict(int)
    audit_ns = 0
    for op, span_id, parent, name, start, end, amount in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += end - start - _covered(children[(op, span_id)], start, end)
        if isinstance(amount, tuple):
            entry["amount"] += amount[0]
            entry["bytes"] += amount[1]
        elif amount is not None:
            entry["amount"] += amount
        if name == "integrate.integrate":
            integrations[(op, parent)] += 1
        if name == AUDIT and names.get((op, parent)) != AUDIT:
            audit_ns += end - start
    pairs = sum(
        1
        for (op, span_id), name in names.items()
        if name == "scenario.run_scenario" and integrations[(op, span_id)] == 2
    )
    return {"names": totals, "pairs": pairs, "audit_ns": audit_ns}


# per-layer metrics that count work; they repeat exactly from round to round
COUNTS = (
    "integrate.calls",
    "integrate.steps",
    "model.rhs_calls",
    "linalg.retractions",
    "manifold.drift_calls",
    "manifold.diameter_calls",
    "diagnostics.gap_series_calls",
    "model.slack_calls",
    "model.potential_calls",
    "series_io.rows_written",
    "series_io.bytes_written",
    "series_io.rows_read",
)


def round_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one round: counts, seconds per round, and
    microseconds per call or per step."""
    agg = layer_totals(spans)
    t = agg["names"]
    steps = t["integrate.integrate"]["amount"]
    retractions = t["linalg.polar"]["calls"]
    gap_calls = t["diagnostics.gap_series"]["calls"]

    def seconds(name, key="ns"):
        return t[name][key] / 1e9

    def us_per(ns, calls):
        return ns / 1e3 / calls if calls else 0.0

    return {
        "integrate.calls": t["integrate.integrate"]["calls"],
        "integrate.steps": steps,
        "integrate.step_us": us_per(t["integrate.integrate"]["ns"], steps),
        "integrate.self_us_per_step": us_per(t["integrate.integrate"]["self_ns"], steps),
        "model.rhs_calls": t["model.rhs"]["calls"],
        "model.rhs_us": us_per(t["model.rhs"]["ns"], t["model.rhs"]["calls"]),
        "linalg.retractions": retractions,
        "linalg.retractions_per_step": retractions / steps if steps else 0.0,
        "linalg.polar_us": us_per(t["linalg.polar"]["ns"], retractions),
        "manifold.drift_calls": t["manifold.drift"]["calls"],
        "manifold.drift_us": us_per(t["manifold.drift"]["ns"], t["manifold.drift"]["calls"]),
        "manifold.diameter_calls": t["manifold.diameter"]["calls"],
        "manifold.diameter_us": us_per(
            t["manifold.diameter"]["ns"], t["manifold.diameter"]["calls"]
        ),
        "diagnostics.gap_series_calls": gap_calls,
        "diagnostics.gap_series_s": seconds("diagnostics.gap_series"),
        "diagnostics.gap_series_per_pair": gap_calls / agg["pairs"] if agg["pairs"] else 0.0,
        "model.slack_calls": t["model.slack"]["calls"],
        "model.slack_s": seconds("model.slack"),
        "model.potential_calls": t["model.potential"]["calls"],
        "model.potential_s": seconds("model.potential"),
        "diagnostics.audit_s": agg["audit_ns"] / 1e9,
        "diagnostics.consensus_s": seconds("diagnostics.consensus"),
        "series_io.rows_written": t["series_io.emit"]["amount"],
        "series_io.bytes_written": t["series_io.emit"]["bytes"],
        "series_io.emit_s": seconds("series_io.emit"),
        "series_io.rows_read": t["series_io.read"]["amount"],
        "series_io.read_s": seconds("series_io.read"),
        "scenario.build_s": seconds("scenario.build"),
        "scenario.self_s": seconds("scenario.run_scenario", "self_ns"),
        "cli.self_s": seconds("cli.main", "self_ns"),
    }


def write_spans(spans: list[tuple], path: str) -> None:
    """Write spans as tab-separated lines: op, id, parent, name, start_ns,
    end_ns, count."""
    with open(path, "w") as handle:
        handle.write("op\tid\tparent\tname\tstart_ns\tend_ns\tcount\n")
        for span in spans:
            handle.write("\t".join("" if v is None else str(v) for v in span) + "\n")
