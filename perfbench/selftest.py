"""Self-test of the benchmark's checks: each check passes on the program's
outputs and reports a failure when one value of a written CSV or report, or
one reference value, is altered.

    python3 perfbench/selftest.py

Uses benchmark seed 1, for whose scenarios the altered rows below are
chosen. Works in ``.perfbench_work/selftest``. Exits 0 when every check
passes on the unaltered outputs and fails on every alteration.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

# the benchmark seed whose outputs are altered
SEED = 1


def alter_csv(path: str, row: int, column: str, change) -> None:
    """Replace one value of a CSV (data row ``row``; -1 is the last) by
    change(value)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    names = lines[0].split(",")
    line = row + 1 if row >= 0 else len(lines) + row
    cells = lines[line].split(",")
    j = names.index(column)
    cells[j] = repr(change(float(cells[j])))
    lines[line] = ",".join(cells)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def alter_json(path: str, change) -> None:
    with open(path) as handle:
        data = json.load(handle)
    change(data)
    with open(path, "w") as handle:
        json.dump(data, handle)


class SelfTest:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, label: str, failures: list[str], fail: bool) -> None:
        if bool(failures) == fail:
            shown = failures[0] if failures else "passes"
            print(f"ok   {label}: {shown}")
        else:
            self.problems.append(label)
            print(f"BAD  {label}: {'no failure reported' if fail else failures}")

    def altered(self, label: str, path: str, alter, check) -> None:
        """Alter a written file, expect ``check()`` to fail, restore it."""
        saved = path + ".saved"
        shutil.copyfile(path, saved)
        try:
            alter(path)
            self.expect(label, check(), fail=True)
        finally:
            os.replace(saved, path)


def run_once(workload) -> list[dict]:
    records = []
    for index, op in enumerate(workload.ops):
        code, out, err = workloads.cli_call(op.argv)
        records.append({"op": index, "round": 0, "code": code, "out": out, "err": err,
                        "digest": {}})
    return records


def main() -> int:
    os.chdir(ROOT)
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    test = SelfTest()

    # pair_audit
    wl = workloads.pair_audit(SEED, os.path.join(work, "pair_audit"))
    records = run_once(wl)
    pair_csv, report = wl.ops[0].outputs[1], wl.ops[0].outputs[2]

    def check():
        # the first operation of the workload under test, read when called
        return wl.check(0, records[0])

    test.expect("pair_audit outputs", check(), fail=False)
    test.altered("pair CSV diam_S, row 5", pair_csv,
                 lambda p: alter_csv(p, 5, "diam_S", lambda v: v * (1 + 1e-7)), check)
    test.altered("pair CSV drift, row 500", pair_csv,
                 lambda p: alter_csv(p, 500, "drift", lambda v: 1e-9), check)
    test.altered("pair CSV diam_A, row 950", pair_csv,
                 lambda p: alter_csv(p, 950, "diam_A", lambda v: v * 1.01), check)
    test.altered("pair CSV diam_S_tilde, row 800", pair_csv,
                 lambda p: alter_csv(p, 800, "diam_S_tilde", lambda v: 10.0), check)
    test.altered("report decay.delta_lower", report,
                 lambda p: alter_json(p, lambda d: d["decay"].update(
                     delta_lower=d["decay"]["rate"] * 1.001)), check)
    bad_exit = dict(records[0], code=4)
    test.expect("pair run exit code 4", wl.check(0, bad_exit), fail=True)

    reference = workloads.pair_reference(wl.configs[0])
    series, loaded = checks.load_csv(pair_csv), checks.load_json(report)
    test.expect("pair reference", checks.check_pair_run(series, loaded, reference), fail=False)
    reference[3]["corr_sq"] *= 1 + 1e-7
    test.expect("pair reference corr_sq, row 3",
                checks.check_pair_run(series, loaded, reference), fail=True)

    # repeats: a round whose outputs differ from the first round's
    calls = worker.Calls()
    first = records[0]
    for round_, digests in enumerate(({"x": "a"}, {"x": "a"}, {"x": "b"})):
        calls.add(0, round_, first["code"], first["out"], first["err"], 1.0, 1.0, digests)
    one_op = workloads.Workload(wl.configs[:1], wl.ops[:1], wl.check)
    failed, reasons = run.check_ops(one_op, calls.result(3))
    test.expect("repeat with different output", reasons if failed == 3 else [], fail=True)

    # sweep
    wl = workloads.sweep(SEED, os.path.join(work, "sweep"))
    records = run_once(wl)
    for index in range(len(wl.ops)):
        test.expect(f"sweep op {index}", wl.check(index, records[index]), fail=False)
    homogeneous, circle = wl.ops[0].outputs[0], wl.ops[2].outputs[0]
    homogeneous_report = homogeneous.replace(".csv", "_report.json")
    test.altered("homogeneous CSV V, row 100", homogeneous,
                 lambda p: alter_csv(p, 100, "V", lambda v: v * 1.5), check)
    test.altered("homogeneous CSV diam_S, last row", homogeneous,
                 lambda p: alter_csv(p, -1, "diam_S", lambda v: 1e-3), check)
    test.altered("homogeneous report consensus kind", homogeneous_report,
                 lambda p: alter_json(p, lambda d: d["consensus"].update(kind="partial")), check)
    test.altered("circle CSV diam_S, row 100", circle,
                 lambda p: alter_csv(p, 100, "diam_S", lambda v: v + 1e-7),
                 lambda: wl.check(2, records[2]))
    phase = workloads.phase_reference(wl.configs[2])
    series = checks.load_csv(circle)
    test.expect("phase reference", checks.check_phase_model(series, phase), fail=False)
    phase[200] += 1e-7
    test.expect("phase reference, row 200", checks.check_phase_model(series, phase), fail=True)

    # csv_reaudit
    wl = workloads.csv_reaudit(SEED, os.path.join(work, "csv_reaudit"))
    records = run_once(wl)
    for index in range(2):
        test.expect(f"csv_reaudit op {index}", wl.check(index, records[index]), fail=False)
    report = wl.ops[0].argv[1].replace("_pair.csv", "_report.json")

    def raise_violation(d):
        d["audits"][1]["max_violation"] = 1e-7

    test.altered("report correlation_contraction max_violation", report,
                 lambda p: alter_json(p, raise_violation), check)
    passing = dict(records[1], out=records[1]["out"].replace("FAIL", "pass"), code=0)
    test.expect("doubled-kappa audit printing pass", wl.check(1, passing), fail=True)

    # traced rounds: counts repeat, and RK4 calls rhs four times a step
    counts = {name: 1 for name in tracer.COUNTS}
    counts["model.rhs_calls"] = 4
    traced = {"walls": [1.0], "traced_walls": [1.1]}
    test.expect("trace counts", run.layer_metrics({**traced, "layers": [counts, counts]})[1],
                fail=False)
    test.expect("trace count differing between rounds", run.layer_metrics(
        {**traced, "layers": [counts, {**counts, "series_io.rows_read": 2}]})[1], fail=True)
    test.expect("trace rhs calls not 4 per step", run.layer_metrics(
        {**traced, "layers": [{**counts, "model.rhs_calls": 5}] * 2})[1], fail=True)

    if test.problems:
        print(f"self-test FAILED: {', '.join(test.problems)}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
