"""Write the golden outputs of the four bundled scenarios.

For each bundled scenario this keeps, next to this script:

- ``<name>_report.json``: the exit code of ``stiefel-sync run <name>`` and
  its report JSON without ``artifacts`` (output paths, not results);
- ``<name>.csv`` and, for pair scenarios, ``<name>_pair.csv``: about 20
  fixed rows of each emitted CSV (first, last and evenly spaced between),
  copied verbatim, so at ``%.17g``, behind a leading ``row`` column that
  gives the data row they came from.

``tests/test_golden.py`` compares fresh runs with these files. Regenerate
only when a change moves the outputs on purpose, and record the largest
difference per column and the reason in ``CHANGES.md``:

    PYTHONPATH=src python tests/golden/regenerate.py

Before it overwrites a golden, the script prints how the new file differs
from the one it replaces: the largest difference per report field and per
CSV column, and every field added, removed or otherwise changed.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from stiefel_sync.cli import main

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = ("framework_hetero", "homogeneous_complete", "kuramoto_circle", "stability_pair")
ROWS_KEPT = 20


@dataclass(frozen=True)
class BundledRun:
    """One ``stiefel-sync run <name>``: exit code, report JSON as written,
    and the paths of the CSVs it emitted."""

    exit_code: int
    report: dict
    csvs: dict  # output file name -> path


def run_bundled(name: str, out_dir: str) -> BundledRun:
    """Run a bundled scenario through the command line into ``out_dir``."""
    sink = io.StringIO()
    code = main(["run", name, "--out", out_dir], out=sink, err=sink)
    with open(os.path.join(out_dir, f"{name}_report.json")) as handle:
        report = json.load(handle)
    csvs = {
        os.path.basename(path): path for path in report["artifacts"] if path.endswith(".csv")
    }
    return BundledRun(exit_code=code, report=report, csvs=csvs)


def kept_rows(total: int) -> np.ndarray:
    """Indices of the data rows a golden keeps: first, last, evenly spaced."""
    return np.unique(np.linspace(0, total - 1, ROWS_KEPT).round().astype(int))


def excerpt(path: str) -> str:
    """The kept rows of an emitted CSV, verbatim, behind a ``row`` column."""
    with open(path) as handle:
        header, *rows = handle.read().splitlines()
    lines = [f"row,{header}"] + [f"{k},{rows[k]}" for k in kept_rows(len(rows))]
    return "\n".join(lines) + "\n"


def golden_report(run: BundledRun) -> dict:
    report = {key: value for key, value in run.report.items() if key != "artifacts"}
    return {"exit_code": run.exit_code, "report": report}


def report_differences(new, old, field: str = "", found: dict | None = None) -> dict:
    """How a new golden report tree differs from the old one, per field:
    the largest |new - old| of a float field, or "added", "removed" or
    "old -> new" for any other change. A field is its path of keys; list
    positions are dropped, so a field gathers every entry of its list, as
    each audit's ``max_violation`` does. Fields that did not move are left
    out."""
    found = {} if found is None else found
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted(new.keys() | old.keys()):
            path = f"{field}/{key}" if field else key
            if key not in old:
                found[path] = "added"
            elif key not in new:
                found[path] = "removed"
            else:
                report_differences(new[key], old[key], path, found)
    elif isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        for a, b in zip(new, old):
            report_differences(a, b, field, found)
    elif isinstance(new, float) and isinstance(old, float):
        # a change that is not a float difference stands for the field
        if new != old and not isinstance(found.get(field), str):
            found[field] = max(found.get(field, 0.0), abs(new - old))
    elif type(new) is not type(old) or new != old:
        found[field] = f"{old!r} -> {new!r}"
    return found


def csv_differences(new: str, old: str) -> dict:
    """The largest |new - old| per column between two CSV excerpts, for the
    columns that moved; when their headers or kept rows differ, that alone
    is reported."""
    (new_header, *new_rows), (old_header, *old_rows) = new.splitlines(), old.splitlines()
    kept = [[line.split(",", 1)[0] for line in rows] for rows in (new_rows, old_rows)]
    if new_header != old_header or kept[0] != kept[1]:
        return {"header and rows": f"{old_header!r} at {kept[1]} -> {new_header!r} at {kept[0]}"}
    new_table, old_table = (
        np.array([[float(v) for v in line.split(",")] for line in rows])
        for rows in (new_rows, old_rows)
    )
    largest = np.abs(new_table - old_table).max(axis=0)
    return {name: float(gap) for name, gap in zip(new_header.split(","), largest) if gap}


def write_golden(file_name: str, text: str) -> None:
    """Write one golden file, after printing how it differs from the file it
    replaces, if there is one."""
    path = os.path.join(GOLDEN_DIR, file_name)
    if os.path.exists(path):
        with open(path) as handle:
            old = handle.read()
        if file_name.endswith(".json"):
            moved = report_differences(json.loads(text), json.loads(old))
        else:
            moved = csv_differences(text, old)
        print(f"{file_name}: {'largest differences' if moved else 'unchanged'}")
        for field, difference in moved.items():
            shown = f"{difference:.3g}" if isinstance(difference, float) else difference
            print(f"  {field}: {shown}")
    with open(path, "w") as handle:
        handle.write(text)


def write_goldens(out_dir: str) -> None:
    for name in SCENARIOS:
        run = run_bundled(name, out_dir)
        text = json.dumps(golden_report(run), indent=2, sort_keys=True) + "\n"
        write_golden(f"{name}_report.json", text)
        for file_name, path in sorted(run.csvs.items()):
            write_golden(file_name, excerpt(path))
        print(f"{name}: exit {run.exit_code}, {len(run.csvs)} CSV excerpt(s)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_goldens(scratch)
