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


def write_goldens(out_dir: str) -> None:
    for name in SCENARIOS:
        run = run_bundled(name, out_dir)
        with open(os.path.join(GOLDEN_DIR, f"{name}_report.json"), "w") as handle:
            json.dump(golden_report(run), handle, indent=2, sort_keys=True)
            handle.write("\n")
        for file_name, path in sorted(run.csvs.items()):
            with open(os.path.join(GOLDEN_DIR, file_name), "w") as handle:
                handle.write(excerpt(path))
        print(f"{name}: exit {run.exit_code}, {len(run.csvs)} CSV excerpt(s)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_goldens(scratch)
