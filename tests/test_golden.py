"""The bundled scenarios' outputs against the committed goldens in
``tests/golden/`` (written by ``tests/golden/regenerate.py``).

Verdicts, exit codes, names and consensus kinds compare exactly. Floats
compare per column (CSV) or per report field as ``|a - b| <= rtol*|b| + atol``.
The goldens must survive a change that only reorders floating-point work,
such as a cheaper kernel or another BLAS, and still catch a change of the
numbers. Each tolerance therefore follows from how the quantity responds to
the rounding of the integration, in terms of one number:

``STATE_ERROR = 1e-13`` bounds the absolute error that rounding leaves in a
state entry after a whole run. Each RK4 step rounds at about 1e-16, and the
bundled flows contract, so errors do not grow exponentially. Reordering the
arithmetic of ``rhs`` and of the retraction moved the per-agent distances
of every bundled pair by at most 8e-15 absolute, 12 times below this bound.
An error in the model or the integrator shows at the integrator's own
truncation error (h^4 ~ 1e-12 at h = 1e-3) or above, so it breaks these
tolerances.
"""

from dataclasses import dataclass
import json
import os

import pytest

from golden.regenerate import (
    GOLDEN_DIR,
    SCENARIOS,
    csv_differences,
    golden_report,
    kept_rows,
    report_differences,
)

STATE_ERROR = 1e-13


@dataclass(frozen=True)
class Tol:
    rtol: float
    atol: float

    def allows(self, actual: float, golden: float) -> bool:
        return abs(actual - golden) <= self.rtol * abs(golden) + self.atol


# Computed from the step index and h alone: any difference is a changed grid.
EXACT = Tol(0.0, 0.0)
# Computed from the scenario file without integrating; only a different
# rounding order (another BLAS, say) can move them.
CONFIG = Tol(1e-12, 0.0)
# First order in the state: diameters, distances, the potential, the
# consensus measures, the stability gain. Values range from O(1) down to
# rounding level at consensus (diam_S of homogeneous_complete ends near
# 1e-15), so the absolute part carries the bound: 10 STATE_ERROR, with a
# relative part for the O(1) values that sum many entries (V reaches 3.2).
STATE = Tol(1e-10, 10 * STATE_ERROR)
# Rounding-level by construction: the retracted states' orthonormality
# defect is a few ulps (1e-16 to 2e-15) whatever the arithmetic order, so
# only an absolute bound makes sense. A lost retraction shows as 1e-12 or
# more.
ROUNDING = Tol(0.0, 1e-14)
# Squared gaps between a run and its partner, G = |D|^2 with D a difference
# of correlations. An absolute error e in D moves G by about 2 sqrt(G) e.
# That is below rtol*G + atol for every G exactly when e^2 <= rtol*atol, so
# rtol = 1e-6 and atol = 1e-20 cover e = 1e-13 = STATE_ERROR. Measured under
# a reordered kernel: at most 2e-8 relative where G > 1e-12, and 2e-16
# absolute, on gaps that fall to 4e-22.
GAP = Tol(1e-6, 1e-20)
# The fitted decay rate is a least-squares slope of log G. Each log G
# carries error 2 e / sqrt(G): up to 1e-3 at the end of framework_hetero's
# fit window, where G is 4e-22, for e = 1e-14. The fit averages this over
# the window; a reordered kernel moved the rate by 3.6e-6 relative and
# r_squared by 4e-10. A wrong rate is off in the second digit.
FIT_RATE = Tol(1e-4, 0.0)
FIT_QUALITY = Tol(1e-7, 0.0)
# The largest rate of a correlation at the last snapshot, max ||dG_ij/dt||.
# A state error e moves a correlation block G_ij = S_i^T S_j by at most
# 2 sqrt(n p) e in Frobenius norm, and the correlations' closed flow (see
# diagnostics.consensus_status) moves the rate by at most 2 (max ||Omega_i||
# + 3 kappa a) times that, a the largest weight. On the bundled scenarios
# with a consensus entry (kappa <= 2.03, a <= 1.02, n p <= 12, ||Omega_i||
# <= 0.5) that is at most 86 e, so the absolute part is 100 STATE_ERROR,
# with STATE's relative part for the O(1) rates of a run that does not
# lock.
RATE = Tol(1e-10, 100 * STATE_ERROR)
# Worst excess of a central-difference slope of a gap series over its bound:
# a GAP error divided by the spacing (>= 1e-3). The verdict is exact.
AUDIT = Tol(1e-6, 1e-15)

COLUMN_TOLERANCES = {
    "t": EXACT,
    "drift": ROUNDING,
    "drift_tilde": ROUNDING,
    "diam_S": STATE,
    "diam_S_tilde": STATE,
    "V": STATE,
    "dist_l1": STATE,
    "dist_l2": STATE,
    "diam_A": GAP,
    "corr_sq": GAP,
    "corr_skew_sq": GAP,
}

# (report section, field) -> tolerance; "*" matches any field of a section
REPORT_TOLERANCES = {
    ("framework", "*"): CONFIG,
    ("cubic", "*"): CONFIG,
    ("consensus", "tol"): CONFIG,
    ("consensus", "rate_tol"): CONFIG,
    ("consensus", "max_identity_gap"): STATE,
    ("consensus", "max_rate"): RATE,
    ("decay", "fit_window"): CONFIG,
    ("decay", "delta_lower"): STATE,
    ("decay", "rate"): FIT_RATE,
    ("decay", "r_squared"): FIT_QUALITY,
    ("gain", "*"): STATE,
    ("audits", "tol"): CONFIG,
    ("audits", "max_violation"): AUDIT,
}


def column_tolerance(name: str) -> Tol:
    if name.startswith("dist_agent_"):
        return STATE
    return COLUMN_TOLERANCES[name]


def report_tolerance(path: tuple) -> Tol:
    section = path[0]
    field = next(key for key in reversed(path) if isinstance(key, str))
    tol = REPORT_TOLERANCES.get((section, field), REPORT_TOLERANCES.get((section, "*")))
    assert tol is not None, f"no tolerance declared for report field {path}"
    return tol


def report_mismatches(actual, golden, path=()) -> list[str]:
    """Every place where two report trees differ beyond their tolerance;
    anything but a float (bool, str, int, None, keys, lengths) is exact."""
    where = "/".join(map(str, path))
    if isinstance(golden, float) and isinstance(actual, float):
        if report_tolerance(path).allows(actual, golden):
            return []
        return [f"{where}: {actual!r} != {golden!r}"]
    if isinstance(golden, dict) and isinstance(actual, dict):
        if golden.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(golden)}"]
        return [m for key in golden for m in report_mismatches(actual[key], golden[key], path + (key,))]
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return [f"{where}: length {len(actual)} != {len(golden)}"]
        return [
            m for k, (a, g) in enumerate(zip(actual, golden))
            for m in report_mismatches(a, g, path + (k,))
        ]
    if type(actual) is not type(golden) or actual != golden:
        return [f"{where}: {actual!r} != {golden!r}"]
    return []


def csv_mismatches(actual_path: str, golden_path: str) -> list[str]:
    with open(golden_path) as handle:
        golden_header, *golden_rows = handle.read().splitlines()
    with open(actual_path) as handle:
        header, *rows = handle.read().splitlines()
    if f"row,{header}" != golden_header:
        return [f"header {header!r} != {golden_header!r}"]
    indices = [int(line.split(",", 1)[0]) for line in golden_rows]
    if indices != kept_rows(len(rows)).tolist():
        return [f"{len(rows)} data rows; the golden rows {indices} came from another count"]
    names = header.split(",")
    found = []
    for k, line in zip(indices, golden_rows):
        golden_values = [float(v) for v in line.split(",")[1:]]
        actual_values = [float(v) for v in rows[k].split(",")]
        for name, a, g in zip(names, actual_values, golden_values):
            if not column_tolerance(name).allows(a, g):
                found.append(f"row {k} column {name}: {a!r} != {g!r}")
    return found


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name, bundled_runs):
    with open(os.path.join(GOLDEN_DIR, f"{name}_report.json")) as handle:
        golden = json.load(handle)
    actual = golden_report(bundled_runs[name])
    assert actual["exit_code"] == golden["exit_code"]
    assert report_mismatches(actual["report"], golden["report"]) == []


@pytest.mark.parametrize("name", SCENARIOS)
def test_series_match_golden(name, bundled_runs):
    csvs = bundled_runs[name].csvs
    expected = sorted(f for f in os.listdir(GOLDEN_DIR) if f in (f"{name}.csv", f"{name}_pair.csv"))
    assert sorted(csvs) == expected
    for file_name in expected:
        assert csv_mismatches(csvs[file_name], os.path.join(GOLDEN_DIR, file_name)) == []


def test_tolerances_catch_a_changed_number():
    golden = {"decay": {"rate": 4.0, "fit_window": [5.0, 10.0]}, "consensus": {"kind": "complete"}}
    assert report_mismatches(golden, golden) == []
    moved = {"decay": {"rate": 4.01, "fit_window": [5.0, 10.0]}, "consensus": {"kind": "complete"}}
    assert report_mismatches(moved, golden) == ["decay/rate: 4.01 != 4.0"]
    renamed = {"decay": {"rate": 4.0, "fit_window": [5.0, 10.0]}, "consensus": {"kind": "partial"}}
    assert report_mismatches(renamed, golden) == ["consensus/kind: 'partial' != 'complete'"]
    assert not GAP.allows(1.0e-12 * (1 + 2e-6), 1.0e-12)
    assert GAP.allows(1e-22 + 2 * 1e-11 * STATE_ERROR, 1e-22)


def test_regeneration_lists_the_largest_differences():
    # per report field, list entries gathered, and per CSV column
    old = {"consensus": {"kind": "partial", "max_variation": 2e-9, "tol": 1e-6},
           "audits": [{"max_violation": 0.0}, {"max_violation": 1.0}]}
    new = {"consensus": {"kind": "none", "max_rate": 9e-11, "tol": 1e-6},
           "audits": [{"max_violation": 0.25}, {"max_violation": 1.5}]}
    assert report_differences(old, old) == {}
    assert report_differences(new, old) == {
        "audits/max_violation": 0.5,
        "consensus/kind": "'partial' -> 'none'",
        "consensus/max_rate": "added",
        "consensus/max_variation": "removed",
    }
    excerpt = "row,t,V\n0,0,1.5\n9,1,0.25\n"
    assert csv_differences(excerpt, excerpt) == {}
    assert csv_differences("row,t,V\n0,0,1.5\n9,1,0.5\n", excerpt) == {"V": 0.25}
    assert list(csv_differences("row,t,W\n0,0,1.5\n9,1,0.25\n", excerpt)) == ["header and rows"]
