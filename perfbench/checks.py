"""Checks of the program's outputs.

Each check compares an output with a computation made here, apart from the
program, or tests a property the method must have. The program supplies only
the inputs: the weights, the generators and the initial ensembles that it
builds from a scenario file. Every check returns a list of failure messages;
an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

# rows of each pair CSV compared with the reference integration
REFERENCE_ROWS = 40
# the method keeps every recorded state this close to the manifold
DRIFT_LIMIT = 1e-10
# agreement of the reference RK4 (SVD polar factor, per-agent loops) with
# the program's rows: relative, plus an absolute floor for columns at
# rounding level such as the drift
REL_TOL = 1e-9
ABS_TOL = 1e-13
# the benchmark's rate fit against the report's rate: both are least squares
# of the same logs, computed in different orders (they agree to ~1e-15)
FIT_REL_TOL = 1e-12
# V(t) may rise by rounding only, relative to V(0)
DESCENT_REL_TOL = 1e-12
# complete consensus: the last recorded diameter
CONSENSUS_DIAMETER = 1e-6
# the phase model against the Stiefel run on the circle: both are RK4 with
# the same step, so they differ by O(h^4) truncation terms
PHASE_ABS_TOL = 1e-8

AUDIT_LINE = re.compile(r"audit (\w+): max_violation=(\S+) tol=(\S+) (pass|FAIL)")


def load_csv(path) -> dict[str, np.ndarray]:
    """Parse a series CSV with the standard library, apart from the
    program's reader."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    names = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(names)}


def load_json(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# reference computations


def field(states, weights, freqs, kappa):
    """dS_i/dt = S_i W_i + kappa (C_i - (S_i S_i^T C_i + S_i C_i^T S_i) / 2),
    C_i = (1/N) sum_k a_ik S_k, one agent at a time."""
    count = states.shape[0]
    out = np.empty_like(states)
    for i in range(count):
        c = sum(weights[i, k] * states[k] for k in range(count)) / count
        s = states[i]
        out[i] = s @ freqs[i] + kappa * (c - (s @ (s.T @ c) + s @ (c.T @ s)) / 2.0)
    return out


def polar_svd(a):
    """Closest matrix with orthonormal columns, agent by agent."""
    out = np.empty_like(a)
    for i in range(a.shape[0]):
        u, _, vt = np.linalg.svd(a[i], full_matrices=False)
        out[i] = u @ vt
    return out


def rk4_polar(initial, weights, freqs, kappa, h, steps):
    """States at steps 0..steps of classical RK4 with a polar retraction
    after every step."""
    s = np.array(initial, dtype=float)
    out = [s]
    for _ in range(steps):
        k1 = field(s, weights, freqs, kappa)
        k2 = field(s + 0.5 * h * k1, weights, freqs, kappa)
        k3 = field(s + 0.5 * h * k2, weights, freqs, kappa)
        k4 = field(s + h * k3, weights, freqs, kappa)
        s = polar_svd(s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out.append(s)
    return out


def drift(states) -> float:
    p = states.shape[2]
    return max(np.linalg.norm(s.T @ s - np.eye(p)) for s in states)


def diameter(states) -> float:
    count = states.shape[0]
    return max(
        (np.linalg.norm(states[i] - states[j]) for i in range(count) for j in range(count)),
        default=0.0,
    )


def pair_row(s, t) -> dict[str, float]:
    """The pair-CSV columns at one time, from the two ensembles."""
    count = s.shape[0]
    plain = skew = 0.0
    for j in range(count):
        for i in range(count):
            d = s[j].T @ s[i] - t[j].T @ t[i]
            plain += float(np.sum(d * d))
            skew += float(np.sum((d - d.T) ** 2))
    dists = [float(np.linalg.norm(s[i] - t[i])) for i in range(count)]
    row = {
        "drift": drift(s),
        "diam_S": diameter(s),
        "diam_A": plain + skew,
        "corr_sq": plain,
        "corr_skew_sq": skew,
        "drift_tilde": drift(t),
        "diam_S_tilde": diameter(t),
        "dist_l1": sum(dists),
        "dist_l2": math.sqrt(sum(d * d for d in dists)),
    }
    for i, d in enumerate(dists):
        row[f"dist_agent_{i}"] = d
    return row


def reference_pair_rows(model, initial, partner_initial, h, rows):
    """The first ``rows`` rows of a pair CSV recorded at every step."""
    args = (model.topology.weights, model.freqs, model.kappa, h)
    run = rk4_polar(initial, *args, rows - 1)
    partner = rk4_polar(partner_initial, *args, rows - 1)
    out = []
    for k in range(rows):
        row = {"t": k * h}
        row.update(pair_row(run[k], partner[k]))
        out.append(row)
    return out


def phase_diameters(theta0, kappa, h, steps, stride):
    """Diameters of dtheta_i/dt = (kappa/N) sum_k sin(theta_k - theta_i),
    integrated by RK4, every ``stride`` steps and at the last step, through
    ||S_i - S_k|| = 2 |sin((theta_i - theta_k) / 2)|."""
    theta = np.array(theta0, dtype=float)
    count = theta.shape[0]

    def velocity(x):
        return kappa / count * np.sin(x[None, :] - x[:, None]).sum(axis=1)

    def diam(x):
        return float(np.max(2.0 * np.abs(np.sin((x[:, None] - x[None, :]) / 2.0))))

    out = [diam(theta)]
    for step in range(1, steps + 1):
        k1 = velocity(theta)
        k2 = velocity(theta + 0.5 * h * k1)
        k3 = velocity(theta + 0.5 * h * k2)
        k4 = velocity(theta + h * k3)
        theta = theta + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0 or step == steps:
            out.append(diam(theta))
    return np.array(out)


def log_linear_rate(times, values, window) -> float:
    """Negated least-squares slope of log(values) over the closed window."""
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    t = times[mask]
    y = np.log(np.maximum(values[mask], 1e-300))
    tc = t - t.mean()
    return float(-np.sum(tc * (y - y.mean())) / np.sum(tc * tc))


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, rel: float, floor: float) -> bool:
    return abs(a - b) <= rel * abs(b) + floor


def check_reference_rows(series, reference) -> list[str]:
    failures = []
    for k, row in enumerate(reference):
        for name, want in row.items():
            got, want = float(series[name][k]), float(want)
            if not _close(got, want, REL_TOL, ABS_TOL):
                failures.append(f"row {k} {name}: program {got!r}, reference {want!r}")
    return failures[:5]


def check_pair_run(series, report, reference) -> list[str]:
    """A pair CSV and its report: reference rows, drift, the decay fit
    against the report and the paper's estimate, and the diameter
    threshold."""
    failures = check_reference_rows(series, reference)
    for column in ("drift", "drift_tilde"):
        worst = float(np.max(series[column]))
        if not worst <= DRIFT_LIMIT:
            failures.append(f"{column} reaches {worst:.3e} > {DRIFT_LIMIT:.0e}")
    decay = report["decay"]
    rate = log_linear_rate(series["t"], series["diam_A"], decay["fit_window"])
    if not _close(rate, decay["rate"], FIT_REL_TOL, 0.0):
        failures.append(f"fitted rate {rate!r} differs from decay.rate {decay['rate']!r}")
    if not decay["rate"] >= decay["delta_lower"]:
        failures.append(
            f"decay.rate {decay['rate']!r} below the estimate {decay['delta_lower']!r}"
        )
    (threshold,) = [
        c["rhs"] for c in report["framework"]["conditions"] if c["name"] == "initial_diameter"
    ]
    for column in ("diam_S", "diam_S_tilde"):
        worst = float(np.max(series[column]))
        if not worst < threshold:
            failures.append(f"{column} reaches {worst!r}, threshold {threshold!r}")
    return failures


def check_descent(series) -> list[str]:
    """V does not increase: with equal generators the flow is a gradient
    flow of V."""
    v = series["V"]
    rise = float(np.max(np.diff(v)))
    if rise > DESCENT_REL_TOL * v[0]:
        k = int(np.argmax(np.diff(v)))
        return [f"V rises by {rise:.3e} at t={float(series['t'][k + 1])!r} (V(0)={v[0]:.3e})"]
    return []


def check_consensus(series, report) -> list[str]:
    failures = []
    if report["consensus"]["kind"] != "complete":
        failures.append(f"consensus kind {report['consensus']['kind']!r}, wanted complete")
    last = float(series["diam_S"][-1])
    if not last <= CONSENSUS_DIAMETER:
        failures.append(f"final diameter {last!r} > {CONSENSUS_DIAMETER:.0e}")
    return failures


def check_phase_model(series, reference) -> list[str]:
    got = series["diam_S"]
    if got.shape != reference.shape:
        return [f"{got.shape[0]} rows, phase model has {reference.shape[0]}"]
    worst = float(np.max(np.abs(got - reference)))
    if not worst <= PHASE_ABS_TOL:
        k = int(np.argmax(np.abs(got - reference)))
        return [f"diam_S differs from the phase model by {worst:.3e} at row {k}"]
    return []


def audit_lines(stdout: str) -> dict[str, tuple[str, str, str]]:
    return {m[1]: (m[2], m[3], m[4]) for m in AUDIT_LINE.finditer(stdout)}


def check_reaudit_own(stdout: str, code, report) -> list[str]:
    """Against its own scenario the re-audit passes, and each line repeats
    the in-memory audit of the report: the CSV round-trips bit for bit."""
    failures = [] if code == 0 else [f"exit code {code}, wanted 0"]
    lines = audit_lines(stdout)
    for audit in report["audits"]:
        want = (f"{audit['max_violation']:.3e}", f"{audit['tol']:.3e}", "pass")
        got = lines.get(audit["name"])
        if got != want:
            failures.append(f"audit {audit['name']}: printed {got}, report {want}")
    return failures


def check_reaudit_doubled(stdout: str, code) -> list[str]:
    """With kappa doubled the correlation-contraction bound is too strong
    for the recorded run, and the re-audit reports it."""
    failures = [] if code == 4 else [f"exit code {code}, wanted 4"]
    got = audit_lines(stdout).get("correlation_contraction")
    if got is None or got[2] != "FAIL":
        failures.append(f"correlation_contraction printed {got}, wanted FAIL")
    return failures
