"""Measured counterparts of everything the theory predicts: pairwise
correlation matrices and the gap between two solutions' correlation sets,
consensus detection, exponential-rate fitting, uniform stability gains,
differential-inequality audits, and the cubic whose roots fence the running
diameter.

Each audit compares a finite-difference derivative of a recorded series
against the corresponding bound evaluated on the same grid. The audits
accept a named ``mutation`` that deliberately overstates their bound; a
healthy implementation must fail under the mutation on an adversarial run,
which is how the test suite proves the audits can detect violations at all.

A pair of runs is measured once: ``_PairSeries`` forms every series of
the pair chunk by chunk of snapshots, named as the pair CSV's columns, and
is the only place that subtracts two trajectories' states. It is fed by
:func:`pair_columns` from two stored runs, and by a scenario run from the
chunks ``integrate`` hands to its sink, with no trajectory kept. The
stability gain, the audit cores and :func:`audit_series` read those
columns, so a scenario run, the re-audit of its CSV and a test's audit of
two trajectories go through the same code and agree bit for bit. The
trajectory-level audits are one-line calls of their cores on such
columns.

Each analysis is one fixed rule of a time grid: consensus detection
(:func:`trailing_window_start`), the decay fit (:func:`fit_window_mask`)
and the audits' slopes (:func:`slope_spacing`). The scenario parser runs
these rules on the recorded grid before anything is integrated. An
analysis that reads a non-finite value raises :class:`ValidationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DimensionError,
    InsufficientDataError,
    UndefinedGainError,
    ValidationError,
)
from .integrate import Trajectory
from .manifold import _chunk_rows
from .model import (
    ModelConfig,
    contraction_rates,
    contraction_slack,
    cubic_coefficient,
    cubic_invariant_roots,
    diameter_threshold,
)

# distances below this are treated as zero: the norm is not differentiable
# there and the per-agent inequality is vacuous
DISTANCE_FLOOR = 1e-12

# values are floored here before taking logs in rate fits
LOG_FLOOR = 1e-300

# correlation gap and variation below which a window counts as settled
CONSENSUS_TOL = 1e-6

# the exponents p of the lp gains a scenario's stability analysis reports
GAIN_EXPONENTS = (1.0, 2.0, 4.0)


def audit_tolerance(spacing: float) -> float:
    """Violation allowance for an audit on a grid with the given spacing:
    an absolute floor plus the O(h^2) finite-difference error."""
    return 1e-6 + 10.0 * spacing ** 2


def _require_uniform(times: np.ndarray) -> float:
    if times.shape[0] < 2:
        raise InsufficientDataError("need at least two samples")
    h = float(times[1] - times[0])
    gaps = np.diff(times)
    if h <= 0 or np.max(np.abs(gaps - h)) > 1e-9 * max(h, 1.0):
        raise ValidationError("series is not on a uniform time grid")
    return h


def slope_spacing(times) -> float:
    """The spacing of a grid that interior slopes can be taken on: uniform,
    with at least three samples."""
    h = _require_uniform(times)
    if times.shape[0] < 3:
        raise InsufficientDataError("need at least three samples for interior slopes")
    return h


def dini_derivative_series(series_t, series_y) -> np.ndarray:
    """Central-difference derivative, O(h^2), at every interior point of a
    series sampled on a uniform time grid; a (K, N) table gives the slope of
    each of its N series along the first axis."""
    t = np.asarray(series_t, dtype=float)
    y = np.asarray(series_y, dtype=float)
    h = slope_spacing(t)
    slopes = y[2:] - y[:-2]
    slopes /= 2.0 * h
    return slopes


# ---------------------------------------------------------------------------
# correlations


def _gram(states: np.ndarray) -> np.ndarray:
    """A[..., j, i] = S_j^T S_i for every ensemble of a (..., N, n, p) stack,
    as a C-contiguous (..., N, N, p, p) array: one x^T x product per
    ensemble, with x = [S_1 ... S_N] the (n, N p) matrix of its agents."""
    lead = states.shape[:-3]
    count, n, p = states.shape[-3:]
    x = np.swapaxes(states, -3, -2).reshape(lead + (n, count * p))
    g = (np.swapaxes(x, -1, -2) @ x).reshape(lead + (count, p, count, p))
    # numpy sums a strided view in another order, so a view would break the
    # bitwise match between stacked and per-snapshot reductions
    return np.ascontiguousarray(np.swapaxes(g, -3, -2))


def correlations(states) -> np.ndarray:
    """All pairwise products A[j, i] = S_j^T S_i as an (N, N, p, p) array.

    A[i, j] equals the transpose of A[j, i] bit for bit: the Gram product
    sums the same products in the same order for both entries.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 3:
        raise DimensionError(f"ensemble must be (N, n, p), got shape {states.shape}")
    return _gram(states)


def _chunked_correlations(states: np.ndarray):
    """Yield ``(rows, products)`` over chunks of the snapshots of a
    (K, N, n, p) stack, as many a chunk as have at most
    ``manifold._PAIR_CHUNK_ENTRIES`` Gram entries (N^2 p^2 a snapshot),
    where ``products[k]`` equals :func:`correlations` of snapshot
    ``rows[k]`` bit for bit: the stacked Gram product runs the same
    per-snapshot product."""
    count, _, p = states.shape[-3:]
    for rows in _chunk_rows(states.shape[0], (count * p) ** 2):
        yield rows, _gram(states[rows])


def correlation_gap_series(traj1: Trajectory, traj2: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Squared l2 gaps between two aligned trajectories' correlation sets at
    every snapshot: the plain gap sum_ij ||A_ji - B_ji||^2 and the gap of
    their skew parts. Bitwise the per-snapshot oracle
    ``tests/conftest.py::correlation_gap_components``."""
    _require_aligned(traj1, traj2)
    total = len(traj1)
    plain = np.empty(total)
    skew = np.empty(total)
    chunks = zip(_chunked_correlations(traj1.states), _chunked_correlations(traj2.states))
    # each chunk's two Gram buffers are the only temporaries: the plain
    # difference goes into the first, its skew part into the second
    for (rows, a), (_, b) in chunks:
        np.subtract(a, b, a)
        np.subtract(a, np.swapaxes(a, -2, -1), b)
        np.multiply(a, a, a)
        plain[rows] = a.sum(axis=(1, 2, 3, 4))
        np.multiply(b, b, b)
        skew[rows] = b.sum(axis=(1, 2, 3, 4))
        # released before the next chunk's buffers are formed
        del a, b
    return plain, skew


def _require_single(states) -> None:
    if states is None:
        raise ValidationError("the run kept no states: it was handed to a sink chunk by chunk")
    if states.ndim != 4:
        raise DimensionError(
            f"expected one run, states (K, N, n, p), got shape {states.shape};"
            " split a batch into its runs with Trajectory.members()"
        )


def _require_aligned(traj1: Trajectory, traj2: Trajectory) -> None:
    _require_single(traj1.states)
    _require_single(traj2.states)
    if traj1.states.shape != traj2.states.shape or not np.array_equal(
        traj1.times, traj2.times
    ):
        raise DimensionError("trajectories are not on identical time grids")


class _PairSeries:
    """The series of a pair of aligned runs that :func:`pair_columns`
    names, filled one chunk of snapshots at a time by :meth:`add`. A stored
    pair (:func:`pair_columns`) and a scenario run that ``integrate`` hands
    to a sink chunk by chunk both go through :meth:`add`, so both give the
    same bits."""

    def __init__(self, total: int, count: int):
        self.plain, self.skewed, self.l1, self.l2 = (np.empty(total) for _ in range(4))
        self.norms = np.empty((total, count))

    def add(self, rows: slice, run: Trajectory, partner: Trajectory) -> None:
        """Fill ``rows`` of every series from the aligned chunks ``run`` and
        ``partner`` of those snapshots."""
        plain, skewed = correlation_gap_series(run, partner)
        self.plain[rows] = plain
        self.skewed[rows] = skewed
        # x_i = ||S_i - T_i||, squared in place in the chunk's differences
        diffs = run.states - partner.states
        np.multiply(diffs, diffs, diffs)
        x = self.norms[rows]
        np.sqrt(diffs.sum(axis=(-2, -1)), x)
        self.l1[rows] = x.sum(axis=1)
        self.l2[rows] = np.sqrt((x ** 2).sum(axis=1))

    def columns(self, traj: Trajectory, partner: Trajectory) -> dict[str, np.ndarray]:
        """Every column of the pair CSV, the runs' own series included; the
        whole gap is summed from its parts here, once the runs are done."""
        columns = {
            "t": traj.times,
            "drift": traj.drift,
            "diam_S": traj.diameters,
            "diam_A": self.plain + self.skewed,
            "corr_sq": self.plain,
            "corr_skew_sq": self.skewed,
            "drift_tilde": partner.drift,
            "diam_S_tilde": partner.diameters,
            "dist_l1": self.l1,
            "dist_l2": self.l2,
        }
        for i in range(self.norms.shape[1]):
            columns[f"dist_agent_{i}"] = self.norms[:, i]
        return columns


def pair_columns(traj: Trajectory, partner: Trajectory) -> dict[str, np.ndarray]:
    """Every series of a pair of aligned runs, named as the columns of the
    pair CSV (base columns included). ``diam_A`` is the squared correlation
    gap, plain plus skew part; ``dist_agent_<i>`` is x_i = ||S_i - T_i||,
    and ``dist_l1``/``dist_l2`` are its l1 and l2 sums over the agents. The
    runs are walked in the chunks ``integrate`` records in, as many
    snapshots as hold at most ``manifold._PAIR_CHUNK_ENTRIES`` entries of
    both runs' states."""
    _require_aligned(traj, partner)
    total = len(traj)
    series = _PairSeries(total, traj.states.shape[1])
    for rows in _chunk_rows(total, 2 * math.prod(traj.states.shape[1:])):
        series.add(rows, _snapshots(traj, rows), _snapshots(partner, rows))
    return series.columns(traj, partner)


def _snapshots(traj: Trajectory, rows: slice) -> Trajectory:
    """The snapshots ``rows`` of one run, as views."""
    return Trajectory(traj.times[rows], traj.states[rows], traj.drift[rows], traj.diameters[rows])


def _agent_distances(columns: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """The ``dist_agent_<i>`` columns, in agent order.

    The N columns named ``dist_agent_...`` must be exactly ``dist_agent_0``
    ... ``dist_agent_<N-1>``, so no agent is read twice or skipped."""
    count = sum(name.startswith("dist_agent_") for name in columns)
    if not count:
        raise ValidationError("series lacks the dist_agent_<i> columns")
    names = [f"dist_agent_{i}" for i in range(count)]
    for name in names:
        if name not in columns:
            raise ValidationError(
                f"series has {count} dist_agent_<i> columns but none named {name!r}"
            )
    return [np.asarray(columns[name], dtype=float) for name in names]


# ---------------------------------------------------------------------------
# consensus detection


@dataclass(frozen=True)
class ConsensusStatus:
    """Outcome of trailing-window consensus detection.

    kind: "complete" (all correlations settle at the identity), "partial"
    (all correlations settle but not at the identity), or "none".
    ``limits`` holds the trailing-average correlations when they settle.
    """

    kind: str
    limits: np.ndarray | None
    max_identity_gap: float
    max_variation: float


def consensus_window(times) -> float:
    """The trailing window consensus detection classifies: a fifth of the
    span of the grid."""
    return 0.2 * float(times[-1] - times[0])


def trailing_window_start(times) -> int:
    """First row of the consensus window (:func:`consensus_window`) of an
    increasing grid. The grid must span a positive time, and the window
    hold at least two samples."""
    window = consensus_window(times)
    if not window > 0:
        raise InsufficientDataError("a grid that spans no time has no consensus window")
    # times increase, so the window is a trailing run of samples
    first = int(np.searchsorted(times, times[-1] - window))
    if times.shape[0] - first < 2:
        raise InsufficientDataError("fewer than two snapshots in the window")
    return first


def _largest_norm(blocks: np.ndarray):
    """The largest Frobenius norm of the trailing (p, p) blocks of an
    array, which is squared in place."""
    np.multiply(blocks, blocks, blocks)
    return np.max(np.sqrt(blocks.sum(axis=(-2, -1))))


def consensus_status(times, states) -> ConsensusStatus:
    """Classify at :data:`CONSENSUS_TOL` the consensus window of one run,
    its grid ``times`` from :func:`trailing_window_start` on. ``states``
    are its last M snapshots, M from the window's rows to the grid's: a
    stored run's ``traj.states``, or the rows a scenario run's sink kept.

    Two passes over the window's chunks of snapshots (see
    :func:`_chunked_correlations`) form each chunk's Gram products: the
    first sums them into the window mean, the second takes the largest
    gaps to the identity and to that mean. So no product of the whole
    window is held. Every value is bitwise that of the (W, N, N, p, p)
    stack of the window's products (``tests/conftest.py``'s
    ``whole_window_consensus``), since numpy sums such a stack along the
    window one snapshot after another; at N = p = 1 it sums pairwise
    instead, so there the mean of a window longer than one chunk (10,752
    snapshots) may differ by rounding."""
    _require_single(states)
    window_rows = times.shape[0] - trailing_window_start(times)
    if not window_rows <= states.shape[0] <= times.shape[0]:
        raise DimensionError(
            f"{len(states)} states for a consensus window of {window_rows} of {len(times)} rows"
        )
    window_states = states[-window_rows:]

    total = None
    for rows, products in _chunked_correlations(window_states):
        # the running sum enters as the chunk's first term, so each chunk's
        # sum along the window goes on snapshot by snapshot from the last
        if total is not None:
            products[0] += total
        total = products.sum(axis=0)
        # released before the next chunk's products are formed
        del products
    # a non-finite state makes its Gram products, and so their sum, non-finite
    if not np.isfinite(total).all():
        raise ValidationError("consensus: a state in the window is not finite")
    mean = total / window_rows

    # the largest gaps of each chunk; a max is exact, so their max is that
    # of the whole window
    eye = np.eye(window_states.shape[-1])
    largest = []
    for rows, products in _chunked_correlations(window_states):
        variation = products - mean
        np.subtract(products, eye, products)
        largest.append((_largest_norm(products), _largest_norm(variation)))
        del products, variation
    max_identity_gap, max_variation = (float(v) for v in np.max(largest, axis=0))

    if max_identity_gap <= CONSENSUS_TOL:
        kind = "complete"
    elif max_variation <= CONSENSUS_TOL:
        kind = "partial"
    else:
        kind = "none"
    limits = mean if kind in ("complete", "partial") else None
    return ConsensusStatus(
        kind=kind,
        limits=limits,
        max_identity_gap=max_identity_gap,
        max_variation=max_variation,
    )


# ---------------------------------------------------------------------------
# rate fitting and stability gain


def decay_fit_window(times) -> tuple[float, float]:
    """The window the decay fit runs on: the trailing half of a grid that
    starts at t = 0, (T / 2, T) with T its last time."""
    t_end = float(times[-1])
    return (0.5 * t_end, t_end)


def fit_window_mask(times) -> np.ndarray:
    """The samples of a grid inside its closed decay-fit window
    (:func:`decay_fit_window`), at least three."""
    lo, hi = decay_fit_window(times)
    mask = (times >= lo) & (times <= hi)
    if int(np.count_nonzero(mask)) < 3:
        raise InsufficientDataError("fewer than three points in the fit window")
    return mask


def fit_decay_rate(times, values) -> tuple[float, float]:
    """Least-squares slope of log(values) against time over the samples of
    :func:`fit_window_mask`, negated so decay is positive, and its r^2."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise DimensionError(f"series shapes differ: {times.shape} vs {values.shape}")
    mask = fit_window_mask(times)
    t, fitted = times[mask], values[mask]
    if not np.isfinite(fitted).all():
        raise ValidationError("decay fit: a value in the fit window is not finite")
    logs = np.log(np.maximum(fitted, LOG_FLOOR))
    slope, intercept = np.polyfit(t, logs, 1)
    predicted = slope * t + intercept
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    scale = (1.0 + abs(float(logs.mean()))) ** 2
    if ss_tot <= 1e-24 * scale:
        # constant series: a flat fit is perfect, anything else is no fit
        r_squared = 1.0 if ss_res <= 1e-18 * scale else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(-slope), float(r_squared)


def stability_gain(columns: Mapping[str, np.ndarray], p_exp: float) -> float:
    """Largest ratio over the grid of the lp ensemble distance
    (sum_i x_i^p)^(1/p), max_i x_i for p = inf, to its value at t = 0, from
    the ``dist_agent_<i>`` columns of :func:`pair_columns`; at least 1,
    since both come from one table. Raises :class:`UndefinedGainError` when
    the initial distance is zero."""
    if not p_exp >= 1:
        raise ValidationError(f"p_exp must be >= 1, got {p_exp}")
    try:
        p_exp = float(p_exp)
    except OverflowError:
        raise ValidationError(
            "p_exp is beyond the float range; p_exp = inf takes the largest agent distance"
        ) from None
    norms = np.column_stack(_agent_distances(columns))  # (K, N)
    if not np.isfinite(norms).all():
        raise ValidationError("stability gain: an agent distance is not finite")
    if p_exp == 1:
        dist = norms.sum(axis=1)
    elif p_exp == np.inf:
        dist = norms.max(axis=1)
    else:
        # m (sum_i (x_i / m)^p)^(1/p) with m = max_i x_i: the largest term
        # is 1, so a large p cannot underflow a nonzero row to a zero sum
        top = norms.max(axis=1)
        scaled = norms / np.where(top > 0.0, top, 1.0)[:, None]
        dist = top * (scaled ** p_exp).sum(axis=1) ** (1.0 / p_exp)
    if dist[0] == 0.0:
        raise UndefinedGainError("identical initial data: gain undefined")
    return float(np.max(dist) / dist[0])


# ---------------------------------------------------------------------------
# inequality audits


@dataclass(frozen=True)
class InequalityAudit:
    """Result of checking measured slopes against a bound on a grid.

    ``lhs``/``rhs`` are aligned with ``times`` (interior grid points); for
    per-agent audits they are 2-D with one column per agent. ``audited``
    marks where the comparison was meaningful. ``max_violation`` is
    max(lhs - rhs) over audited points, clipped at zero; an audit whose
    gap is NaN at an audited point raises :class:`ValidationError` instead.
    """

    name: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    audited: np.ndarray
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def _finish_audit(name, times, lhs, rhs, audited, tol) -> InequalityAudit:
    # the largest audited gap of each chunk of rows; a max is exact, so
    # their max is the whole table's
    largest = [
        np.max(lhs[rows] - rhs[rows], where=audited[rows], initial=-np.inf)
        for rows in _chunk_rows(lhs.shape[0], math.prod(lhs.shape[1:]))
    ]
    worst = float(np.max(largest, initial=-np.inf))
    # a NaN gap is no violation to max(), so it would pass unseen
    if math.isnan(worst):
        raise ValidationError(f"{name}: an audited gap is NaN; the series hold a non-finite value")
    max_violation = max(0.0, worst)
    return InequalityAudit(
        name=name,
        times=times,
        lhs=lhs,
        rhs=rhs,
        audited=audited,
        max_violation=max_violation,
        tol=tol,
    )


def audit_diameter_bound_series(
    columns: Mapping[str, np.ndarray], cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Series-level core of :func:`audit_diameter_bound`: reads the ``t``
    and ``diam_S`` columns."""
    stats = cfg.topology.xi_stats()
    if mutation not in (None, "drop_cubic_term"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    times = np.asarray(columns["t"], dtype=float)
    d = np.asarray(columns["diam_S"], dtype=float)
    lhs = dini_derivative_series(times, d)
    half = cfg.kappa * stats.xi_min ** 2 / 2.0
    rhs = np.empty_like(lhs)
    for rows in _chunk_rows(lhs.shape[0], 1):
        interior = d[rows.start + 1 : rows.stop + 1]
        part = rhs[rows]
        np.multiply(-half, interior, part)
        part += 2.0 * np.sqrt(cfg.p) * cfg.freq_spread
        if mutation != "drop_cubic_term":
            cubic = interior ** 3
            cubic *= half / 2.0
            part += cubic
    audited = np.ones_like(lhs, dtype=bool)
    spacing = float(times[1] - times[0])
    return _finish_audit(
        "diameter_bound", times[1:-1], lhs, rhs, audited, audit_tolerance(spacing)
    )


def audit_diameter_bound(
    traj: Trajectory, cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Check that the measured slope of the ensemble diameter D(t) stays
    below -k xi_min^2 / 2 * D + k xi_min^2 / 4 * D^3 + 2 sqrt(p) * spread.

    mutation="drop_cubic_term" removes the D^3 term (sensitivity check).
    """
    columns = {"t": traj.times, "diam_S": traj.diameters}
    return audit_diameter_bound_series(columns, cfg, mutation)


def correlation_contraction_bound(
    plain, skewed, diam1, diam2, cfg: ModelConfig, mutation: str | None = None
) -> np.ndarray:
    """Right-hand side -r_X X - r_Y Y of the contraction inequality for the
    correlation gap (see :func:`stiefel_sync.model.contraction_rates`),
    evaluated pointwise on aligned series of the plain gap X, the skew gap
    Y and the two diameters.

    mutation="overstated_skew_rate" replaces r_Y by
    kappa (4 xi_min xi_mean - xi_max^2), a skew-sector rate that the field
    does not reach for p >= 2 (sensitivity check).
    """
    if mutation not in (None, "overstated_skew_rate"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    plain = np.asarray(plain, dtype=float)
    skewed = np.asarray(skewed, dtype=float)
    slack = contraction_slack(cfg, diam1, diam2)
    rate_plain, rate_skew = contraction_rates(cfg, slack)
    if mutation == "overstated_skew_rate":
        stats = cfg.topology.xi_stats()
        rate_skew = cfg.kappa * (4.0 * stats.xi_min * stats.xi_mean - stats.xi_max ** 2)
    return -rate_plain * plain - rate_skew * skewed


def audit_correlation_contraction_series(
    columns: Mapping[str, np.ndarray], cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Series-level core of :func:`audit_correlation_contraction`: reads the
    ``t``, ``corr_sq``, ``corr_skew_sq``, ``diam_S`` and ``diam_S_tilde``
    columns."""
    if mutation not in (None, "overstated_skew_rate"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    times = np.asarray(columns["t"], dtype=float)
    plain = np.asarray(columns["corr_sq"], dtype=float)
    skewed = np.asarray(columns["corr_skew_sq"], dtype=float)
    diam1, diam2 = columns["diam_S"], columns["diam_S_tilde"]
    # the slopes of X + Y as dini_derivative_series takes them, with each
    # chunk's sums formed in turn: (X + Y)[k + 2] - (X + Y)[k], over 2 h
    lhs = plain[2:] + skewed[2:]
    rhs = np.empty_like(lhs)
    for rows in _chunk_rows(lhs.shape[0], 1):
        lhs[rows] -= plain[rows] + skewed[rows]
        mid = slice(rows.start + 1, rows.stop + 1)
        rhs[rows] = correlation_contraction_bound(
            plain[mid], skewed[mid], diam1[mid], diam2[mid], cfg, mutation
        )
    lhs /= 2.0 * slope_spacing(times)
    audited = np.ones_like(lhs, dtype=bool)
    spacing = float(times[1] - times[0])
    return _finish_audit(
        "correlation_contraction", times[1:-1], lhs, rhs, audited, audit_tolerance(spacing)
    )


def audit_correlation_contraction(
    traj1: Trajectory,
    traj2: Trajectory,
    cfg: ModelConfig,
    mutation: str | None = None,
) -> InequalityAudit:
    """Check the contraction inequality for the squared correlation gap
    between two solutions:

        d/dt (X + Y) <= -4 (k xi_min xi_mean - slack(t)) X
                        - k (4 xi_min xi_mean - (5/2) xi_max^2) Y

    with X the plain gap, Y the skew-part gap, and slack(t) evaluated at the
    two recorded diameters. The derivation for the implemented field is in
    :func:`stiefel_sync.model.contraction_rates`; for p = 1, Y = 0 and only
    the first term is audited. mutation="overstated_skew_rate" asks the skew
    sector for k (4 xi_min xi_mean - xi_max^2) instead, a rate that the
    field does not reach for p >= 2 (sensitivity check).
    """
    return audit_correlation_contraction_series(pair_columns(traj1, traj2), cfg, mutation)


def audit_agent_distance_bound_series(
    columns: Mapping[str, np.ndarray], cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Series-level core of :func:`audit_agent_distance_bound`: reads the
    ``t`` column, the per-agent distances ``dist_agent_<i>``, and Z as the
    elementwise maximum of ``diam_S`` and ``diam_S_tilde``."""
    if mutation not in (None, "drop_state_term"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    times = np.asarray(columns["t"], dtype=float)
    agents = _agent_distances(columns)
    count = len(agents)
    if count != cfg.agent_count:
        raise DimensionError(
            f"distance columns ({count}) do not match agent count ({cfg.agent_count})"
        )
    h = slope_spacing(times)

    # lhs holds the (K-2, N) table of interior distances x_i until their
    # slopes replace it, so the neighbour term is one product of the whole
    # table and no other table is formed; a product of fewer rows need not
    # give the same bits (numpy takes a one-row product through BLAS gemv)
    lhs = np.empty((times.shape[0] - 2, count))
    for i, column in enumerate(agents):
        lhs[:, i] = column[1:-1]
    weights = cfg.topology.weights
    row_sums = weights.sum(axis=1)
    rhs = lhs @ weights
    rhs /= count  # (1/N) sum_k a_ik x_k
    audited = lhs >= DISTANCE_FLOOR
    # the self and Z terms one agent and one chunk of rows at a time, in
    # place in the agent's column of the chunk: a broadcast product would
    # take a buffer as large as the chunk; the value is k (n_i - s_i) +
    # (k Z) s_i bit for bit, since a product commutes
    for rows in _chunk_rows(lhs.shape[0], count):
        if mutation != "drop_state_term":
            mid = slice(rows.start + 1, rows.stop + 1)
            z = cfg.kappa * np.maximum(columns["diam_S"][mid], columns["diam_S_tilde"][mid])
        for i in range(count):
            self_term = lhs[rows, i] * row_sums[i]
            self_term /= count  # (1/N) sum_k a_ik x_i
            part = rhs[rows, i]
            part -= self_term
            part *= cfg.kappa
            if mutation != "drop_state_term":
                self_term *= z
                part += self_term
    # each agent's slope as dini_derivative_series takes it, straight from
    # its column
    for i, column in enumerate(agents):
        np.subtract(column[2:], column[:-2], lhs[:, i])
    lhs /= 2.0 * h
    spacing = float(times[1] - times[0])
    return _finish_audit(
        "agent_distance_bound", times[1:-1], lhs, rhs, audited, audit_tolerance(spacing)
    )


def audit_agent_distance_bound(
    traj1: Trajectory,
    traj2: Trajectory,
    cfg: ModelConfig,
    mutation: str | None = None,
) -> InequalityAudit:
    """Check, for every agent i, that the measured slope of x_i = ||S_i - T_i||
    stays below

        (k/N) sum_k a_ik x_k - (k/N) sum_k a_ik x_i
        + (k Z(t)/N) sum_k a_ik x_i,

    with Z(t) the larger of the two diameters. Holds for any symmetric
    topology. Points with x_i below the distance floor are skipped (the norm
    is not differentiable at zero and the bound is vacuous there).
    mutation="drop_state_term" removes the Z(t) term (sensitivity check).
    """
    return audit_agent_distance_bound_series(pair_columns(traj1, traj2), cfg, mutation)


def audit_series(columns: Mapping[str, np.ndarray], cfg: ModelConfig) -> list[InequalityAudit]:
    """Every audit that the named series columns support, in the order
    diameter bound, correlation contraction, per-agent distance bound.

    ``columns`` uses the names of :func:`pair_columns` and of the emitted
    CSVs (see :func:`stiefel_sync.series_io.emit_series`): ``t`` and
    ``diam_S`` are required; ``corr_sq``, ``corr_skew_sq`` and
    ``diam_S_tilde`` add the correlation audit; ``dist_agent_<i>`` with
    ``diam_S_tilde`` add the per-agent audit.
    """
    if "t" not in columns or "diam_S" not in columns:
        raise ValidationError("series lacks the required t and diam_S columns")
    audits = [audit_diameter_bound_series(columns, cfg)]
    if {"corr_sq", "corr_skew_sq", "diam_S_tilde"} <= columns.keys():
        audits.append(audit_correlation_contraction_series(columns, cfg))
    if "diam_S_tilde" in columns and any(name.startswith("dist_agent_") for name in columns):
        audits.append(audit_agent_distance_bound_series(columns, cfg))
    return audits


# ---------------------------------------------------------------------------
# cubic invariant-region analysis


@dataclass(frozen=True)
class CubicReport:
    """Analysis of f(r) = r^3 - 2r + coefficient on (0, sqrt(2)).

    When f is negative at the diameter threshold, the two interior roots
    bracket it and the sub-threshold region is positively invariant for the
    running diameter.
    """

    coefficient: float
    roots_in_range: tuple[float, ...]
    threshold: float
    f_at_bound: float
    invariant_region_ok: bool


def cubic_analysis(cfg: ModelConfig) -> CubicReport:
    """Locate the invariant-region roots and evaluate f at the diameter
    threshold. An empty root tuple with ``invariant_region_ok`` False means
    the coefficient is too large for any invariant region."""
    coeff = cubic_coefficient(cfg)
    roots = cubic_invariant_roots(coeff)
    threshold = diameter_threshold(cfg)
    f_at_bound = threshold ** 3 - 2.0 * threshold + coeff
    return CubicReport(
        coefficient=coeff,
        roots_in_range=roots,
        threshold=threshold,
        f_at_bound=f_at_bound,
        invariant_region_ok=bool(f_at_bound < 0.0),
    )


# ---------------------------------------------------------------------------
# weighted power-mean gap


def holder_gap(xi, x, p_exp: float) -> float:
    """sum_ik xi_i xi_k x_k x_i^(p-1) - sum_ik xi_i xi_k x_i^p.

    Nonpositive for xi > 0, x >= 0, p_exp >= 1 (weighted power-mean
    comparison). Evaluated in the pairwise-symmetrized form
    sum_{i<k} xi_i xi_k (x_k - x_i)(x_i^(p-1) - x_k^(p-1)), whose terms are
    individually nonpositive, so the result is exactly zero at the equality
    cases (all x equal, or p_exp = 1) and never spuriously positive.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    if xi.shape != x.shape or xi.ndim != 1:
        raise DimensionError(f"length mismatch: {xi.shape} vs {x.shape}")
    if np.any(xi <= 0):
        raise ValidationError("weights xi must be strictly positive")
    if np.any(x < 0):
        raise ValidationError("values x must be nonnegative")
    if p_exp < 1:
        raise ValidationError(f"p_exp must be >= 1, got {p_exp}")
    powers = x ** (p_exp - 1.0)
    pair = np.outer(xi, xi) * (x[None, :] - x[:, None]) * (powers[:, None] - powers[None, :])
    return float(np.sum(np.triu(pair, k=1)))
