"""Measured counterparts of everything the theory predicts: pairwise
correlation matrices and the gap between two solutions' correlation sets,
consensus detection from a run's last snapshot, exponential-rate fitting,
uniform stability gains, differential-inequality audits, and the cubic
whose roots fence the running diameter.

Each audit compares a finite-difference derivative of a recorded series
against the corresponding bound evaluated on the same grid. The three
audits name only the values they audit and their bound; one driver
(``_slope_audit``) takes the slopes, subtracts the bound and keeps the
largest excess, chunk by chunk of the grid, and returns a verdict
(:class:`InequalityAudit`) with no table of the run's length. The audits
accept a named ``mutation`` that deliberately overstates their bound; a
healthy implementation must fail under the mutation on an adversarial run,
which is how the test suite proves the audits can detect violations at all.

A pair of runs is measured once: ``_PairSeries`` forms every series of
the pair chunk by chunk of snapshots, named as the pair CSV's columns, and
is the only place that subtracts two trajectories' states. It is fed by
:func:`pair_columns` from two stored runs, and by a scenario run from the
chunks ``integrate`` hands to its sink, with no trajectory kept. The
stability gain and the audits read only such columns, so a scenario run,
the re-audit of its CSV and a test's audit of two trajectories go through
the same code and agree bit for bit.

Each analysis is one fixed rule. Consensus detection
(:func:`consensus_status`) classifies a run's last snapshot with one
evaluation of the field, which gives the correlations' rate exactly there.
The decay fit (:func:`fit_window_mask`) and the audits' slopes
(:func:`slope_spacing`) are rules of the time grid, which the scenario
parser runs on the recorded grid before anything is integrated. An
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
    rhs,
)

# distances below this are treated as zero: the norm is not differentiable
# there and the per-agent inequality is vacuous
DISTANCE_FLOOR = 1e-12

# values are floored here before taking logs in rate fits
LOG_FLOOR = 1e-300

# identity gap below which a snapshot is at consensus, and the relative
# correlation rate below which it is locked (see consensus_status)
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


# ---------------------------------------------------------------------------
# correlations


def _gram(states: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
    """A[..., j, i] = L_j^T S_i for every ensemble of a (..., N, n, p) stack
    S and a stack L of its shape, L = S when ``left`` is None, as a
    C-contiguous (..., N, N, p, p) array: one y^T x product per ensemble,
    with x = [S_1 ... S_N] and y = [L_1 ... L_N] the (n, N p) matrices of
    their agents."""
    lead = states.shape[:-3]
    count, n, p = states.shape[-3:]

    def agents(stack):
        return np.swapaxes(stack, -3, -2).reshape(lead + (n, count * p))

    x = agents(states)
    y = x if left is None else agents(left)
    g = (np.swapaxes(y, -1, -2) @ x).reshape(lead + (count, p, count, p))
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


def correlation_gap_series(traj1: Trajectory, traj2: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Squared l2 gaps between two aligned trajectories' correlation sets at
    every snapshot: the plain gap sum_ij ||A_ji - B_ji||^2 and the gap of
    their skew parts. Bitwise the per-snapshot oracle
    ``tests/conftest.py::correlation_gap_components``."""
    _require_aligned(traj1, traj2)
    total = len(traj1)
    plain = np.empty(total)
    skew = np.empty(total)
    count, _, p = traj1.states.shape[-3:]
    # each chunk of snapshots, as many as have at most
    # manifold._PAIR_CHUNK_ENTRIES Gram entries (N^2 p^2 a snapshot), has
    # two Gram buffers, the only temporaries: the plain difference goes into
    # the first, its skew part into the second
    for rows in _chunk_rows(total, (count * p) ** 2):
        a, b = _gram(traj1.states[rows]), _gram(traj2.states[rows])
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
    """Class of one run's last snapshot (see :func:`consensus_status`).

    kind: "complete" (every correlation at the identity), "partial" (the
    correlations stationary, not all at the identity) or "none".
    ``max_rate`` is the largest ||dG_ij/dt|| at the snapshot, and
    ``rate_tol`` the rate up to which the correlations count as
    stationary.
    """

    kind: str
    max_identity_gap: float
    max_rate: float
    rate_tol: float


def _correlation_rate(state: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """dG_ji/dt = V_j^T S_i + S_j^T V_i for every pair of agents of one
    ensemble, as the (N, N, p, p) array of :func:`correlations`, from the
    field V = ``rhs(state, cfg)``: one field evaluation and one product."""
    cross = _gram(state, left=rhs(state, cfg))  # V_j^T S_i
    return cross + np.swapaxes(cross, 0, 1).swapaxes(-2, -1)


def consensus_status(state, cfg: ModelConfig) -> ConsensusStatus:
    """Classify one run's last snapshot ``state`` (N, n, p), say
    ``traj.states[-1]``, at tolerance tol = :data:`CONSENSUS_TOL`:

    - "complete" when every correlation G_ij = S_i^T S_j is within tol of
      the identity, max ||G_ij - I|| <= tol;
    - else "partial" when the correlations are stationary,
      max ||dG_ij/dt|| <= tol (kappa + max_i ||Omega_i||);
    - else "none".

    The norms are Frobenius norms of p x p blocks. The rate is exact at the
    snapshot (:func:`_correlation_rate`). A locked state need not be at
    rest: the field commutes with S_i -> Q S_i for Q in O(n), so a locked
    run can keep rotating as S(t) = Q(t) S* while its correlations, the
    coordinates of the quotient by that action, stay fixed (Sarlette and
    Sepulchre, SIAM J. Control Optim. 48, 2009).

    The rate scale comes from the closed flow of the correlations. With
    H_ij = (1/N) sum_k a_ik G_kj and A_ij = -Omega_i G_ij + kappa (H_ij -
    sym(H_ii) G_ij), the field gives dG_ij/dt = A_ij + A_ji^T, a function
    of G alone. Each term is kappa or one Omega_i times products of
    correlations and weights, so with weights of order one the flow is
    Lipschitz in G with a constant of order kappa + max_i ||Omega_i||.
    Correlations within tol of a stationary set therefore move at a rate of
    order tol (kappa + max_i ||Omega_i||), and a rate below that threshold
    reads as stationary on the same tolerance the identity gap uses. With
    kappa = 0 and zero generators the field, and so the threshold and the
    rate, are exactly zero: every state is stationary.

    Raises :class:`DimensionError` for anything but one ensemble (a stack
    of snapshots, a batch), and :class:`ValidationError` for a non-finite
    state."""
    state = np.asarray(state, dtype=float)
    if state.ndim != 3:
        raise DimensionError(
            f"consensus classifies one ensemble (N, n, p), got shape {state.shape}: pass a"
            " run's last snapshot, traj.states[-1], and split a batch with Trajectory.members()"
        )
    if not np.isfinite(state).all():
        raise ValidationError("consensus: the state is not finite")
    identity_gaps = correlations(state) - np.eye(state.shape[-1])
    rates = _correlation_rate(state, cfg)
    max_identity_gap, max_rate = (
        float(np.sqrt((blocks * blocks).sum(axis=(-2, -1))).max())
        for blocks in (identity_gaps, rates)
    )
    generators = float(np.sqrt((cfg.freqs * cfg.freqs).sum(axis=(-2, -1))).max())
    rate_tol = CONSENSUS_TOL * (cfg.kappa + generators)
    if max_identity_gap <= CONSENSUS_TOL:
        kind = "complete"
    elif max_rate <= rate_tol:
        kind = "partial"
    else:
        kind = "none"
    return ConsensusStatus(kind, max_identity_gap, max_rate, rate_tol)


# ---------------------------------------------------------------------------
# rate fitting and stability gain


def decay_fit_window(times) -> tuple[float, float]:
    """The window the decay fit runs on: the trailing half of the span of
    the grid, (t_0 + (T - t_0) / 2, T) with t_0 and T its first and last
    times; (T / 2, T) bit for bit on a grid from t = 0."""
    t_start, t_end = float(times[0]), float(times[-1])
    return (t_start + 0.5 * (t_end - t_start), t_end)


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
    """Verdict of checking measured slopes against a bound on a grid.

    ``max_violation`` is the largest excess of a slope over the bound at an
    audited interior point of the grid, clipped at zero; an audit whose
    excess is NaN at an audited point raises :class:`ValidationError`
    instead. The audit passes when ``max_violation`` is at most ``tol``.
    """

    name: str
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def _slope_audit(name, times, width, values, bound, floored=False) -> InequalityAudit:
    """The pass that every inequality audit makes over the grid ``times``:
    at each interior point t_k, the central-difference slope
    (v_{k+1} - v_{k-1}) / 2h of the audited values v, less the audit's
    bound at t_k, with h the grid's :func:`slope_spacing`.

    ``values(rows)`` gives v at the grid rows ``rows``, a column or a
    (rows, ``width``) table. ``bound(v, mid)`` gives the bound at the grid
    rows ``mid`` from the values ``v`` of the chunk, which hold one row more
    on either side of ``mid``. With ``floored``, points whose value is below
    :data:`DISTANCE_FLOOR` are not audited.

    The interior is walked in chunks of rows, with at most eight arrays of
    (rows, ``width``) entries live at once, so the chunk's temporaries hold
    at most ``manifold._PAIR_CHUNK_ENTRIES`` entries and no table of the
    run's length is formed. A max is exact, so the running max over the
    chunks is the whole grid's.
    """
    times = np.asarray(times, dtype=float)
    h = slope_spacing(times)
    worst = 0.0  # the verdict is clipped at zero
    for rows in _chunk_rows(times.shape[0] - 2, 8 * width):
        v = values(slice(rows.start, rows.stop + 2))
        gap = v[2:] - v[:-2]
        gap /= 2.0 * h
        gap -= bound(v, slice(rows.start + 1, rows.stop + 1))
        audited = v[1:-1] >= DISTANCE_FLOOR if floored else True
        largest = float(np.max(gap, where=audited, initial=-np.inf))
        # a NaN gap is no violation to max(), so it would pass unseen
        if math.isnan(largest):
            raise ValidationError(
                f"{name}: an audited gap is NaN; the series hold a non-finite value"
            )
        worst = max(worst, largest)
    return InequalityAudit(name, worst, audit_tolerance(h))


def audit_diameter_bound(
    columns: Mapping[str, np.ndarray], cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Check, on the ``t`` and ``diam_S`` columns, that the measured slope of
    the ensemble diameter D(t) stays below
    -k xi_min^2 / 2 * D + k xi_min^2 / 4 * D^3 + 2 sqrt(p) * spread.

    mutation="drop_cubic_term" removes the D^3 term (sensitivity check).
    """
    if mutation not in (None, "drop_cubic_term"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    half = cfg.kappa * cfg.topology.xi_stats().xi_min ** 2 / 2.0
    drive = 2.0 * np.sqrt(cfg.p) * cfg.freq_spread
    d = np.asarray(columns["diam_S"], dtype=float)

    def bound(v, mid):
        interior = v[1:-1]
        part = -half * interior
        part += drive
        if mutation != "drop_cubic_term":
            cubic = interior ** 3
            cubic *= half / 2.0
            part += cubic
        return part

    return _slope_audit("diameter_bound", columns["t"], 1, lambda rows: d[rows], bound)


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


def audit_correlation_contraction(
    columns: Mapping[str, np.ndarray], cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Check the contraction inequality for the squared correlation gap
    between two solutions:

        d/dt (X + Y) <= -4 (k xi_min xi_mean - slack(t)) X
                        - k (4 xi_min xi_mean - (5/2) xi_max^2) Y

    with X the plain gap (``corr_sq``), Y the skew-part gap
    (``corr_skew_sq``), and slack(t) evaluated at the two recorded diameters
    (``diam_S`` and ``diam_S_tilde``), on the grid ``t``. The derivation for
    the implemented field is in :func:`stiefel_sync.model.contraction_rates`;
    for p = 1, Y = 0 and only the first term is audited.
    mutation="overstated_skew_rate" asks the skew sector for
    k (4 xi_min xi_mean - xi_max^2) instead, a rate that the field does not
    reach for p >= 2 (sensitivity check).
    """
    if mutation not in (None, "overstated_skew_rate"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    plain = np.asarray(columns["corr_sq"], dtype=float)
    skewed = np.asarray(columns["corr_skew_sq"], dtype=float)
    diam1, diam2 = columns["diam_S"], columns["diam_S_tilde"]
    return _slope_audit(
        "correlation_contraction",
        columns["t"],
        1,
        lambda rows: plain[rows] + skewed[rows],
        lambda v, mid: correlation_contraction_bound(
            plain[mid], skewed[mid], diam1[mid], diam2[mid], cfg, mutation
        ),
    )


def audit_agent_distance_bound(
    columns: Mapping[str, np.ndarray], cfg: ModelConfig, mutation: str | None = None
) -> InequalityAudit:
    """Check, for every agent i, that the measured slope of x_i = ||S_i - T_i||
    (``dist_agent_<i>``) stays below

        (k/N) sum_k a_ik x_k - (k/N) sum_k a_ik x_i
        + (k Z(t)/N) sum_k a_ik x_i,

    with Z(t) the larger of the two diameters (``diam_S`` and
    ``diam_S_tilde``), on the grid ``t``. Holds for any symmetric topology.
    Points with x_i below the distance floor are skipped (the norm is not
    differentiable at zero and the bound is vacuous there).
    mutation="drop_state_term" removes the Z(t) term (sensitivity check).
    """
    if mutation not in (None, "drop_state_term"):
        raise ValidationError(f"unknown mutation {mutation!r}")
    agents = _agent_distances(columns)
    count = len(agents)
    if count != cfg.agent_count:
        raise DimensionError(
            f"distance columns ({count}) do not match agent count ({cfg.agent_count})"
        )
    weights = cfg.topology.weights
    row_sums = weights.sum(axis=1)

    def bound(x, mid):
        # k (n_i - s_i) + (k Z) s_i with n_i = (1/N) sum_k a_ik x_k and
        # s_i = (1/N) sum_k a_ik x_i; the product takes the chunk's rows with
        # their neighbours, so it never has one row, which numpy would take
        # through BLAS gemv with other bits than a product of more rows
        part = (x @ weights)[1:-1]
        part /= count
        self_term = x[1:-1] * row_sums
        self_term /= count
        part -= self_term
        part *= cfg.kappa
        if mutation != "drop_state_term":
            z = cfg.kappa * np.maximum(columns["diam_S"][mid], columns["diam_S_tilde"][mid])
            self_term *= z[:, None]
            part += self_term
        return part

    return _slope_audit(
        "agent_distance_bound",
        columns["t"],
        count,
        lambda rows: np.column_stack([column[rows] for column in agents]),
        bound,
        floored=True,
    )


# perfbench/tracer.py binds these names as well as the audits' own; ROADMAP
# item 1 drops them when it changes the tracer
audit_diameter_bound_series = audit_diameter_bound
audit_correlation_contraction_series = audit_correlation_contraction
audit_agent_distance_bound_series = audit_agent_distance_bound

# the columns a pair series holds beside the t and diam_S of its main run;
# the agents' distances are dist_agent_0 ... dist_agent_<N-1>
_PAIR_COLUMNS = ("corr_sq", "corr_skew_sq", "diam_S_tilde", "dist_agent_0")


def audit_series(columns: Mapping[str, np.ndarray], cfg: ModelConfig) -> list[InequalityAudit]:
    """Every audit of the named series columns, in the order diameter bound,
    correlation contraction, per-agent distance bound.

    ``columns`` uses the names of :func:`pair_columns` and of the emitted
    CSVs (see :func:`stiefel_sync.series_io.emit_series`). ``t`` and
    ``diam_S`` are required, and give the diameter audit alone. A series
    with any of ``corr_sq``, ``corr_skew_sq``, ``diam_S_tilde`` or a
    ``dist_agent_<i>`` column is a pair series: it must hold all of them,
    and gets all three audits. A missing column raises
    :class:`ValidationError`, which names the first one missing.
    """
    pair = any(name in _PAIR_COLUMNS or name.startswith("dist_agent_") for name in columns)
    for name in ("t", "diam_S") + (_PAIR_COLUMNS if pair else ()):
        if name not in columns:
            kind = "pair series" if pair else "series"
            raise ValidationError(f"{kind} lacks the {name!r} column")
    audits = [audit_diameter_bound(columns, cfg)]
    if pair:
        audits.append(audit_correlation_contraction(columns, cfg))
        audits.append(audit_agent_distance_bound(columns, cfg))
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
