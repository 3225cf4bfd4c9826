"""Fixed-step 4th-order Runge-Kutta integration in the ambient matrix space
with polar retraction back onto the manifold, and trajectory recording. The
series measured on recorded trajectories, and the finite-difference slopes
the inequality audits take of them, are in :mod:`stiefel_sync.diagnostics`.

The retraction is :func:`~stiefel_sync.linalg._polar_unchecked`: one
Newton-Schulz step for an ensemble within 1e-8 of orthonormal, which after
an RK4 step from the manifold is the usual case, and the eigendecomposition
of a^T a otherwise (after a large step, say).

Once per run, ``integrate`` builds the three stage configs
``cfg.scaled(c, lead)`` for c = h/2, h and h/6. The field is linear in
(kappa, Omega), so ``rhs`` of the stage config of c is c times the field,
and the RK4 scalars cost no call a step. ``lead`` is (B,) for a batch of
B ensembles, one ensemble stepped as a batch of 1, and the stage configs
hold their generators stacked to (B, N, p, p), the shape of the field's
temporary they are subtracted into. So no elementwise call of a step
broadcasts. It also lays out a
:class:`~stiefel_sync.linalg._Workspace` for its batch shape (B, N, n, p):
the state buffer, the stage-argument buffer and u1...u4, the temporaries,
and per buffer one tuple of every operand that ``rhs``, the retraction and
the drift gate read of it (the (B, N, n p) reshape, the transpose and the
temporaries). Each of the three takes its tuple with one dict lookup and
tests the shape of its output inline, so a step makes five calls into the
package (four under ``never``) and no workspace method call. A step only
fills these arrays: the state is copied in from ``initial``, which is only
read, and each recorded state is copied out, into a chunk of snapshots.

A chunk holds as many recorded snapshots as have at most
``manifold._PAIR_CHUNK_ENTRIES`` state entries, B N n p a snapshot, and at
least one. Once a chunk is full, its drift and diameters are taken in one
call each, through this module's globals, into the run's (B, K) columns.
Without a sink the chunks are consecutive rows of the stored (B, K, N, n,
p) stack. With a sink they share one buffer: each full chunk is handed to
the sink and then overwritten, so the run holds one chunk of states, never
its trajectory.

One step calls ``rhs(x, cfg_c, work, u)`` four times, through this
module's globals:

    u1 = (h/2) k1 = rhs(s,      cfg_h/2)
    u2 = (h/2) k2 = rhs(s + u1, cfg_h/2)
    u3 =  h    k3 = rhs(s + u2, cfg_h)
    u4 = (h/6) k4 = rhs(s + u3, cfg_h/6)

and combines the stages in place, into the state buffer, as s + (((u1 +
u3) + 2 u2) / 3 + u4), which is s + (h/6) (k1 + 2 k2 + 2 k3 + k4): adds,
one multiply by a 0-d 1/3, then + s. The stage arithmetic is 9 numpy calls
and ``rhs`` 7 a call. Then, by the policy, which is decided once per run:

- ``every_step``: ``_polar_unchecked(s, s, work)`` once on the whole batch,
  writing into the state buffer (6 calls). Its gate on the Gram defect
  doubles as the finiteness test, which runs only when the gate fails; a
  non-finite state raises :class:`DivergenceError` there, before anything
  is written. 43 numpy calls a step.
- ``on_drift``: a gate of one Gram product d = S^T S - I, into the
  workspace, and one dot product of d with itself (3 calls, 40 a step).
  Every member's ||d||_F^2 is at most that sum of squares, so every member
  is within the retraction's own bound, ``NEWTON_SCHULZ_DEFECT`` (1e-8),
  when the sum is at most the workspace's ``polar_limit``
  (:func:`~stiefel_sync.linalg._drift_limit` of the B N p^2 squares), a
  bound with a margin for the rounding of both the sum and the drift; NaN
  and Inf fail it. Only a failed gate runs the exact path: a finiteness
  test, ``orthonormality_drift`` once, and ``_polar_unchecked`` once on
  the members over the bound, if any, with a one-shot workspace of their
  shape. So each step retracts exactly the members the exact drift puts
  over the bound.
- ``never``: a finiteness test only (38 calls a step).

The step size is fixed so that two runs over the same horizon share their
time grid bitwise, which the pairwise diagnostics rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DivergenceError, ValidationError
from .linalg import _NonFiniteInput, _polar_unchecked, _Workspace
from .manifold import (
    _chunk_rows,
    _drift_within,
    ensemble_diameter,
    orthonormality_drift,
    validate_ensemble,
)
from .model import ModelConfig, _check_state_shape, rhs
from .tolerances import NEWTON_SCHULZ_DEFECT

RETRACTION_POLICIES = ("every_step", "on_drift", "never")

# float64 entries in the largest array numpy can address
_MAX_SNAPSHOTS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, retraction policy, and recording stride.

    ``on_drift`` retracts only the members whose orthonormality defect
    exceeds the retraction's own bound, ``NEWTON_SCHULZ_DEFECT`` (1e-8);
    ``never`` disables retraction (used to measure raw integrator drift).
    Snapshots are kept every ``record_stride`` steps, and the final step is
    always recorded.
    """

    h: float = 1e-3
    t_end: float = 50.0
    retraction: str = "every_step"
    record_stride: int = 10

    def __post_init__(self):
        # NaN fails every comparison, so finiteness is tested first
        if not math.isfinite(self.h) or self.h <= 0:
            raise ValidationError(f"step size h must be finite and positive, got {self.h}")
        if not math.isfinite(self.t_end) or self.t_end < 0:
            raise ValidationError(
                f"horizon t_end must be finite and nonnegative, got {self.t_end}"
            )
        if self.retraction not in RETRACTION_POLICIES:
            raise ValidationError(
                f"retraction must be one of {RETRACTION_POLICIES}, got {self.retraction!r}"
            )
        # a bool is an int to Python, and a float stride cannot step a range
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValidationError(f"record_stride must be a positive integer, got {stride!r}")
        # the run stores t_end / h / record_stride + 1 snapshot times; reject a
        # grid no array can hold before anything is allocated (t_end / h is
        # inf for a subnormal h, which the comparison rejects too)
        steps = self.t_end / self.h
        if not steps / self.record_stride + 1 <= _MAX_SNAPSHOTS:
            raise ValidationError(
                f"h = {self.h} with t_end = {self.t_end} gives {steps:.3g} steps,"
                f" more snapshots than an array can hold (record_stride {self.record_stride})"
            )

    @property
    def steps(self) -> int:
        """Number of steps: the horizon rounded to a whole number of steps."""
        return int(round(self.t_end / self.h))

    def recorded_steps(self) -> np.ndarray:
        """The steps whose states a run records: every ``record_stride``-th
        from step 0, and the final one. A snapshot's time is its step times
        ``h``, so ``recorded_steps() * h`` is the grid of every run."""
        return np.append(np.arange(0, self.steps, self.record_stride), self.steps)

    @property
    def snapshot_count(self) -> int:
        """Length of :meth:`recorded_steps`, without laying the grid out."""
        return len(range(0, self.steps, self.record_stride)) + 1


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of an integration run.

    times: (K,) strictly increasing; states: (K, N, n, p);
    drift: (K,) orthonormality defects; diameters: (K,) ensemble diameters.
    A batch of B runs keeps one ``times`` grid and puts the member axis
    first: states (B, K, N, n, p), drift and diameters (B, K). Drift and
    diameters are taken chunk by chunk of recorded snapshots (see
    :func:`integrate`). A run handed to a sink keeps no states: ``states``
    is None, and ``times``, ``drift`` and ``diameters`` are whole.
    """

    times: np.ndarray
    states: np.ndarray
    drift: np.ndarray
    diameters: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    def members(self) -> list["Trajectory"]:
        """The runs of a batch as single-run views that share ``times``; a
        single run is its own only member."""
        if self.drift.ndim == 1:
            return [self]
        states = [None] * len(self.drift) if self.states is None else self.states
        runs = zip(states, self.drift, self.diameters)
        return [Trajectory(self.times, *run) for run in runs]


def integrate(
    initial,
    cfg: ModelConfig,
    icfg: IntegratorConfig,
    sink: Callable[[slice, Trajectory], None] | None = None,
) -> Trajectory:
    """Integrate the system from ``initial`` over [0, t_end].

    ``initial`` is one ensemble (N, n, p) or a batch (B, N, n, p) stepped in
    one loop; each member's run is bitwise the one it has on its own.
    The stage configs, the workspace and the retraction policy are set up
    once per run; the loop only steps and records snapshots, and each full
    chunk of them gets its drift and diameters from one call each. The
    horizon is rounded to a whole number of steps.

    Without a ``sink`` the chunks are stored, and the result holds every
    recorded state. With one, ``sink(rows, chunk)`` is called once a chunk
    is full, in time order, with ``rows`` the chunk's slice of the grid and
    ``chunk`` a :class:`Trajectory` of those snapshots, shaped as the result
    is (a batch for a batch). Its states are a buffer that the next chunk
    overwrites, so a sink copies what it keeps; the result has no states.

    Raises :class:`DivergenceError` carrying the last good time when any
    state entry becomes non-finite; a batch names its first member to
    diverge. The chunks before it have been handed to the sink by then.
    """
    initial = np.asarray(initial, dtype=float)
    batched = initial.ndim == 4
    s = initial if batched else initial[None]
    count = s.shape[0]
    if count < 1:
        raise DimensionError("batch needs at least one ensemble")
    for member in s:
        _check_state_shape(validate_ensemble(member), cfg)
    h = float(icfg.h)
    # the stage configs: rhs of each is c k for c = h/2, h, h/6, with the
    # generators stacked to the batch's shape
    lead = s.shape[:1]
    half, whole, sixth = (cfg.scaled(c, lead) for c in (0.5 * h, h, h / 6.0))
    # a 0-d array spares each ufunc call the conversion of a Python float
    third = np.array(1.0 / 3.0)
    # the retraction policy, decided once per run
    every_step, gated = icfg.retraction == "every_step", icfg.retraction == "on_drift"
    work = _Workspace(s.shape, bound=6)
    state, arg, u1, u2, u3, u4 = work.buffers
    np.copyto(state, s)
    recorded = icfg.recorded_steps()
    times = recorded * h
    total = times.shape[0]
    drift = np.empty((count, total))
    diameters = np.empty((count, total))
    states = np.empty((count, total) + s.shape[1:]) if sink is None else None
    buffer = None
    step = 0

    # overflow in a diverging step, and a zero eigenvalue in its retraction,
    # is reported through DivergenceError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rows in _chunk_rows(total, s.size):
            if sink is None:
                block = states[:, rows]
            else:
                # the first chunk is the longest, and the others reuse it
                if buffer is None:
                    buffer = np.empty((count, rows.stop) + s.shape[1:])
                block = buffer[:, : rows.stop - rows.start]
            # the step each snapshot of the chunk is recorded after
            for row, mark in enumerate(recorded[rows].tolist()):
                # the steps up to the snapshot's own; none for step 0
                for step in range(step + 1, mark + 1):
                    # rhs and _polar_unchecked are called positionally
                    # through this module's globals, where call counters
                    # can wrap them
                    rhs(state, half, work, u1)
                    rhs(np.add(state, u1, out=arg), half, work, u2)
                    rhs(np.add(state, u2, out=arg), whole, work, u3)
                    rhs(np.add(state, u3, out=arg), sixth, work, u4)
                    # s + (((u1 + u3) + 2 u2) / 3 + u4), the sum in u1
                    np.add(u1, u3, out=u1)
                    np.add(u1, np.add(u2, u2, out=u2), out=u1)
                    np.multiply(third, u1, out=u1)
                    np.add(u1, u4, out=u1)
                    np.add(state, u1, out=state)
                    if every_step:
                        # the retraction's gate tests finiteness
                        try:
                            _polar_unchecked(state, state, work)
                        except _NonFiniteInput:
                            raise _divergence(state, step, h) from None
                    elif not (gated and _drift_within(state, work)):
                        # under on_drift, only a state the gate cannot clear
                        # gets here
                        if not np.isfinite(state).all():
                            raise _divergence(state, step, h)
                        if gated:
                            over = orthonormality_drift(state) > NEWTON_SCHULZ_DEFECT
                            if over.any():
                                state[over] = _polar_unchecked(state[over])
                block[:, row] = state
            # the chunk is full: its drift and diameters, one call each
            drift[:, rows] = orthonormality_drift(block)
            diameters[:, rows] = ensemble_diameter(block)
            if sink is not None:
                chunk = Trajectory(times[rows], block, drift[:, rows], diameters[:, rows])
                sink(rows, chunk if batched else chunk.members()[0])

    traj = Trajectory(times=times, states=states, drift=drift, diameters=diameters)
    return traj if batched else traj.members()[0]


def _divergence(s: np.ndarray, step: int, h: float) -> DivergenceError:
    """The error for a batch ``s`` that is non-finite after ``step``; it
    names the first non-finite member of a batch of several."""
    finite = np.isfinite(s).reshape(s.shape[0], -1).all(axis=1)
    where = f" in member {int(np.argmin(finite))}" if s.shape[0] > 1 else ""
    return DivergenceError(
        f"non-finite state{where} at t = {step * h:.6g}", last_good_time=(step - 1) * h
    )
