"""Stiefel-manifold layer: validated points and ensembles, Haar sampling,
polar retraction, tangent-space checks, and ensemble distance functionals.

A *point* is an (n, p) float64 array with orthonormal columns. An *ensemble*
is an (N, n, p) stack of such points sharing dimensions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import (
    _first_failure,
    _frobenius_norms,
    _identity,
    _polar_checked,
    _Workspace,
    qr_thin,
)
from .tolerances import ORTH_CONSTRUCTION_TOL


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _point_checks(x: np.ndarray, name) -> list:
    """The checks of :func:`validate_ensemble` on every matrix of a stack
    (..., n, p), for :func:`~stiefel_sync.linalg._first_failure`: a NaN or
    Inf entry, then ||x^T x - I|| over tolerance. ``name`` maps a matrix's
    flat index to the name its error gives it.

    The norm needs no test of its own: | ||x||^2 - p | = |tr(x^T x - I)| <=
    sqrt(p) ||x^T x - I||, so a passing defect bounds | ||x|| - sqrt(p) | =
    | ||x||^2 - p | / (||x|| + sqrt(p)) by about half the tolerance."""
    finite = np.isfinite(x).all(axis=(-2, -1))
    # the defect of a matrix that fails the first check is never reported
    with np.errstate(all="ignore"):
        defects = _frobenius_norms(_gram_defect(x))
    return [
        (~finite, lambda k: ValidationError(f"{name(k)} contains NaN or Inf entries")),
        (
            defects > ORTH_CONSTRUCTION_TOL,
            lambda k: ValidationError(
                f"{name(k)} is off the manifold: ||x^T x - I|| = {defects.flat[k]:.3e}"
            ),
        ),
    ]


def validate_ensemble(states) -> np.ndarray:
    """Validate an (N, n, p) stack of Stiefel points, all at once: each
    agent's entries are finite and ||S_i^T S_i - I|| is within
    ``ORTH_CONSTRUCTION_TOL``. The first agent that fails raises the error
    of the first check it fails, naming it ``agent i``."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3:
        raise DimensionError(f"ensemble must be (N, n, p), got shape {states.shape}")
    if states.shape[0] < 1:
        raise DimensionError("ensemble needs at least one agent")
    if states.shape[2] > states.shape[1]:
        raise DimensionError(f"agent 0 needs p <= n, got shape {states.shape[1:]}")
    _first_failure(*_point_checks(states, lambda k: f"agent {k}"))
    return states


def _per_ensemble(values: np.ndarray):
    """A float for one ensemble, the array itself for a stack."""
    return float(values) if values.ndim == 0 else values


def _check_ensembles(states) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.ndim < 3:
        raise DimensionError(f"ensemble must be (..., N, n, p), got shape {states.shape}")
    return states


def orthonormality_drift(states):
    """max_i ||S_i^T S_i - I||, the distance of an ensemble from the manifold.

    Leading axes stack ensembles: one (N, n, p) ensemble gives a float, a
    (..., N, n, p) stack an array with one value per ensemble. A stack is
    walked in chunks of ensembles (see ``_PAIR_CHUNK_ENTRIES``), each
    chunk's Gram defect reduced into the output as it is formed.
    """
    states = _check_ensembles(states)
    flat, drift = _flat_ensembles(states)
    for rows in _chunk_rows(flat.shape[0], math.prod(flat.shape[1:])):
        gram = _gram_defect(flat[rows])
        np.multiply(gram, gram, gram)
        # sqrt is monotone, so the root of the largest square is the largest norm
        drift[rows] = np.sqrt(gram.sum(axis=(-2, -1)).max(axis=-1))
    return _per_ensemble(drift.reshape(states.shape[:-3]))


def _gram_defect(states: np.ndarray) -> np.ndarray:
    """S_i^T S_i - I of every agent of a stack, as a new array."""
    gram = states.swapaxes(-2, -1) @ states
    gram -= _identity(states.shape[-1])
    return gram


def _drift_within(states: np.ndarray, work: _Workspace) -> bool:
    """One Gram product and one dot product: True only if the sum of the
    squares of every entry of every S_i^T S_i - I of the stack is at most
    the workspace's ``polar_limit``
    (:func:`~stiefel_sync.linalg._drift_limit` of the number of squares);
    every ensemble's drift is then within the retraction's bound,
    ``NEWTON_SCHULZ_DEFECT``. A NaN or Inf entry of ``states`` makes a
    diagonal entry of the defect NaN or Inf, and so the sum, which never
    passes. The transpose of ``states``, the retraction's temporary for the
    defect, the stacked identity and the limit come from one lookup in the
    views of ``work``, a :class:`~stiefel_sync.linalg._Workspace` for the
    stack's shape; ``states`` not bound there is shape-checked against
    it."""
    views = work.views.get(id(states))
    if views is None:
        views = work.views_of(states)
    _, s_t, _, (d, _, _, _, eye, limit) = views
    np.matmul(s_t, states, d)
    np.subtract(d, eye, d)
    return np.vdot(d, d) <= limit


def random_stiefel(n: int, p: int, seed=None) -> np.ndarray:
    """Haar-distributed point: sign-fixed thin QR of an n x p standard Gaussian."""
    return random_ensemble(n, p, 1, seed)[0]


def random_ensemble(n: int, p: int, count: int, seed=None) -> np.ndarray:
    """Stack of independent Haar points, from one (count, n, p) Gaussian
    draw and one batched QR: the same stream, and bit for bit the same
    points, as ``count`` successive :func:`random_stiefel` draws."""
    if not 1 <= p <= n:
        raise DimensionError(f"need 1 <= p <= n, got n={n}, p={p}")
    if count < 1:
        raise DimensionError("ensemble needs at least one agent")
    q, _ = qr_thin(_as_rng(seed).standard_normal((count, n, p)))
    return q


def random_tangent(point, seed=None, norm: float | None = None) -> np.ndarray:
    """Random tangent vector at ``point``: a Gaussian with the symmetric part
    of the horizontal component removed, optionally rescaled to ``norm``.

    A stack of points (..., n, p) gets one independent tangent per point
    from one draw, each rescaled to ``norm``: bit for bit the tangents of
    successive single-point calls on the same generator. A ``norm`` so
    large that a rescaling overflows gives that tangent Inf entries, and
    warns of nothing, so its retraction fails as non-finite."""
    rng = _as_rng(seed)
    v = tangent_project(point, rng.standard_normal(np.shape(point)))
    if norm is not None:
        sizes = _frobenius_norms(v)
        if not np.all(sizes):
            raise ValidationError("degenerate zero tangent sample")
        with np.errstate(over="ignore", invalid="ignore"):
            v = v * (norm / sizes)[..., None, None]
    return v


def tangent_project(point, v) -> np.ndarray:
    """Orthogonal projection of v onto the tangent space at ``point``; a
    stack of points (..., n, p) projects a stack of directions pointwise."""
    v = np.asarray(v, dtype=float)
    m = np.swapaxes(point, -2, -1) @ v
    return v - point @ ((m + np.swapaxes(m, -2, -1)) / 2.0)


def near_consensus_ensemble(
    n: int, p: int, count: int, radius: float, seed=None
) -> np.ndarray:
    """Ensemble clustered around one random base point.

    Each agent is the retraction of base + (random tangent of norm
    ``radius``), so the ensemble diameter is at most about 2 * radius.
    """
    rng = _as_rng(seed)
    base = random_stiefel(n, p, rng)
    return perturb_ensemble(np.repeat(base[None], count, 0), radius, rng)


def perturb_ensemble(states, radius: float, seed=None) -> np.ndarray:
    """Displace every agent along an independent random tangent of norm
    ``radius`` and retract; yields a nearby ensemble for pairwise runs.

    One draw, one projection and one retraction for the whole ensemble,
    bit for bit the agents of a loop that displaces and retracts one agent
    at a time on the same generator. An agent that cannot be retracted
    raises what it raises in that loop, for the first such agent; a zero
    tangent (every agent's at n = p = 1) is reported before any."""
    states = np.asarray(states, dtype=float)
    return retract(states + random_tangent(states, seed, norm=radius))


def retract(x) -> np.ndarray:
    """Closest-point (polar) retraction onto the manifold, validated.

    A stack (..., n, p) is retracted in one pass; its first matrix that
    cannot be retracted raises the error it raises alone."""
    u, checks = _polar_checked(x)
    _first_failure(*checks, *_point_checks(u, lambda k: "retracted point"))
    return u


def tangent_residual(point, v) -> float:
    """||s^T v + v^T s||; zero exactly when v is tangent at s."""
    point = np.asarray(point, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape != point.shape:
        raise DimensionError(f"direction shape {v.shape} != point shape {point.shape}")
    m = point.T @ v
    return float(np.linalg.norm(m + m.T))


# entries per chunk of every pass over recorded snapshots: 32 ensembles of 8
# agents of (6, 2) differenced pairwise (28 pairs of 12 entries), 86 kB. Its
# users, each of which writes a chunk's result straight into its output:
# integrate's chunks of recorded snapshots (state entries of every run of
# the batch), orthonormality_drift (entries of the ensembles read),
# _pair_sq_chunks for ensemble_diameter and model.potential (entries
# differenced), diagnostics.pair_columns (entries of both runs' snapshots)
# and the Gram passes of diagnostics, the correlation gap series and
# consensus detection (Gram entries, N^2 p^2 a snapshot). So no temporary
# grows with the number of recorded snapshots.
_PAIR_CHUNK_ENTRIES = 32 * 28 * 12


def _chunk_rows(total: int, entries: int):
    """Slices of ``range(total)``, as many rows each as hold at most
    ``_PAIR_CHUNK_ENTRIES`` entries at ``entries`` a row, and at least
    one."""
    size = max(1, _PAIR_CHUNK_ENTRIES // max(1, entries))
    for start in range(0, total, size):
        yield slice(start, min(start + size, total))


def _flat_ensembles(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (..., N, n, p) stack as (E, N, n, p), E its number of ensembles,
    and an empty (E,) output with one value per ensemble."""
    flat = states.reshape((-1,) + states.shape[-3:])
    return flat, np.empty(flat.shape[0])


@functools.cache
def _pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The agents i < k of every pair of ``count`` agents, read-only, built
    once per count."""
    i, k = np.triu_indices(count, 1)
    i.setflags(write=False)
    k.setflags(write=False)
    return i, k


def _pair_sq_chunks(flat: np.ndarray):
    """Yield ``(rows, table)`` over chunks of an (E, N, n, p) stack, where
    ``table[r]`` is the (N, N) table of squared Frobenius distances
    ||S_i - S_k||^2 of ensemble ``rows[r]``.

    A chunk is as many ensembles as difference at most
    ``_PAIR_CHUNK_ENTRIES`` entries (32 ensembles of 8 agents of (6, 2)):
    both agents of every pair i < k are gathered at once, subtracted,
    squared in place and summed over each contiguous (n, p) block, and both
    halves of the table are scattered. So no table of the whole stack and no
    (..., N, N, n, p) difference array is held, and each distance is the sum
    of the same explicit differences, in the same order, that one pair at a
    time gives, bit for bit. Explicit differences (not Gram identities) keep
    small distances at full relative precision. One agent has no pair, and
    its tables are zero.
    """
    count, n, p = flat.shape[1:]
    i, k = _pairs(count)
    for rows in _chunk_rows(flat.shape[0], i.size * n * p):
        chunk = flat[rows]
        table = np.zeros((chunk.shape[0], count, count))
        if i.size:
            diff = np.take(chunk, i, axis=1)
            np.subtract(diff, np.take(chunk, k, axis=1), diff)
            np.multiply(diff, diff, diff)
            squares = diff.reshape(diff.shape[:2] + (-1,)).sum(axis=-1)
            table[:, i, k] = squares
            table[:, k, i] = squares
        yield rows, table


def ensemble_diameter(states):
    """Largest pairwise Frobenius distance max_{i,j} ||S_i - S_j||.

    Leading axes stack ensembles: one (N, n, p) ensemble gives a float, a
    (..., N, n, p) stack an array with one value per ensemble, each chunk's
    distance tables reduced as they come (see :func:`_pair_sq_chunks`).
    """
    states = _check_ensembles(states)
    flat, diameters = _flat_ensembles(states)
    for rows, table in _pair_sq_chunks(flat):
        diameters[rows] = np.sqrt(table.max(axis=(-2, -1)))
    return _per_ensemble(diameters.reshape(states.shape[:-3]))
