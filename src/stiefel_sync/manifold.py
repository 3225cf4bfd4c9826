"""Stiefel-manifold layer: validated points and ensembles, Haar sampling,
polar retraction, tangent-space checks, and ensemble distance functionals.

A *point* is an (n, p) float64 array with orthonormal columns. An *ensemble*
is an (N, n, p) stack of such points sharing dimensions.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import _drift_limit, _identity, _Workspace, polar_factor, qr_thin
from .tolerances import ORTH_CONSTRUCTION_TOL


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def validate_stiefel(x, name: str = "point") -> np.ndarray:
    """Check orthonormal columns: ||x^T x - I|| within tolerance.

    The norm needs no test of its own: | ||x||^2 - p | = |tr(x^T x - I)| <=
    sqrt(p) ||x^T x - I||, so a passing defect bounds | ||x|| - sqrt(p) | =
    | ||x||^2 - p | / (||x|| + sqrt(p)) by about half the tolerance."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {x.shape}")
    n, p = x.shape
    if p > n:
        raise DimensionError(f"{name} needs p <= n, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    defect = np.linalg.norm(x.T @ x - np.eye(p))
    if defect > ORTH_CONSTRUCTION_TOL:
        raise ValidationError(f"{name} is off the manifold: ||x^T x - I|| = {defect:.3e}")
    return x


def validate_ensemble(states) -> np.ndarray:
    """Validate an (N, n, p) stack of Stiefel points."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3:
        raise DimensionError(f"ensemble must be (N, n, p), got shape {states.shape}")
    if states.shape[0] < 1:
        raise DimensionError("ensemble needs at least one agent")
    for i in range(states.shape[0]):
        validate_stiefel(states[i], name=f"agent {i}")
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
    (..., N, n, p) stack an array with one value per ensemble.
    """
    gram = _gram_defect(_check_ensembles(states))
    # sqrt is monotone, so the root of the largest square is the largest norm
    return _per_ensemble(np.sqrt((gram * gram).sum(axis=(-2, -1)).max(axis=-1)))


def _gram_defect(states: np.ndarray) -> np.ndarray:
    """S_i^T S_i - I of every agent of a stack, as a new array."""
    gram = states.swapaxes(-2, -1) @ states
    gram -= _identity(states.shape[-1])
    return gram


def _drift_within(states: np.ndarray, limit: float, work: _Workspace | None = None) -> bool:
    """One Gram product and one dot product: True only if the sum of the
    squares of every entry of every S_i^T S_i - I of the stack is at most
    ``limit``, from :func:`_drift_limit` of the threshold and the number of
    squares; every ensemble's drift is then within the threshold. A NaN or
    Inf entry of ``states`` makes a diagonal entry of the defect NaN or
    Inf, and so the sum, which never passes. The defect goes to the
    ``defect`` buffer of ``work``, a one-shot workspace when None."""
    d = (_Workspace(states.shape) if work is None else work).gram_defect(states)
    return np.vdot(d, d) <= limit


def random_stiefel(n: int, p: int, seed=None) -> np.ndarray:
    """Haar-distributed point: sign-fixed thin QR of an n x p standard Gaussian."""
    if not 1 <= p <= n:
        raise DimensionError(f"need 1 <= p <= n, got n={n}, p={p}")
    rng = _as_rng(seed)
    q, _ = qr_thin(rng.standard_normal((n, p)))
    return q


def random_ensemble(n: int, p: int, count: int, seed=None) -> np.ndarray:
    """Stack of independent Haar points."""
    rng = _as_rng(seed)
    return np.stack([random_stiefel(n, p, rng) for _ in range(count)])


def random_tangent(point, seed=None, norm: float | None = None) -> np.ndarray:
    """Random tangent vector at ``point``: a Gaussian with the symmetric part
    of the horizontal component removed, optionally rescaled to ``norm``."""
    rng = _as_rng(seed)
    g = rng.standard_normal(point.shape)
    v = tangent_project(point, g)
    if norm is not None:
        size = np.linalg.norm(v)
        if size == 0.0:
            raise ValidationError("degenerate zero tangent sample")
        v = v * (norm / size)
    return v


def tangent_project(point, v) -> np.ndarray:
    """Orthogonal projection of v onto the tangent space at ``point``."""
    m = point.T @ np.asarray(v, dtype=float)
    return v - point @ ((m + m.T) / 2.0)


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
    ``radius`` and retract; yields a nearby ensemble for pairwise runs."""
    states = np.asarray(states, dtype=float)
    rng = _as_rng(seed)
    moved = [
        retract(states[i] + random_tangent(states[i], rng, norm=radius))
        for i in range(states.shape[0])
    ]
    return np.stack(moved)


def retract(x) -> np.ndarray:
    """Closest-point (polar) retraction onto the manifold, validated."""
    u = polar_factor(x)
    if u.ndim == 2:
        return validate_stiefel(u, name="retracted point")
    return validate_ensemble(u)


def tangent_residual(point, v) -> float:
    """||s^T v + v^T s||; zero exactly when v is tangent at s."""
    point = np.asarray(point, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape != point.shape:
        raise DimensionError(f"direction shape {v.shape} != point shape {point.shape}")
    m = point.T @ v
    return float(np.linalg.norm(m + m.T))


def pair_sq_distances(states) -> np.ndarray:
    """Table of squared Frobenius distances ||S_i - S_k||^2, shape (..., N, N).

    Built one pair at a time (i < k, mirrored), each pair over every leading
    axis at once, so no (..., N, N, n, p) difference array is held. Explicit
    differences (not Gram identities) keep small distances at full relative
    precision.
    """
    states = _check_ensembles(states)
    count = states.shape[-3]
    table = np.zeros(states.shape[:-3] + (count, count))
    for i in range(count - 1):
        for k in range(i + 1, count):
            diff = states[..., i, :, :] - states[..., k, :, :]
            table[..., i, k] = table[..., k, i] = (diff * diff).sum(axis=(-2, -1))
    return table


def ensemble_diameter(states):
    """Largest pairwise Frobenius distance max_{i,j} ||S_i - S_j||.

    Leading axes stack ensembles: one (N, n, p) ensemble gives a float, a
    (..., N, n, p) stack an array with one value per ensemble.
    """
    squares = pair_sq_distances(states)
    return _per_ensemble(np.sqrt(squares.max(axis=(-2, -1))))
