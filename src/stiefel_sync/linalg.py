"""Dense matrix helpers: validation, Frobenius norm, thin QR with a
fixed sign convention, polar decomposition, and the exponential of a
skew-symmetric matrix.

The public :func:`polar_factor` always uses the eigendecomposition; the
integrator's retraction takes a Newton-Schulz step near the manifold.

Everything is plain float64 ndarrays. Shape-changing bugs surface as
:class:`~stiefel_sync.errors.DimensionError` instead of broadcast surprises,
which is why the thin wrappers exist at all.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError, ProjectionError, RankDeficiencyError, ValidationError
from .tolerances import ALGEBRAIC_TOL, RANK_TOL


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 2-D array and reject non-finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return a


def require_skew(x, name: str = "skew matrix") -> np.ndarray:
    """Validate a square skew-symmetric matrix:
    ||x + x^T|| <= ALGEBRAIC_TOL * max(1, ||x||)."""
    x = require_matrix(x, name)
    if x.shape[0] != x.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {x.shape}")
    defect = np.linalg.norm(x + x.T)
    if defect > ALGEBRAIC_TOL * max(1.0, np.linalg.norm(x)):
        raise ValidationError(f"{name} is not skew-symmetric (defect {defect:.3e})")
    return x


def frobenius(a) -> float:
    """Frobenius norm sqrt(tr(a^T a))."""
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def qr_thin(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with nonnegative R diagonal.

    The sign convention makes the factorization unique for full-rank input,
    so results are reproducible across runs. Raises
    :class:`RankDeficiencyError` when a diagonal entry of R falls below
    ``RANK_TOL * ||a||``.
    """
    a = require_matrix(a)
    rows, cols = a.shape
    if rows < cols:
        raise DimensionError(f"qr_thin needs rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    r = d[:, None] * r
    scale = np.linalg.norm(a)
    if np.any(np.abs(np.diag(r)) <= RANK_TOL * scale):
        raise RankDeficiencyError(
            f"rank-deficient input: min |R_ii| = {np.min(np.abs(np.diag(r))):.3e}"
        )
    return q, r


# largest orthonormality defect max|a^T a - I| at which one Newton-Schulz
# step stands in for the polar factor: its error (3/8) d^2 is then ~1e-17
_NEWTON_SCHULZ_DEFECT = 1e-8


@functools.cache
def _identity(p: int) -> np.ndarray:
    """The read-only p x p identity, built once per size."""
    eye = np.eye(p)
    eye.setflags(write=False)
    return eye


class _NonFiniteInput(Exception):
    """Raised by :func:`_polar_unchecked` for an input with a NaN or Inf
    entry, which has no polar factor."""


def _polar_unchecked(a: np.ndarray) -> np.ndarray:
    """Polar factor of an ensemble (N, n, p) or a batch (..., N, n, p)
    without input validation (integration hot path).

    With d = a^T a - I, the polar factor is a (I + d)^{-1/2} = a (I - d/2 +
    (3/8) d^2 - ...). Every ensemble whose max|d| is at most 1e-8, as after
    an RK4 step from the manifold, gets the Newton-Schulz step a - a d/2
    (Higham 1986), equal to the polar factor up to rounding. Any other
    ensemble gets the eigendecomposition of a^T a.

    Finiteness is tested only when that gate fails: a NaN or Inf entry of
    a makes a diagonal entry of d (a sum of squares) NaN or Inf, and NaN
    fails ``<=``, so a non-finite input never passes the gate. A finite
    input whose a^T a overflows fails the gate too and raises nothing; its
    result is non-finite, so a run diverges one step later.
    Raises :class:`_NonFiniteInput` for a non-finite input."""
    d = np.swapaxes(a, -2, -1) @ a
    d -= _identity(a.shape[-1])
    out = a - a @ (0.5 * d)
    # one reduction over the whole batch decides the usual case
    if not np.abs(d).max() <= _NEWTON_SCHULZ_DEFECT:
        if not np.isfinite(a).all():
            raise _NonFiniteInput
        far = np.abs(d).max(axis=(-3, -2, -1)) > _NEWTON_SCHULZ_DEFECT
        out[far] = _eigh_polar(a[far])
    return out


def _eigh_polar(a: np.ndarray) -> np.ndarray:
    """Polar factor a (a^T a)^{-1/2} of a stack from the eigendecomposition
    of a^T a, without input validation."""
    gram = np.swapaxes(a, -2, -1) @ a
    w, v = np.linalg.eigh(gram)
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1)
    return a @ inv_sqrt


def polar_factor(a) -> np.ndarray:
    """Orthonormal polar factor U = a (a^T a)^{-1/2}.

    U is the closest matrix with orthonormal columns to ``a`` in the
    Frobenius norm. Accepts a stack shaped (..., n, p); the factorization is
    computed via the symmetric eigendecomposition of a^T a, which is robust
    at the small column counts used here.

    Raises :class:`ProjectionError` when a^T a is numerically singular
    (closest point not unique).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise DimensionError(f"polar_factor expects at least 2-D input, got {a.shape}")
    if a.shape[-2] < a.shape[-1]:
        raise DimensionError(f"polar_factor needs rows >= cols, got {a.shape[-2:]}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("polar_factor input contains NaN or Inf entries")
    # a^T a overflows for entries beyond ~1e154, which leaves infinite or
    # NaN eigenvalues: the test below fails on NaN, so it rejects those too
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(a, -2, -1) @ a
        w, v = np.linalg.eigh(gram)
    # eigenvalues of a^T a are squared singular values of a
    if not np.all(w[..., 0] > (RANK_TOL ** 2) * np.maximum(w[..., -1], 1e-300)):
        raise ProjectionError("a^T a is numerically singular; projection undefined")
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1)
    return a @ inv_sqrt


# order-13 Taylor polynomial is accurate to ~1e-16 once the argument is
# scaled to norm <= 1/2
_TAYLOR_DEGREE = 13


def expm_skew(x) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix.

    Uses scaling-and-squaring with a degree-13 Taylor evaluation of the
    scaled matrix: s = max(0, ceil(log2(||x||)) + 1) halvings bring the norm
    under 1/2. The result is orthogonal with determinant +1.
    """
    x = require_skew(x)
    p = x.shape[0]
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.eye(p)
    s = max(0, math.ceil(math.log2(norm)) + 1)
    a = x / (2.0 ** s)
    result = np.eye(p)
    term = np.eye(p)
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = term @ a / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result
