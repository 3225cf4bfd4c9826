"""Dense matrix helpers: validation, stacked Frobenius norms, thin QR
with a fixed sign convention, polar decomposition, and the exponential of
a skew-symmetric matrix from one Hermitian eigendecomposition.

The validated retraction (:func:`~stiefel_sync.manifold.retract`) always
uses the eigendecomposition; the integrator's retraction takes a
Newton-Schulz step near the manifold, in the arrays of a
:class:`_Workspace`, which the integrator lays out once per run for the
field and the retraction.

Everything is plain float64 ndarrays. Shape-changing bugs surface as
:class:`~stiefel_sync.errors.DimensionError` instead of broadcast surprises,
which is why the thin wrappers exist at all.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError, ProjectionError, RankDeficiencyError, ValidationError
from .tolerances import ALGEBRAIC_TOL, NEWTON_SCHULZ_DEFECT, RANK_TOL


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
    ||x + x^T|| <= ALGEBRAIC_TOL * max(1, ||x||), tested as
    :func:`_skew_checks` tests it."""
    x = require_matrix(x, name)
    if x.shape[0] != x.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {x.shape}")
    _first_failure(*_skew_checks(x, lambda k: name))
    return x


def _skew_checks(x: np.ndarray, name) -> list:
    """The checks of :func:`require_skew` on every matrix of a stack
    (..., p, p), for :func:`_first_failure`: a NaN or Inf entry, then
    ||x + x^T|| > ALGEBRAIC_TOL * max(1, ||x||). ``name`` maps a matrix's
    flat index to the name its error gives it.

    Unscaled, both sides overflow to Inf for a huge symmetric matrix, and
    Inf > 1e-12 Inf is False, so the test would pass it. So a matrix whose largest entry is 1 or more is
    scaled by the power of two 2^-e that brings that entry into [1/2, 1),
    and the test reads ||y + y^T|| > ALGEBRAIC_TOL * max(2^-e, ||y||) for
    y = 2^-e x. The scaling is exact but for entries 2^1022 times smaller
    than the largest, which do not move either side, so both sides are
    those of x times exactly 2^-e and the test decides as the unscaled one
    wherever that one does not overflow. Nothing overflows, and nothing
    warns."""
    finite = np.isfinite(x).all(axis=(-2, -1))
    # the test of a matrix that fails the first check is never reported
    with np.errstate(all="ignore"):
        _, e = np.frexp(np.abs(x).max(axis=(-2, -1), keepdims=True, initial=0.0))
        e = np.maximum(e, 0)
        y = np.ldexp(x, -e)
        e = e[..., 0, 0]
        defects = _frobenius_norms(y + np.swapaxes(y, -2, -1))
        asymmetric = defects > ALGEBRAIC_TOL * np.maximum(np.ldexp(1.0, -e), _frobenius_norms(y))
        # the defect of x, Inf where it overflows
        defects = np.ldexp(defects, e)
    return [
        (~finite, lambda k: ValidationError(f"{name(k)} contains NaN or Inf entries")),
        (
            asymmetric,
            lambda k: ValidationError(
                f"{name(k)} is not skew-symmetric (defect {defects.flat[k]:.3e})"
            ),
        ),
    ]


def _frobenius_norms(x) -> np.ndarray:
    """The Frobenius norm of every matrix of a stack (..., rows, cols) from
    one ``np.vecdot``: per matrix of a C-ordered stack, bit for bit the
    value of ``np.linalg.norm``, which takes the same dot product of the
    matrix's flattened entries."""
    flat = x.reshape(x.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def _first_failure(*checks) -> None:
    """Raise, for the first matrix of a stack that fails any of ``checks``,
    the error of the first check it fails: the error it raises when checked
    alone. Each check is a pair of a boolean mask over the stack, True
    where a matrix fails, and a function from a failing matrix's flat index
    to its error."""
    failing = np.any([mask for mask, _ in checks], axis=0).ravel()
    if failing.any():
        k = int(failing.argmax())
        for mask, error in checks:
            if np.ravel(mask)[k]:
                raise error(k)


def qr_thin(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with nonnegative R diagonal.

    The sign convention makes the factorization unique for full-rank input,
    so results are reproducible across runs. A stack (..., rows, cols) is
    factorized in one call, each matrix as it is alone. Raises
    :class:`RankDeficiencyError` when a diagonal entry of R falls below
    ``RANK_TOL * ||a||``, for the first matrix where one does.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise DimensionError(f"matrix must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains NaN or Inf entries")
    rows, cols = a.shape[-2:]
    if rows < cols:
        raise DimensionError(f"qr_thin needs rows >= cols, got {a.shape[-2:]}")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[..., None, :]
    r = d[..., :, None] * r
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1)).reshape(-1, cols)
    deficient = (diag <= RANK_TOL * _frobenius_norms(a).reshape(-1, 1)).any(axis=1)
    if deficient.any():
        first = diag[deficient.argmax()]
        raise RankDeficiencyError(f"rank-deficient input: min |R_ii| = {first.min():.3e}")
    return q, r


def _drift_limit(terms: int) -> float:
    """The largest sum of the squares of the entries of every S_i^T S_i - I
    of a stack, ``terms`` squares in all, at which
    :func:`~stiefel_sync.manifold.orthonormality_drift` is provably at most
    ``NEWTON_SCHULZ_DEFECT`` (1e-8) for every ensemble: the bound that the
    retraction's gate and :func:`~stiefel_sync.manifold._drift_within`
    test. A stack of B ensembles of N agents sums B N p^2 squares.

    Every agent's ||d||_F^2 is at most the sum over the whole stack. With
    u = eps/2: the gate's sum of ``terms`` rounded squares, in any order,
    is below the exact sum by a relative terms u / (1 - terms u) at most;
    the drift squares the same entries of d, sums p^2 <= terms of them and
    takes a root, which rounds its square up by a relative (p^2 + 2) u at
    most; and 1e-16 / (1 + margin) rounds by 3u. The margin
    max(1e-12, 5 terms eps) covers all three while terms eps < 0.01. The
    bound is far above the subnormal range, so a square that underflows
    moves either sum by less than the margin."""
    margin = max(1e-12, 5 * terms * np.finfo(float).eps)
    return NEWTON_SCHULZ_DEFECT ** 2 / (1.0 + margin)


@functools.cache
def _identity(p: int) -> np.ndarray:
    """The read-only p x p identity, built once per size."""
    eye = np.eye(p)
    eye.setflags(write=False)
    return eye


class _NonFiniteInput(Exception):
    """Raised by :func:`_polar_unchecked` for an input with a NaN or Inf
    entry, which has no polar factor."""


class _Workspace:
    """The arrays that stepping stacks of one shape (..., N, n, p) writes
    into, laid out once: :func:`~stiefel_sync.integrate.integrate` builds one
    per run, and ``rhs`` and :func:`_polar_unchecked` build a one-shot one
    when called without.

    - ``buffers``: ``bound`` arrays of the shape, which the caller owns (the
      integrator's state, stage argument and u1...u4).
    - ``field``: the field's temporaries ``y`` = (kappa/2N) W S with its
      flat view, ``m`` = S^T Y with its transpose, ``g``, which the
      generators are subtracted into, and ``sg`` = S g.
    - ``retraction``: the retraction's temporaries d = a^T a - I, d/2 and
      a (d/2), the 0-d constant 0.5 that d is scaled by, the identity
      stacked to d's shape, and ``polar_limit``, the bound on the sum of
      the squares of d at which every matrix of the shape takes the
      Newton-Schulz step, and the drift gate passes.
    - ``views``: per buffer, keyed by its ``id``, the one tuple of every
      operand that the field, the retraction and the drift gate read of it:
      its (-1, N, n p) reshape, its transpose, ``field`` and
      ``retraction``. One dict lookup gives a bound input all of them;
      ``buffers`` keeps the keys alive. :meth:`views_of` builds the tuple
      of any other input, after :meth:`check`.

    A ufunc whose operands all have one shape skips numpy's broadcasting
    iterator, which costs about 0.6 us a call at these sizes. The stacked
    identity gives the retraction's elementwise calls operands of one
    shape. The field's subtraction has them when the generators have g's
    shape: those of a config for one (N, n, p) ensemble, or those stacked
    to a batch's shape, as the integrator's stage configs hold them for
    every batch, B = 1 included
    (:meth:`~stiefel_sync.model.ModelConfig.scaled`). Each element gets the
    same operation as with broadcast operands.

    The arrays are private to one caller at a time: two runs, or two
    threads, each build their own."""

    def __init__(self, shape, bound: int = 0):
        self.shape = tuple(shape)
        self.state_shape = count, n, p = self.shape[-3:]
        self.flat_shape = (-1, count, n * p)
        gram = self.shape[:-2] + (p, p)
        y, m, g = np.empty(self.shape), np.empty(gram), np.empty(gram)
        y_flat, m_t = y.reshape(self.flat_shape), m.swapaxes(-2, -1)
        self.field = (y, y_flat, m, m_t, g, np.empty(self.shape))
        self.polar_limit = _drift_limit(math.prod(gram))
        d, half_d, product = np.empty(gram), np.empty(gram), np.empty(self.shape)
        # one identity per matrix, so that d = a^T a - I broadcasts nothing
        eye = np.broadcast_to(_identity(p), gram).copy()
        eye.setflags(write=False)
        self.retraction = (d, half_d, product, np.array(0.5), eye, self.polar_limit)
        self.buffers = [np.empty(self.shape) for _ in range(bound)]
        self.views = {id(b): self.views_of(b) for b in self.buffers}

    def views_of(self, x: np.ndarray) -> tuple:
        """The operand tuple of ``x``, as ``views`` holds it for a buffer:
        the bound ones are built here once, and an input that is not bound
        gets a new one per call. A shape other than the workspace's raises
        :class:`DimensionError`, so nothing broadcasts."""
        self.check(x)
        return (x.reshape(self.flat_shape), x.swapaxes(-2, -1), self.field, self.retraction)

    def check(self, x: np.ndarray) -> None:
        """Raise :class:`DimensionError` unless ``x`` has the workspace's
        shape."""
        if x.shape != self.shape:
            raise DimensionError(f"workspace is for shape {self.shape}, got {x.shape}")


def _polar_unchecked(
    a: np.ndarray, out: np.ndarray | None = None, work: _Workspace | None = None
) -> np.ndarray:
    """Polar factor of an ensemble (N, n, p) or a batch (..., N, n, p)
    without input validation (integration hot path).

    With d = a^T a - I, the polar factor is a (I + d)^{-1/2} = a (I - d/2 +
    (3/8) d^2 - ...). Every ensemble whose max|d| is at most 1e-8, as after
    an RK4 step from the manifold, gets the Newton-Schulz step a - a d/2
    (Higham 1986), equal to the polar factor up to rounding. Any other
    ensemble gets the eigendecomposition of a^T a.

    One dot product of d with itself decides the usual case: a sum of the
    squares under ``work.polar_limit`` (:func:`_drift_limit`)
    bounds every entry of d under 1e-8, so every ensemble takes the step.
    Otherwise each ensemble's max|d| decides, as it would on its own; the
    gate only chooses the fast path, so each ensemble's result is the one
    it gets alone.

    The result goes to ``out``, which may be ``a`` itself, or to a new array
    when ``out`` is None. ``a``'s transpose, d, d/2 (scaled by a 0-d 0.5)
    and a (d/2) come from one lookup of ``a`` in the views of ``work``, a
    :class:`_Workspace` for a's shape; an ``a`` not bound there, and an
    ``out`` of another shape, are shape-checked. Without ``work``, a
    one-shot workspace is built, so both ways run the same code. The
    eigendecomposition reads ``a`` before ``out`` is written.

    Finiteness is tested only when that gate fails: a NaN or Inf entry of
    a makes a diagonal entry of d (a sum of squares) NaN or Inf, so is the
    gate's sum, and neither passes ``<=``. A finite input whose a^T a
    overflows fails the gate too and raises nothing; its result is
    non-finite, so a run diverges one step later.
    Raises :class:`_NonFiniteInput` for a non-finite input, before ``out``
    is written."""
    if work is None:
        work = _Workspace(a.shape)
    views = work.views.get(id(a))
    if views is None:
        views = work.views_of(a)
    if out is not None and out.shape != work.shape:
        work.check(out)
    _, a_t, _, (d, half_d, product, half, eye, limit) = views
    np.matmul(a_t, a, d)
    np.subtract(d, eye, d)
    np.multiply(half, d, half_d)
    # one dot product over the whole batch decides the usual case
    fixed = None
    if not np.vdot(d, d) <= limit:
        if not np.isfinite(a).all():
            raise _NonFiniteInput
        far = np.abs(d, out=d).max(axis=(-3, -2, -1)) > NEWTON_SCHULZ_DEFECT
        if far.any():
            fixed, _ = _polar_checked(a[far])
    out = np.subtract(a, np.matmul(a, half_d, product), out)
    if fixed is not None:
        out[far] = fixed
    return out


def _polar_checked(a) -> tuple[np.ndarray, list]:
    """The polar factor U = a (a^T a)^{-1/2}, the closest matrix with
    orthonormal columns to ``a`` in the Frobenius norm, of every matrix of
    a stack (..., n, p), from one eigendecomposition of the stack's a^T a,
    with its checks for :func:`_first_failure`: a NaN or Inf entry, then a
    numerically singular a^T a (closest point not unique). The factor of a
    failing matrix is not finite or not meaningful, and computing it warns
    of nothing; the integrator's retraction takes the factors of its far
    members from here and leaves the checks to its divergence test.

    Raises :class:`DimensionError` for a shape that has no polar factor."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise DimensionError(f"polar factor input must be at least 2-D, got {a.shape}")
    if a.shape[-2] < a.shape[-1]:
        raise DimensionError(f"polar factor input needs rows >= cols, got {a.shape[-2:]}")
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(all="ignore"):
        gram = np.swapaxes(a, -2, -1) @ a
        # eigh cannot take NaN: an a^T a with a NaN or Inf entry, from one
        # in a or from entries beyond ~1e154 that overflow it, is decomposed
        # as zero, which fails the rank test
        gram[~np.isfinite(gram).all(axis=(-2, -1))] = 0.0
        w, v = np.linalg.eigh(gram)
        u = a @ ((v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1))
    # eigenvalues of a^T a are squared singular values of a
    singular = ~(w[..., 0] > (RANK_TOL ** 2) * np.maximum(w[..., -1], 1e-300))
    return u, [
        (~finite, lambda k: ValidationError("polar factor input contains NaN or Inf entries")),
        (singular, lambda k: ProjectionError("a^T a is numerically singular; projection undefined")),
    ]


def expm_skew(x) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix.

    i x is Hermitian, so one eigendecomposition i x = V diag(w) V^H gives
    exp(x) = exp(-i (i x)) = V diag(e^{-i w}) V^H, whose real part is the
    result (its imaginary part is rounding). The result is orthogonal with
    determinant +1; x = 0 gives the identity exactly.
    """
    x = require_skew(x)
    if not x.any():
        return np.eye(x.shape[0])
    w, v = np.linalg.eigh(1j * x)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real
