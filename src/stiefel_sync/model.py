"""The coupled dynamical system on the Stiefel manifold.

N agents S_1..S_N in St(p, n) evolve by

    dS_i/dt = S_i W_i + kappa * (C_i - (S_i S_i^T C_i + S_i C_i^T S_i) / 2),
    C_i = (1/N) * sum_k a_ik S_k,

where W_i is a p x p skew generator (the agent's intrinsic rotation) and
(a_ik) is a symmetric nonnegative coupling topology. This module holds the
topology and configuration types, the right-hand side, the quadratic
disagreement potential, the co-rotating frame transform, and the
sufficient-condition checker for consensus together with its derived
contraction-rate bound.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    DisconnectedTopologyError,
    UnsupportedTopologyError,
    ValidationError,
)
from .linalg import _first_failure, _skew_checks, _Workspace, expm_skew, require_skew
from .manifold import _as_rng, _per_ensemble, ensemble_diameter, pair_sq_distances
from .tolerances import ALGEBRAIC_TOL, SEPARABLE_MATCH_TOL


# ---------------------------------------------------------------------------
# topology


def _connected(weights: np.ndarray) -> bool:
    """Whether the strictly positive weights connect every agent: the set of
    agents reached from agent 0 grows by their neighbours until a pass adds
    none."""
    linked = weights > 0.0
    reached = np.zeros(len(weights), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | linked[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return bool(reached.all())
        reached = grown


@dataclass(frozen=True)
class XiStats:
    """Statistics of the separable weight factors."""

    xi_min: float
    xi_max: float
    xi_mean: float

    @property
    def spread(self) -> float:
        return self.xi_max - self.xi_min


@dataclass(frozen=True)
class Topology:
    """Symmetric nonnegative coupling weights, optionally of separable
    (rank-one) form a_ik = xi_i * xi_k with xi_i > 0.

    Construct through :meth:`separable` or :meth:`general`; both validate
    symmetry, nonnegativity, and connectivity of the positive-weight graph.
    ``weights`` and ``xi`` are read-only copies of the arrays given.
    """

    weights: np.ndarray
    xi: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"weights must be square, got shape {w.shape}")
        # a NaN defect passes the symmetry test and w + w.T can overflow, so
        # finiteness is tested on the symmetrized weights
        with np.errstate(over="ignore", invalid="ignore"):
            asym = np.max(np.abs(w - w.T))
            if asym > ALGEBRAIC_TOL * max(1.0, float(np.max(np.abs(w)))):
                raise ValidationError(f"weights are not symmetric (defect {asym:.3e})")
            w = (w + w.T) / 2.0
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain NaN or Inf entries")
        if np.any(w < 0.0):
            raise ValidationError("weights must be nonnegative")
        if not _connected(w):
            raise DisconnectedTopologyError(
                "positive-weight edges do not connect all agents"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.xi is not None:
            # a copy, as the weights are: the caller's array stays writable
            xi = np.array(self.xi, dtype=float)
            if xi.ndim != 1 or xi.shape[0] != w.shape[0]:
                raise DimensionError(f"xi must have length {w.shape[0]}, got {xi.shape}")
            if np.any(xi <= 0.0):
                raise ValidationError("separable factors must be strictly positive")
            mismatch = np.max(np.abs(w - np.outer(xi, xi)))
            if mismatch > SEPARABLE_MATCH_TOL * max(1.0, float(np.max(w))):
                raise ValidationError(
                    f"weights do not match outer(xi, xi) (defect {mismatch:.3e})"
                )
            xi.setflags(write=False)
            object.__setattr__(self, "xi", xi)

    @classmethod
    def separable(cls, xi) -> "Topology":
        xi = np.asarray(xi, dtype=float)
        # an overflowing product is rejected as a non-finite weight
        with np.errstate(over="ignore"):
            weights = np.outer(xi, xi)
        return cls(weights=weights, xi=xi)

    @classmethod
    def general(cls, weights) -> "Topology":
        return cls(weights=np.asarray(weights, dtype=float), xi=None)

    @property
    def kind(self) -> str:
        return "separable" if self.xi is not None else "general"

    @property
    def agent_count(self) -> int:
        return self.weights.shape[0]

    def xi_stats(self) -> XiStats:
        if self.xi is None:
            raise UnsupportedTopologyError("xi statistics need a separable topology")
        return XiStats(
            xi_min=float(np.min(self.xi)),
            xi_max=float(np.max(self.xi)),
            xi_mean=float(np.mean(self.xi)),
        )


# ---------------------------------------------------------------------------
# frequencies


def frequency_spread(freqs) -> float:
    """Largest pairwise Frobenius distance among the skew generators.

    Scaled as :func:`~stiefel_sync.linalg._skew_checks` scales: generators
    whose largest entry is 1 or more are multiplied by the power of two
    2^-e that brings that entry into [1/2, 1), their distances are taken,
    and the largest is multiplied back by 2^e. Both scalings are by powers
    of two, so the spread is the unscaled one wherever neither computation
    overflows or underflows. The scaled sums of squares stay below 4 p^2,
    so the spread is Inf, without a warning, only where it exceeds the
    float range itself."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 3:
        raise DimensionError(f"frequencies must be (N, p, p), got shape {freqs.shape}")
    if freqs.shape[0] == 1:
        return 0.0
    _, e = np.frexp(np.abs(freqs).max())
    e = max(int(e), 0)
    scaled = np.ldexp(freqs, -e)
    diffs = scaled[:, None] - scaled[None, :]
    largest = np.max(np.sqrt(np.sum(diffs * diffs, axis=(-2, -1))))
    with np.errstate(over="ignore"):
        return float(np.ldexp(largest, e))


def zero_frequencies(count: int, p: int) -> np.ndarray:
    return np.zeros((count, p, p))


def common_frequencies(skew, count: int) -> np.ndarray:
    skew = require_skew(skew)
    return np.repeat(skew[None, :, :], count, axis=0)


def random_skew(p: int, seed=None, scale: float = 1.0) -> np.ndarray:
    """Random skew generator with Frobenius norm ``scale`` (zero when p = 1)."""
    if p == 1:
        return np.zeros((1, 1))
    g = _as_rng(seed).standard_normal((p, p))
    s = (g - g.T) / 2.0
    norm = np.linalg.norm(s)
    return s * (scale / norm) if norm > 0 else s


def random_frequencies(count: int, p: int, spread: float, seed=None, common=None) -> np.ndarray:
    """Skew generators with max pairwise distance exactly ``spread``.

    Deviations around the (optional) common part are centered and rescaled so
    the realized heterogeneity matches the request. p = 1 admits only zero
    generators, so any positive spread is rejected there, and so is a
    realized spread whose square overflows (one above about 1.3e154).
    """
    rng = _as_rng(seed)
    base = np.zeros((p, p)) if common is None else require_skew(common)
    if spread < 0:
        raise ValidationError("spread must be nonnegative")
    if spread == 0.0 or count == 1:
        return np.repeat(base[None, :, :], count, axis=0)
    if p == 1:
        raise ValidationError("1 x 1 skew generators are zero; positive spread impossible")
    g = rng.standard_normal((count, p, p))
    devs = (g - g.swapaxes(1, 2)) / 2.0
    devs -= devs.mean(axis=0)
    current = frequency_spread(devs)
    if current == 0.0:
        raise ValidationError("degenerate frequency sample; retry with another seed")
    # a huge spread overflows the generators, or the square of its distance
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = base[None, :, :] + devs * (spread / current)
        realized = frequency_spread(freqs)
    if not math.isfinite(realized * realized):
        raise ValidationError(f"spread {spread} overflows the generators' squared distances")
    return freqs


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ModelConfig:
    """Full system specification: coupling strength, topology, and the
    per-agent skew generators, with dimensions pinned explicitly.
    ``freqs`` is a read-only copy of the generators given.

    Derived once, not set: ``freq_spread``, the ``(N, n, p)`` shape of one
    ensemble, and ``half_weights`` = (kappa/2N) W, the read-only weights
    :func:`rhs` multiplies by on every call. The field is linear in
    (kappa, Omega), so :meth:`scaled` gives the config of c times the
    field."""

    kappa: float
    topology: Topology
    freqs: np.ndarray
    n: int
    p: int
    freq_spread: float = field(init=False)
    state_shape: tuple[int, int, int] = field(init=False)
    half_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise ValidationError(f"kappa must be finite and nonnegative, got {self.kappa}")
        if not 1 <= self.p <= self.n:
            raise DimensionError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        # a copy, so that freezing it leaves the caller's array writable
        freqs = np.array(self.freqs, dtype=float)
        count = self.topology.agent_count
        if freqs.shape != (count, self.p, self.p):
            raise DimensionError(
                f"frequencies must be ({count}, {self.p}, {self.p}), got {freqs.shape}"
            )
        _first_failure(*_skew_checks(freqs, lambda k: f"frequency generator {k}"))
        self._derive(freqs)
        if not math.isfinite(self.freq_spread):
            raise ValidationError(
                "frequency spread overflows: two generators are farther apart than"
                " the float range"
            )

    def _derive(self, freqs: np.ndarray) -> None:
        """Set ``freqs``, read-only, and the fields derived from it and kappa."""
        freqs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "freq_spread", frequency_spread(freqs))
        count = self.topology.agent_count
        object.__setattr__(self, "state_shape", (count, self.n, self.p))
        half_weights = (self.kappa / (2 * count)) * self.topology.weights
        half_weights.setflags(write=False)
        object.__setattr__(self, "half_weights", half_weights)

    def scaled(self, c: float, lead: tuple[int, ...] = ()) -> "ModelConfig":
        """The config whose field is c times this one's: kappa and the
        generators times c, and the rest derived as ``dataclasses.replace``
        derives it. The checks are not run again. A scaled valid config
        describes a valid field, but with c > 1 a generator's rounding can
        exceed the skew test's absolute floor, and c kappa can overflow;
        a run reports the latter as a divergence.

        ``lead``, the leading shape of a batch of states, stacks the scaled
        generators to ``lead + (N, p, p)`` in a read-only copy, so that
        :func:`rhs` on such a batch subtracts them from operands of their
        own shape, each element as without the stack. ``freq_spread`` and
        the other derived fields come from the (N, p, p) generators; such a
        config is for stepping that batch, not for scaling again."""
        scaled = copy.copy(self)
        object.__setattr__(scaled, "kappa", c * self.kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled._derive(c * self.freqs)
        if lead:
            stacked = np.broadcast_to(scaled.freqs, lead + scaled.freqs.shape).copy()
            stacked.setflags(write=False)
            object.__setattr__(scaled, "freqs", stacked)
        return scaled

    @property
    def agent_count(self) -> int:
        return self.topology.agent_count


def _check_state_shape(states: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.shape[-3:] != cfg.state_shape:
        raise DimensionError(f"state must have shape {cfg.state_shape}, got {states.shape}")
    return states


# ---------------------------------------------------------------------------
# dynamics


def rhs(states, cfg: ModelConfig, work: _Workspace | None = None, out=None) -> np.ndarray:
    """Velocity of every agent; each output lies in the tangent space at
    its agent whenever the agent is on the manifold.

    The field is S Omega + kappa (C - S sym(S^T C)) with C = (1/N) W S the
    weighted mean. With Y = (kappa/2N) W S, the config's ``half_weights``
    times S, and M = S^T Y it is evaluated by three stacked matrix products
    as

        Y + (Y + S (Omega - (M + M^T))),

    each in a fixed order, so repeated evaluations are bitwise deterministic.
    Y, M, the p x p difference and S (...) are formed in the temporaries of
    ``work``, a :class:`~stiefel_sync.linalg._Workspace` for the states'
    shape, in the same order, so the result is bitwise the expression
    above. When ``states`` is a buffer bound in ``work``, one lookup gives
    its flat and transposed views and the temporaries; any other input is
    shape-checked against ``cfg`` and ``work``, and so is an ``out`` of
    another shape. Called without ``work``, ``rhs`` builds a one-shot
    workspace and runs the same code. Leading axes stack ensembles, and
    ``cfg``'s generators may be stacked to them (:meth:`ModelConfig.scaled`);
    ``states`` is only read, and the result goes to ``out``, or to a new
    array when ``out`` is None.
    """
    views = None if work is None else work.views.get(id(states))
    if views is None:
        states = _check_state_shape(states, cfg)
        work = _Workspace(states.shape) if work is None else work
        views = work.views_of(states)
    elif work.state_shape != cfg.state_shape:
        raise DimensionError(f"state must have shape {cfg.state_shape}, got {work.shape}")
    if out is not None and out.shape != work.shape:
        work.check(out)
    s_flat, s_t, (y, y_flat, m, m_t, g, sg), _ = views
    np.matmul(cfg.half_weights, s_flat, y_flat)
    np.matmul(s_t, y, m)
    np.add(m, m_t, g)
    np.subtract(cfg.freqs, g, g)
    np.matmul(states, g, sg)
    np.add(y, sg, sg)
    return np.add(y, sg, out)


def potential(states, topology: Topology):
    """Weighted total squared disagreement (1/N) * sum_ik a_ik ||S_i - S_k||^2.

    Nonnegative; zero exactly on consensus of every connected component
    (a single one, by construction). Leading axes stack ensembles: one
    (N, n, p) ensemble gives a float, a stack an array with one value per
    ensemble."""
    states = np.asarray(states, dtype=float)
    count = topology.agent_count
    if states.ndim < 3 or states.shape[-3] != count:
        raise DimensionError(f"state must be (..., {count}, n, p), got {states.shape}")
    total = np.sum(topology.weights * pair_sq_distances(states), axis=(-2, -1))
    return _per_ensemble(total / count)


def moving_frame(states, common_skew, t: float) -> np.ndarray:
    """Observe the ensemble in the frame co-rotating with exp(t * skew):
    right-multiplies every agent by exp(-t * skew). Stays on the manifold."""
    states = np.asarray(states, dtype=float)
    rot = expm_skew(-t * require_skew(common_skew))
    return states @ rot


# ---------------------------------------------------------------------------
# sufficient conditions for consensus


@dataclass(frozen=True)
class FrameworkCondition:
    """One strict inequality lhs < rhs with its evaluated sides."""

    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs < self.rhs

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class FrameworkReport:
    """Evaluated margins of the four sufficient conditions.

    ``delta_lower`` is a certified lower bound on the exponential contraction
    rate of the correlation gap between nearby solutions, or None when the
    conditions fail or leave no positive margin. It is
    :func:`decay_rate_bound` at the slack of the worst-case running
    diameter max(initial diameter, lower cubic root), which the
    invariant-region argument shows is never exceeded. For p >= 2 the skew
    sector limits it to at most 2 kappa (2 xi_min xi_mean - xi_max^2).
    """

    weight_ratio: FrameworkCondition
    weight_spread: FrameworkCondition
    coupling_margin: FrameworkCondition
    initial_diameter: FrameworkCondition
    delta_lower: float | None

    def conditions(self) -> tuple[FrameworkCondition, ...]:
        return (
            self.weight_ratio,
            self.weight_spread,
            self.coupling_margin,
            self.initial_diameter,
        )

    @property
    def satisfied(self) -> bool:
        return all(c.satisfied for c in self.conditions())


def _require_separable(cfg: ModelConfig) -> XiStats:
    if cfg.topology.xi is None:
        raise UnsupportedTopologyError(
            "sufficient conditions are stated for separable topologies only"
        )
    return cfg.topology.xi_stats()


def coupling_margin_threshold(cfg: ModelConfig) -> float:
    """Upper bound required of freq_spread / kappa (third condition)."""
    stats = _require_separable(cfg)
    shrink = 2.0 - 1.0 / (100.0 * cfg.p)
    numer = (stats.xi_min * stats.xi_mean - 3.0 * stats.xi_max * stats.spread) * shrink
    denom = 80.0 * stats.xi_max ** 2 * cfg.p / stats.xi_min ** 2 + shrink
    return numer / denom


def diameter_threshold(cfg: ModelConfig) -> float:
    """Initial-diameter bound of the fourth condition; also the level that
    the running diameter provably never reaches."""
    stats = _require_separable(cfg)
    if cfg.kappa <= 0:
        raise ValidationError("diameter threshold needs kappa > 0")
    numer = (
        stats.xi_min * stats.xi_mean
        - 3.0 * stats.xi_max * stats.spread
        - cfg.freq_spread / cfg.kappa
    )
    return numer / (10.0 * stats.xi_max ** 2 * math.sqrt(cfg.p))


def contraction_slack(cfg: ModelConfig, diam1, diam2):
    """Perturbation term eating into the contraction rate of the correlation
    gap, evaluated at the two solutions' instantaneous diameters:

        5 kappa xi_max^2 sqrt(p) (d1 + d2) + 3 kappa xi_max spread + freq_spread

    Scalar diameters give a float; aligned arrays give the slack elementwise.
    """
    stats = _require_separable(cfg)
    d1 = np.asarray(diam1, dtype=float)
    d2 = np.asarray(diam2, dtype=float)
    if np.any(d1 < 0) or np.any(d2 < 0):
        raise ValidationError("diameters must be nonnegative")
    slack = (
        5.0 * cfg.kappa * stats.xi_max ** 2 * math.sqrt(cfg.p) * (d1 + d2)
        + 3.0 * cfg.kappa * stats.xi_max * stats.spread
        + cfg.freq_spread
    )
    return float(slack) if np.ndim(slack) == 0 else slack


def contraction_rates(cfg: ModelConfig, slack):
    """Rates (r_X, r_Y) of the contraction inequality for the squared
    correlation gap F = X + Y between two solutions S and T:

        dF/dt <= -r_X X - r_Y Y,
        r_X = 4 (kappa xi_min xi_mean - slack),
        r_Y = kappa (4 xi_min xi_mean - (5/2) xi_max^2),

    with X the plain gap, Y the skew-part gap and ``slack`` from
    :func:`contraction_slack` at the two solutions' diameters d1, d2.
    ``slack`` may be a scalar or an array.

    Derivation, for the documented field (tangent projection of C_i).
    Write A_ji = S_j^T S_i, B_ji = T_j^T T_i, D = A - B, G = sym D and
    K = skew D, P = sum ||G_ji||^2 and Q = sum ||K_ji||^2. Then X = P + Q,
    Y = 4 Q (Y takes the skew part of D twice), so F = P + 5 Q and
    0 <= Y <= 4 X. Differentiating the correlations under the field gives,
    exactly,

        dD_ji/dt = D_ji W_i - W_j D_ji
                   + kappa [ (1/N) sum_k a_ik D_jk + (1/N) sum_k a_jk D_ki
                             - D_ji M_i - M_j D_ji - Abar_ji H_i - H_j Abar_ji ],

    with M_i the mean over both solutions of sym(S_i^T C_i),
    Abar = (A + B)/2 and H_i = (1/N) sum_k a_ik G_ik. Put
    M_i = xi_i xi_mean I + E_i; dF/dt = 2 <G, dG/dt> + 10 <K, dK/dt> then
    splits into four parts.

    1. Rotations. <D, D W_i - W_j D> = 0, and the only part that moves
       between sectors is (W_i - W_j) G, so the generators add at most
       8 freq_spread sum ||K_ji|| ||G_ji|| <= 4 freq_spread X.
    2. Symmetric sector at E = 0, Abar = I. With h_j = sum_k xi_k G_jk the
       coupling terms sum to (4 kappa/N) sum_j <h_j, sum_k (xi_k - xi_j) G_jk>,
       so this sector adds at most -4 kappa (xi_min xi_mean - xi_max spread) P.
    3. Skew sector at E = 0, Abar = I. The H terms are symmetric and drop
       out; the coupling term 20 kappa N sum_j ||(1/N) sum_k xi_k K_jk||^2
       is positive. Each entry of K is antisymmetric in (j, k), so its
       singular values come in pairs and the term is at most
       10 kappa mean(xi^2) Q: this sector adds at most
       -10 kappa (2 xi_min xi_mean - xi_max^2) Q. The bound is sharp near
       consensus, where the rotational part of each agent's correlation
       difference contracts at kappa xi_i xi_mean (not 2 kappa xi_i xi_mean):
       with uniform weights F contracts at 2 kappa, not 4 kappa.
    4. Remainder. I - sym(S_i^T S_k) = (S_i - S_k)^T (S_i - S_k) / 2 gives
       ||E_i|| <= xi_max xi_mean (d1^2 + d2^2) / 4 and ||Abar_ji - I|| <=
       (d1 + d2)/2; with sum ||G + 5 K||^2 <= 25 X the remainder adds at
       most 10 kappa xi_max^2 (d1 + d2)(1 + (d1 + d2)/2) X. That is within
       the slack's 20 kappa xi_max^2 sqrt(p) (d1 + d2) X whenever
       d1 + d2 <= 2 (2 sqrt(p) - 1), which holds below the diameter
       threshold.

    Collecting terms and writing Q = Y/4 gives the inequality. For p = 1
    the skew sector is empty (Y = 0) and only r_X enters.
    """
    stats = _require_separable(cfg)
    rate_plain = 4.0 * (cfg.kappa * stats.xi_min * stats.xi_mean - slack)
    rate_skew = cfg.kappa * (
        4.0 * stats.xi_min * stats.xi_mean - 2.5 * stats.xi_max ** 2
    )
    return rate_plain, rate_skew


def decay_rate_bound(cfg: ModelConfig, slack_sup: float) -> float:
    """Guaranteed contraction rate of the correlation gap F = X + Y given an
    upper bound on the slack.

    From :func:`contraction_rates` and 0 <= Y <= 4 X, the worst case of
    -r_X X - r_Y Y over F is at Y = 0 or Y = 4 X, so F contracts at least at
    min(r_X, (r_X + 4 r_Y) / 5), where (r_X + 4 r_Y) / 5 =
    2 kappa (2 xi_min xi_mean - xi_max^2) - (4/5) slack_sup. For p = 1 there
    is no skew sector (Y = 0) and the rate is r_X. Positive only under the
    sufficient conditions with positive slack margin.
    """
    rate_plain, rate_skew = contraction_rates(cfg, slack_sup)
    if cfg.p == 1:
        return rate_plain
    return min(rate_plain, (rate_plain + 4.0 * rate_skew) / 5.0)


# largest constant term for which r^3 - 2r + c still has two roots in (0, sqrt(2))
CUBIC_COEFF_LIMIT = 4.0 * math.sqrt(2.0) / (3.0 * math.sqrt(3.0))


def cubic_coefficient(cfg: ModelConfig) -> float:
    """Constant term 8 sqrt(p) freq_spread / (kappa xi_min^2) of the cubic
    r^3 - 2r + c that bounds the diameter derivative."""
    stats = _require_separable(cfg)
    if cfg.kappa <= 0:
        raise ValidationError("cubic coefficient needs kappa > 0")
    return 8.0 * math.sqrt(cfg.p) * cfg.freq_spread / (cfg.kappa * stats.xi_min ** 2)


def cubic_invariant_roots(c: float) -> tuple[float, ...]:
    """Interior roots of r^3 - 2r + c on (0, sqrt(2)), ascending.

    Two roots exist for 0 < c < CUBIC_COEFF_LIMIT; the open interval holds
    none at c = 0 (they sit on the boundary) or past the limit.

    Viete's trigonometric form: with a = 2 sqrt(2/3) and cos(phi) =
    -c / CUBIC_COEFF_LIMIT, which is -(3c/4) sqrt(3/2), the roots are
    a cos((phi - 2 pi k) / 3) for k = 0, 1, 2. k = 0 is the larger interior
    root and k = 2, a cos((phi + 2 pi) / 3), the negative one. The three
    roots multiply to -c, so the smaller interior root is -c / (larger *
    negative): a quotient keeps its full relative precision as c -> 0, where
    it tends to c/2 and a cosine near pi/2 would cancel. The quotient
    -c / CUBIC_COEFF_LIMIT rounds into [-1, 0) for every c below the limit,
    so the guard against the limit also keeps the arccosine in its domain."""
    if c < 0:
        raise ValidationError("cubic coefficient must be nonnegative")
    if c == 0.0 or c >= CUBIC_COEFF_LIMIT:
        return ()
    a = 2.0 * math.sqrt(2.0 / 3.0)
    phi = math.acos(-c / CUBIC_COEFF_LIMIT)
    larger = a * math.cos(phi / 3.0)
    negative = a * math.cos((phi + 2.0 * math.pi) / 3.0)
    return (-c / (larger * negative), larger)


def check_framework(cfg: ModelConfig, initial) -> FrameworkReport:
    """Evaluate the four sufficient conditions for the given configuration
    and initial ensemble.

    Raises :class:`UnsupportedTopologyError` for general (non-separable)
    topologies: the conditions are formulated in terms of the separable
    factors and generalizing them would change their meaning.

    ``weight_spread`` implies ``weight_ratio``: under it xi_max^2 /
    (xi_min xi_mean) stays below (3 + sqrt(21))^2 / 36 ~ 1.597, under both
    factors 2 and 4. The ratio condition stays because the report lists it.
    """
    stats = _require_separable(cfg)
    if cfg.kappa <= 0:
        raise ValidationError("the coupling-margin condition needs kappa > 0")
    initial = _check_state_shape(initial, cfg)

    # keeps the weight part of decay_rate_bound positive for p >= 2: the
    # skew-sector rate 2 kappa (2 xi_min xi_mean - xi_max^2). For p = 1 the
    # bound is r_X, whose weight part 4 kappa xi_min xi_mean is always
    # positive; the factor 4 there is the condition the reports have listed
    ratio_factor = 4.0 if cfg.p == 1 else 2.0
    weight_ratio = FrameworkCondition(
        "weight_ratio",
        lhs=stats.xi_max ** 2,
        rhs=ratio_factor * stats.xi_min * stats.xi_mean,
    )
    weight_spread = FrameworkCondition(
        "weight_spread",
        lhs=stats.spread,
        rhs=stats.xi_min * stats.xi_mean / (3.0 * stats.xi_max),
    )
    coupling = FrameworkCondition(
        "coupling_margin",
        lhs=cfg.freq_spread / cfg.kappa,
        rhs=coupling_margin_threshold(cfg),
    )
    diam = FrameworkCondition(
        "initial_diameter",
        lhs=ensemble_diameter(initial),
        rhs=diameter_threshold(cfg),
    )
    report_conditions = (weight_ratio, weight_spread, coupling, diam)

    delta_lower = None
    if all(c.satisfied for c in report_conditions):
        roots = cubic_invariant_roots(cubic_coefficient(cfg))
        running_bound = max(diam.lhs, roots[0] if roots else 0.0)
        slack = contraction_slack(cfg, running_bound, running_bound)
        delta = decay_rate_bound(cfg, slack)
        if delta > 0:
            delta_lower = delta

    return FrameworkReport(
        weight_ratio=weight_ratio,
        weight_spread=weight_spread,
        coupling_margin=coupling,
        initial_diameter=diam,
        delta_lower=delta_lower,
    )
