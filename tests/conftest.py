"""Shared builders for the test suite."""

import tracemalloc

import numpy as np
import pytest

from golden.regenerate import SCENARIOS, run_bundled
from stiefel_sync import diagnostics, scenario
from stiefel_sync.diagnostics import (
    ConsensusStatus,
    correlation_contraction_bound,
    correlations,
    trailing_window_start,
)
from stiefel_sync.errors import (
    DimensionError,
    ProjectionError,
    RankDeficiencyError,
    ValidationError,
)
from stiefel_sync.integrate import IntegratorConfig, integrate
from stiefel_sync.manifold import near_consensus_ensemble, perturb_ensemble
from stiefel_sync.model import (
    ModelConfig,
    Topology,
    coupling_margin_threshold,
    diameter_threshold,
    random_frequencies,
    rhs,
    zero_frequencies,
)
from stiefel_sync.scenario import generate_xi
from stiefel_sync.tolerances import ALGEBRAIC_TOL, ORTH_CONSTRUCTION_TOL, RANK_TOL


def make_framework_config(seed: int, p: int = 2):
    """Heterogeneous configuration satisfying the sufficient conditions, with
    the coupling strength solved for a 10% margin in the frequency condition
    and the initial ensemble well inside the diameter threshold."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(5, 9))
    n = int(rng.integers(max(4, p + 1), 7))
    xi = generate_xi(count, 1.0, 0.02, seed)
    topology = Topology.separable(xi)
    spread = float(rng.uniform(0.015, 0.03))
    freqs = random_frequencies(count, p, spread, seed + 1)
    probe = ModelConfig(kappa=1.0, topology=topology, freqs=freqs, n=n, p=p)
    kappa = spread / (0.9 * coupling_margin_threshold(probe))
    cfg = ModelConfig(kappa=kappa, topology=topology, freqs=freqs, n=n, p=p)
    initial = near_consensus_ensemble(n, p, count, 0.35 * diameter_threshold(cfg), seed + 2)
    return cfg, initial


def run_framework_pair(seed: int, t_end: float = 10.0, h: float = 1e-3):
    """Framework configuration integrated together with a perturbed copy on
    a stride-1 grid (the setup used by the reproduction criteria)."""
    cfg, initial = make_framework_config(seed)
    icfg = IntegratorConfig(h=h, t_end=t_end, record_stride=1)
    pair = np.stack([initial, perturb_ensemble(initial, 1e-3, seed + 3)])
    traj, partner = integrate(pair, cfg, icfg).members()
    return cfg, traj, partner


def homogeneous_pair(p: int, t_end: float = 6.0):
    """Uniform-weight, zero-frequency pair (N = 5, n = 4, kappa = 1.7) that
    satisfies the sufficient conditions. Its correlation gap contracts at
    2 kappa for p >= 2, the sharp case of the skew-sector estimate; the
    horizon keeps the gap well above the rounding floor of its derivative."""
    cfg = ModelConfig(
        kappa=1.7,
        topology=Topology.separable(np.ones(5)),
        freqs=zero_frequencies(5, p),
        n=4,
        p=p,
    )
    initial = near_consensus_ensemble(4, p, 5, 0.005, seed=50 + p)
    icfg = IntegratorConfig(h=1e-3, t_end=t_end, record_stride=10)
    pair = np.stack([initial, perturb_ensemble(initial, 1e-3, seed=60 + p)])
    traj, partner = integrate(pair, cfg, icfg).members()
    return cfg, traj, partner


def correlation_gap_rates(s1, s2, cfg):
    """Plain gap X, skew gap Y and the exact time derivative of X + Y for two
    ensembles, from the velocity field: d/dt (S_j^T S_i) = V_j^T S_i + S_j^T V_i.

    The per-snapshot oracle of :func:`correlation_gap_rate_series`."""

    def products(u, v):
        return np.einsum("jab,iac->jibc", u, v)

    v1, v2 = rhs(s1, cfg), rhs(s2, cfg)
    d = products(s1, s1) - products(s2, s2)
    dd = products(v1, s1) + products(s1, v1) - products(v2, s2) - products(s2, v2)
    k = d - np.swapaxes(d, -2, -1)
    dk = dd - np.swapaxes(dd, -2, -1)
    plain = float(np.sum(d * d))
    skew = float(np.sum(k * k))
    return plain, skew, 2.0 * float(np.sum(d * dd) + np.sum(k * dk))


def correlation_gap_rate_series(s1, s2, cfg):
    """:func:`correlation_gap_rates` at every snapshot of two stacks
    (K, N, n, p), as three (K,) arrays: one ``rhs`` call per stack and the
    products as one ``einsum`` with a leading axis. Each value is bit for
    bit the one-snapshot oracle's."""

    def products(u, v):
        return np.einsum("kjab,kiac->kjibc", u, v)

    v1, v2 = rhs(s1, cfg), rhs(s2, cfg)
    d = products(s1, s1) - products(s2, s2)
    dd = products(v1, s1) + products(s1, v1) - products(v2, s2) - products(s2, v2)
    k = d - np.swapaxes(d, -2, -1)
    dk = dd - np.swapaxes(dd, -2, -1)
    axes = (1, 2, 3, 4)
    plain = np.sum(d * d, axis=axes)
    skew = np.sum(k * k, axis=axes)
    return plain, skew, 2.0 * (np.sum(d * dd, axis=axes) + np.sum(k * dk, axis=axes))


def correlation_gap_components(s1, s2) -> tuple[float, float]:
    """Squared l2 gaps between two ensembles' correlation sets: the plain
    gap sum_ij ||A_ji - B_ji||^2 and the gap of their skew parts.

    The per-snapshot oracle of ``diagnostics.correlation_gap_series``."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.shape != s2.shape or s1.ndim != 3:
        raise DimensionError(f"ensemble shapes differ: {s1.shape} vs {s2.shape}")
    da = correlations(s1) - correlations(s2)
    plain = float(np.sum(da * da))
    skew = da - np.swapaxes(da, -2, -1)
    return plain, float(np.sum(skew * skew))


def whole_window_consensus(times, states) -> ConsensusStatus:
    """``diagnostics.consensus_status`` taken on the (W, N, N, p, p) stack of
    its whole window's Gram products, with the mean ``stack.mean(axis=0)``:
    the oracle of its two passes over the window's chunks. It classifies at
    ``diagnostics.CONSENSUS_TOL`` as read when called, as the library does."""
    window_rows = len(times) - trailing_window_start(times)
    stack = np.stack([correlations(s) for s in states[-window_rows:]])
    mean = stack.mean(axis=0)

    def largest_norm(blocks):
        return float(np.max(np.sqrt(np.sum(blocks * blocks, axis=(-2, -1)))))

    max_identity_gap = largest_norm(stack - np.eye(stack.shape[-1]))
    max_variation = largest_norm(stack - mean)
    tol = diagnostics.CONSENSUS_TOL
    if max_identity_gap <= tol:
        kind = "complete"
    elif max_variation <= tol:
        kind = "partial"
    else:
        kind = "none"
    return ConsensusStatus(
        kind=kind,
        limits=None if kind == "none" else mean,
        max_identity_gap=max_identity_gap,
        max_variation=max_variation,
    )


# the functions run_scenario calls for its phases, by phase name: the loop,
# which forms the potential and the pair series of each recorded chunk
# too, the analyses and the emission
RUN_PHASES = {
    "integrate": (scenario, "integrate"),
    "consensus_status": (diagnostics, "consensus_status"),
    "fit_decay_rate": (diagnostics, "fit_decay_rate"),
    "audit_series": (diagnostics, "audit_series"),
    "stability_gain": (diagnostics, "stability_gain"),
    "emit_series": (scenario, "emit_series"),
}


def phase_peaks(call) -> dict[str, int]:
    """Run ``call()`` under ``tracemalloc`` with each function of
    ``RUN_PHASES`` wrapped, and return, per phase that ran, the largest over
    its calls of the bytes of its peak above the memory held when it returns
    (its result included): what it allocates and releases. Each call starts
    with ``tracemalloc.reset_peak()``, so the phases must not call one
    another."""
    peaks = {}

    def traced(name, function):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            result = function(*args, **kwargs)
            held, peak = tracemalloc.get_traced_memory()
            peaks[name] = max(peaks.get(name, 0), peak - held)
            return result

        return wrapper

    originals = {name: getattr(module, attr) for name, (module, attr) in RUN_PHASES.items()}
    for name, (module, attr) in RUN_PHASES.items():
        setattr(module, attr, traced(name, originals[name]))
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
        for name, (module, attr) in RUN_PHASES.items():
            setattr(module, attr, originals[name])
    return peaks


def ensemble_lp_distance(e1, e2, p_exp: float) -> float:
    """(sum_i ||S_i - T_i||^p)^(1/p) between two aligned ensembles.

    An oracle for the norm that ``diagnostics.stability_gain`` takes."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.shape != e2.shape or e1.ndim != 3:
        raise DimensionError(f"ensemble shapes differ: {e1.shape} vs {e2.shape}")
    if p_exp < 1:
        raise ValidationError(f"p_exp must be >= 1, got {p_exp}")
    diffs = e1 - e2
    norms = np.sqrt(np.sum(diffs * diffs, axis=(-2, -1)))
    if p_exp == 1:
        return float(np.sum(norms))
    if p_exp == 2:
        return float(np.sqrt(np.sum(norms * norms)))
    return float(np.sum(norms ** p_exp) ** (1.0 / p_exp))


def pair_sq_distances(states):
    """Table of squared Frobenius distances ||S_i - S_k||^2, (..., N, N),
    from one (..., N, N, n, p) difference array of the whole stack: the
    oracle of the chunk tables of ``manifold._pair_sq_chunks``."""
    states = np.asarray(states, dtype=float)
    diffs = states[..., :, None, :, :] - states[..., None, :, :, :]
    return np.sum(diffs * diffs, axis=(-2, -1))


def whole_stack_drift(states):
    """``orthonormality_drift`` of a (..., N, n, p) stack from one Gram
    defect of the whole stack, as it was taken before it walked chunks."""
    states = np.asarray(states, dtype=float)
    gram = states.swapaxes(-2, -1) @ states - np.eye(states.shape[-1])
    return np.sqrt((gram * gram).sum(axis=(-2, -1)).max(axis=-1))


def whole_stack_diameter(states):
    """``ensemble_diameter`` of a stack from the table of the whole stack."""
    return np.sqrt(pair_sq_distances(states).max(axis=(-2, -1)))


def whole_stack_potential(states, topology):
    """``model.potential`` of a stack from the table of the whole stack."""
    table = pair_sq_distances(states)
    return np.sum(topology.weights * table, axis=(-2, -1)) / topology.agent_count


def whole_stack_distances(s1, s2):
    """The agent distances x_i = ||S_i - T_i|| of two aligned (K, N, n, p)
    stacks, (K, N), and their l1 and l2 sums over the agents, from one
    difference array: what ``diagnostics.pair_columns`` forms chunk by
    chunk."""
    diffs = np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float)
    norms = np.sqrt(np.sum(diffs * diffs, axis=(-2, -1)))
    return norms, norms.sum(axis=1), np.sqrt((norms ** 2).sum(axis=1))


def loop_qr_thin(a):
    """One matrix's sign-fixed thin QR, as ``qr_thin`` was written before
    it took stacks."""
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q, r = q * d, d[:, None] * r
    if np.any(np.abs(np.diag(r)) <= RANK_TOL * np.linalg.norm(a)):
        raise RankDeficiencyError(
            f"rank-deficient input: min |R_ii| = {np.min(np.abs(np.diag(r))):.3e}"
        )
    return q, r


def loop_retract(x):
    """One matrix's validated polar retraction, as ``retract`` did it before
    it took stacks: the eigendecomposition of x^T x, its checks, and the
    checks of ``validate_ensemble`` on the factor."""
    if not np.all(np.isfinite(x)):
        raise ValidationError("polar factor input contains NaN or Inf entries")
    with np.errstate(over="ignore", invalid="ignore"):
        w, v = np.linalg.eigh(x.T @ x)
    if not w[0] > (RANK_TOL**2) * np.maximum(w[-1], 1e-300):
        raise ProjectionError("a^T a is numerically singular; projection undefined")
    u = x @ ((v / np.sqrt(w)[None, :]) @ v.T)
    if not np.all(np.isfinite(u)):
        raise ValidationError("retracted point contains NaN or Inf entries")
    defect = np.linalg.norm(u.T @ u - np.eye(u.shape[1]))
    if defect > ORTH_CONSTRUCTION_TOL:
        raise ValidationError(
            f"retracted point is off the manifold: ||x^T x - I|| = {defect:.3e}"
        )
    return u


def loop_random_ensemble(n, p, count, seed=None):
    """Haar ensemble drawn one agent at a time: the per-agent loop that
    ``random_ensemble`` replaced."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return np.stack([loop_qr_thin(rng.standard_normal((n, p)))[0] for _ in range(count)])


def loop_perturb_ensemble(states, radius, seed=None):
    """Each agent displaced along its own random tangent of norm ``radius``
    and retracted, one agent at a time: the per-agent loop that
    ``perturb_ensemble`` replaced. A rescaling that overflows warns here."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    moved = []
    for s in np.asarray(states, dtype=float):
        g = rng.standard_normal(s.shape)
        m = s.T @ g
        v = g - s @ ((m + m.T) / 2.0)
        size = np.linalg.norm(v)
        if size == 0.0:
            raise ValidationError("degenerate zero tangent sample")
        moved.append(loop_retract(s + v * (radius / size)))
    return np.stack(moved)


def loop_frequency_checks(freqs) -> None:
    """The skew test of every generator, one agent at a time, unscaled: the
    per-agent loop that ``ModelConfig`` ran before it tested the stack at
    once. A generator whose norms overflow passes here, and warns."""
    for i, x in enumerate(np.asarray(freqs, dtype=float)):
        name = f"frequency generator {i}"
        if not np.all(np.isfinite(x)):
            raise ValidationError(f"{name} contains NaN or Inf entries")
        defect = np.linalg.norm(x + x.T)
        if defect > ALGEBRAIC_TOL * max(1.0, np.linalg.norm(x)):
            raise ValidationError(f"{name} is not skew-symmetric (defect {defect:.3e})")


def savetxt_series(columns: dict, path) -> None:
    """A series file as ``emit_series`` wrote it with ``np.savetxt``."""
    table = np.column_stack(list(columns.values()))
    with open(path, "w") as handle:
        np.savetxt(
            handle, table, fmt="%.17g", delimiter=",", header=",".join(columns), comments=""
        )


def worst_relative_bound_excess(cfg, traj1, traj2, floor=1e-20):
    """max over snapshots with F = X + Y > floor of (dF/dt - bound) / F, with
    dF/dt exact and the bound from the correlation-contraction inequality."""
    plain, skew, rate = correlation_gap_rate_series(traj1.states, traj2.states, cfg)
    bound = correlation_contraction_bound(
        plain, skew, traj1.diameters, traj2.diameters, cfg
    )
    gap = plain + skew
    kept = gap > floor
    assert kept.any(), "no snapshot with a gap above the floor"
    return float(np.max((rate[kept] - bound[kept]) / gap[kept]))


@pytest.fixture(scope="session")
def homogeneous_pairs():
    """Homogeneous zero-frequency pairs with one, two and three columns."""
    return {p: homogeneous_pair(p) for p in (1, 2, 3)}


@pytest.fixture(scope="session")
def framework_pair_session():
    """One shared framework pair for tests that only need a representative."""
    return run_framework_pair(404)


@pytest.fixture(scope="session")
def bundled_runs(tmp_path_factory):
    """Each bundled scenario run once through ``stiefel-sync run <name>``,
    for the goldens and for the tests that need a bundled run's outputs."""
    out_dir = str(tmp_path_factory.mktemp("bundled"))
    return {name: run_bundled(name, out_dir) for name in SCENARIOS}
