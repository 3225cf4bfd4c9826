"""Shared builders for the test suite."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from golden.regenerate import SCENARIOS, run_bundled
from stiefel_sync import diagnostics, scenario
from stiefel_sync.diagnostics import correlation_contraction_bound, correlations
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


@dataclass(frozen=True)
class WindowConsensus:
    """The verdict of :func:`whole_window_consensus`."""

    kind: str
    max_identity_gap: float
    max_variation: float


def whole_window_consensus(times, states) -> WindowConsensus:
    """Consensus classified from the trailing fifth of a run's span, as
    ``diagnostics.consensus_status`` did before it read the last snapshot:
    the oracle its verdicts are compared with. Over the (W, N, N, p, p)
    stack of the window's correlations, "complete" when the largest
    ||G_ij - I|| is within ``diagnostics.CONSENSUS_TOL``, else "partial"
    when the largest distance of a correlation from its window mean, its
    variation, is, else "none". The grid must span a positive time and its
    window hold two samples."""
    first = int(np.searchsorted(times, times[-1] - 0.2 * (times[-1] - times[0])))
    if not times[-1] > times[0] or len(times) - first < 2:
        raise ValueError("the grid has no consensus window")
    stack = np.stack([correlations(s) for s in states[first:]])

    def largest_norm(blocks):
        return float(np.max(np.sqrt(np.sum(blocks * blocks, axis=(-2, -1)))))

    max_identity_gap = largest_norm(stack - np.eye(stack.shape[-1]))
    max_variation = largest_norm(stack - stack.mean(axis=0))
    tol = diagnostics.CONSENSUS_TOL
    if max_identity_gap <= tol:
        kind = "complete"
    elif max_variation <= tol:
        kind = "partial"
    else:
        kind = "none"
    return WindowConsensus(kind, max_identity_gap, max_variation)


def gram_field(gram, cfg):
    """dG_ij/dt from the closed flow of the correlations G_ij = S_i^T S_j
    of one ensemble, given as the (N, N, p, p) array of ``correlations``,
    written from the formula, not from ``rhs``: with H_ij = (1/N) sum_k
    a_ik G_kj and A_ij = -Omega_i G_ij + kappa (H_ij - sym(H_ii) G_ij),
    dG_ij/dt = A_ij + A_ji^T."""
    count = gram.shape[0]
    h = np.einsum("ik,kjab->ijab", cfg.topology.weights, gram) / count
    own = h[np.arange(count), np.arange(count)]
    sym = (own + np.swapaxes(own, -2, -1)) / 2.0
    a = -cfg.freqs[:, None] @ gram + cfg.kappa * (h - sym[:, None] @ gram)
    return a + np.swapaxes(a, 0, 1).swapaxes(-2, -1)


def kuramoto_critical_coupling(omega) -> float:
    """The exact critical coupling K_c of the finite Kuramoto model
    theta_i' = omega_i + (K/N) sum_k sin(theta_k - theta_i), from Verwoerd
    and Mason (SIAM J. Appl. Dyn. Syst. 7, 2008): with omega centred and
    w = max |omega_i|, u* in (w, 2 w] solves 2 sum_i r_i(u) = sum_i 1 /
    r_i(u), r_i(u) = sqrt(1 - (omega_i / u)^2), and K_c = N u* / sum_i
    r_i(u*). The difference of the two sides rises from -inf at u = w, and
    bisection brackets its root to adjacent floats."""
    omega = np.asarray(omega, dtype=float)
    omega = omega - omega.mean()
    lo = hi = float(np.max(np.abs(omega)))
    hi *= 2.0

    def excess(u):
        r = np.sqrt(1.0 - (omega / u) ** 2)
        return 2.0 * r.sum() - (1.0 / r).sum()

    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return len(omega) * hi / float(np.sqrt(1.0 - (omega / hi) ** 2).sum())


def kuramoto_o2_config(ratio: float):
    """The O(2) config at coupling ``ratio`` K_c: N = 6 agents S_i =
    R(theta_i) in SO(2) (n = p = 2) with uniform weights and generators
    Omega_i = omega_i J, whose field is exactly the finite Kuramoto model.
    omega is drawn uniform on [-0.5, 0.5] and centred (K_c = 0.562206),
    theta(0) uniform on [-0.3, 0.3], both from seed 7. Returns the config
    and the initial ensemble."""
    rng = np.random.default_rng(7)
    omega = rng.uniform(-0.5, 0.5, 6)
    omega -= omega.mean()
    theta = rng.uniform(-0.3, 0.3, 6)
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    cfg = ModelConfig(
        kappa=ratio * kuramoto_critical_coupling(omega),
        topology=Topology.separable(np.ones(6)),
        freqs=omega[:, None, None] * turn,
        n=2,
        p=2,
    )
    cos, sin = np.cos(theta), np.sin(theta)
    initial = np.stack([np.array([[c, -s], [s, c]]) for c, s in zip(cos, sin)])
    return cfg, initial


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


def run_columns(traj) -> dict:
    """The ``t`` and ``diam_S`` columns of one run, all that the diameter
    audit reads."""
    return {"t": traj.times, "diam_S": traj.diameters}


def audit_verdict(audit) -> tuple[str, str, str]:
    """An audit's name, ``max_violation`` and ``tol``, the floats as hex,
    so that comparing verdicts compares them bit for bit."""
    return audit.name, audit.max_violation.hex(), audit.tol.hex()


def audit_chunks(audit, columns, cfg) -> list[slice]:
    """The chunks of interior rows that ``audit(columns, cfg)`` walks, as
    the audit driver asks ``diagnostics._chunk_rows`` for them."""
    chunk_rows = diagnostics._chunk_rows
    seen = []

    def recording(total, entries):
        seen.append(list(chunk_rows(total, entries)))
        return iter(seen[-1])

    diagnostics._chunk_rows = recording
    try:
        audit(columns, cfg)
    finally:
        diagnostics._chunk_rows = chunk_rows
    (chunks,) = seen
    return chunks


def pointwise_audit(name: str, columns, cfg) -> tuple[float, float]:
    """The ``max_violation`` of the audit ``name`` on the series
    ``columns``, written out one interior point t_j at a time: the central
    difference (v_{j+1} - v_{j-1}) / 2h of the audited value less the
    bound at t_j, the largest over the points, clipped at zero. Returned
    with the rounding it may differ from the library's value by.

    The diameter and correlation bounds are the library's operations in the
    library's order, so their rounding is zero. The per-agent bound k (n_i -
    s_i) + (k Z) s_i, with n_i = (1/N) sum_k a_ik x_k and s_i = (1/N) r_i
    x_i, r_i = sum_k a_ik, sums n_i and r_i one term at a time, where BLAS
    and numpy sum in their own order. Two orders of a sum of N nonnegative
    terms differ by at most (N - 1) eps times the sum of the terms, and the
    later operations round each once more, so the bound and the slope less
    it differ by at most 2 (N + 3) eps (|slope| + (k/N) (sum_k a_ik x_k +
    r_i x_i (1 + Z))), taken at its largest over the audited points: a
    max moves by at most what any of its terms moves by."""
    t = np.asarray(columns["t"], dtype=float)
    h = float(t[1] - t[0])
    total = t.shape[0]
    worst, rounding = -math.inf, 0.0
    if name == "diameter_bound":
        d = np.asarray(columns["diam_S"], dtype=float)
        half = cfg.kappa * cfg.topology.xi_stats().xi_min ** 2 / 2.0
        drive = 2.0 * math.sqrt(cfg.p) * cfg.freq_spread
        for j in range(1, total - 1):
            # numpy's vector pow and libm's pow can differ in the last bit,
            # so the cube is numpy's, on this point alone
            cube = float((d[j : j + 1] ** 3)[0])
            bound = -half * float(d[j]) + drive + cube * (half / 2.0)
            slope = (float(d[j + 1]) - float(d[j - 1])) / (2.0 * h)
            worst = max(worst, slope - bound)
    elif name == "correlation_contraction":
        x, y, d1, d2 = (
            [float(v) for v in columns[key]]
            for key in ("corr_sq", "corr_skew_sq", "diam_S", "diam_S_tilde")
        )
        stats = cfg.topology.xi_stats()
        rate_skew = cfg.kappa * (4.0 * stats.xi_min * stats.xi_mean - 2.5 * stats.xi_max ** 2)
        for j in range(1, total - 1):
            slack = (
                5.0 * cfg.kappa * stats.xi_max ** 2 * math.sqrt(cfg.p) * (d1[j] + d2[j])
                + 3.0 * cfg.kappa * stats.xi_max * stats.spread
                + cfg.freq_spread
            )
            rate_plain = 4.0 * (cfg.kappa * stats.xi_min * stats.xi_mean - slack)
            bound = -rate_plain * x[j] - rate_skew * y[j]
            slope = ((x[j + 1] + y[j + 1]) - (x[j - 1] + y[j - 1])) / (2.0 * h)
            worst = max(worst, slope - bound)
    else:
        count = cfg.agent_count
        x = [[float(v) for v in columns[f"dist_agent_{i}"]] for i in range(count)]
        z = [max(float(a), float(b)) for a, b in zip(columns["diam_S"], columns["diam_S_tilde"])]
        a = cfg.topology.weights.tolist()
        row_sums = []
        for i in range(count):
            row_sum = 0.0
            for k in range(count):
                row_sum += a[i][k]
            row_sums.append(row_sum)
        for j in range(1, total - 1):
            for i in range(count):
                if not x[i][j] >= diagnostics.DISTANCE_FLOOR:
                    continue
                neighbours = 0.0
                for k in range(count):
                    neighbours += x[k][j] * a[k][i]
                own = x[i][j] * row_sums[i] / count
                bound = (neighbours / count - own) * cfg.kappa + own * (cfg.kappa * z[j])
                slope = (x[i][j + 1] - x[i][j - 1]) / (2.0 * h)
                worst = max(worst, slope - bound)
                scale = abs(slope) + cfg.kappa / count * (
                    neighbours + x[i][j] * row_sums[i] * (1.0 + z[j])
                )
                rounding = max(rounding, 2 * (count + 3) * np.finfo(float).eps * scale)
    return max(0.0, worst), rounding


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
