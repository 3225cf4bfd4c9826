"""Acceptance suite: each test exercises one stated criterion end to end and
prints a PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Shared heavy runs (the ten generated sufficient-condition scenarios) are
computed once in a module fixture and reduced to scalars immediately.
"""

import math
import os

import numpy as np
import pytest

from stiefel_sync import diagnostics as dg
from stiefel_sync.integrate import IntegratorConfig, integrate
from stiefel_sync.linalg import expm_skew
from stiefel_sync.manifold import (
    ensemble_diameter,
    near_consensus_ensemble,
    perturb_ensemble,
    random_ensemble,
    random_tangent,
    retract,
    tangent_residual,
)
from stiefel_sync.model import (
    ModelConfig,
    Topology,
    check_framework,
    common_frequencies,
    contraction_slack,
    decay_rate_bound,
    diameter_threshold,
    moving_frame,
    potential,
    random_frequencies,
    random_skew,
    rhs,
    zero_frequencies,
)
from stiefel_sync.scenario import Scenario, generate_weights, generate_xi

from conftest import (
    kuramoto_o2_config,
    make_framework_config,
    run_columns,
    whole_window_consensus,
    worst_relative_bound_excess,
)


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {verdict}{suffix}")
    return ok


def random_mixed_config(seed):
    """Mixed homogeneous/heterogeneous desk-scale configuration."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(3, 9))
    n = int(rng.integers(3, 7))
    p = int(rng.integers(1, min(n, 3) + 1))
    kappa = float(rng.uniform(0.5, 4.0))
    if seed % 2 == 0:
        topo = Topology.separable(rng.uniform(0.7, 1.3, count))
    else:
        topo = Topology.general(generate_weights(count, 0.4, 1.4, 0.8, seed))
    style = seed % 3
    if style == 0 or p == 1:
        freqs = zero_frequencies(count, p)
    elif style == 1:
        freqs = common_frequencies(random_skew(p, seed + 1, 0.8), count)
    else:
        freqs = random_frequencies(count, p, float(rng.uniform(0.2, 1.0)), seed + 1)
    cfg = ModelConfig(kappa=kappa, topology=topo, freqs=freqs, n=n, p=p)
    if seed % 2 == 0:
        init = random_ensemble(n, p, count, seed + 2)
    else:
        init = near_consensus_ensemble(n, p, count, 0.3, seed + 2)
    return cfg, init


FRAMEWORK_SEEDS = (11, 23, 37, 41, 53, 67, 79, 83, 97, 109)


@pytest.fixture(scope="module")
def framework_results():
    """Run the ten generated sufficient-condition scenarios with a perturbed
    partner, reduce everything the reproduction criteria need to scalars."""
    results = []
    for seed in FRAMEWORK_SEEDS:
        cfg, initial = make_framework_config(seed)
        icfg = IntegratorConfig(h=1e-3, t_end=10.0, record_stride=1)
        pair = np.stack([initial, perturb_ensemble(initial, 1e-3, seed + 3)])
        traj, partner = integrate(pair, cfg, icfg).members()

        framework = check_framework(cfg, initial)
        plain, skewed = dg.correlation_gap_series(traj, partner)
        gap = plain + skewed
        rate, r_squared = dg.fit_decay_rate(traj.times, gap)
        slack_series = contraction_slack(cfg, traj.diameters, partner.diameters)
        delta_measured = decay_rate_bound(cfg, float(np.max(slack_series)))
        bound = diameter_threshold(cfg)
        delta_default = decay_rate_bound(cfg, contraction_slack(cfg, bound, bound))

        status = dg.consensus_status(traj.states[-1], cfg)
        window = whole_window_consensus(traj.times, traj.states)

        columns = dg.pair_columns(traj, partner)
        audits = {
            "diameter_bound": dg.audit_diameter_bound(run_columns(traj), cfg),
            "correlation_contraction": dg.audit_correlation_contraction(columns, cfg),
            "agent_distance_bound": dg.audit_agent_distance_bound(columns, cfg),
        }
        mutated_correlation = dg.audit_correlation_contraction(
            columns, cfg, mutation="overstated_skew_rate"
        )
        cubic = dg.cubic_analysis(cfg)
        results.append(
            {
                "seed": seed,
                "framework": framework,
                "rate": rate,
                "r_squared": r_squared,
                "delta_measured": delta_measured,
                "delta_default": delta_default,
                "max_variation": window.max_variation,
                "consensus_kind": status.kind,
                "window_kind": window.kind,
                "audits": audits,
                "mutated_correlation": mutated_correlation,
                "exact_bound_excess": worst_relative_bound_excess(cfg, traj, partner),
                "cubic": cubic,
                "max_diameter": float(np.max(traj.diameters)),
                "max_partner_diameter": float(np.max(partner.diameters)),
                "threshold": bound,
            }
        )
    return results


def test_criterion_01_manifold_invariance():
    """Twenty random runs: retraction keeps the recorded drift at rounding
    level; with retraction disabled the drift stays far below 1e-6."""
    retracted = []
    unretracted = []
    for seed in range(20):
        cfg, init = random_mixed_config(seed)
        traj = integrate(
            init, cfg, IntegratorConfig(h=1e-3, t_end=50.0, record_stride=500)
        )
        retracted.append(float(np.max(traj.drift)))
        free = integrate(
            init,
            cfg,
            IntegratorConfig(h=1e-3, t_end=10.0, retraction="never", record_stride=200),
        )
        unretracted.append(float(np.max(free.drift)))
    worst_on = max(retracted)
    worst_off = max(unretracted)
    ok = worst_on <= 1e-10 and worst_off <= 1e-6
    report(1, "manifold invariance", ok, f"drift on={worst_on:.2e} off={worst_off:.2e}")
    assert worst_on <= 1e-10
    assert worst_off <= 1e-6


def test_criterion_02_tangency_fuzz():
    """The velocity field lies in the tangent space at every agent."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        count = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, min(n, 4) + 1))
        if int(rng.integers(2)) == 0:
            topo = Topology.separable(rng.uniform(0.6, 1.4, count))
        else:
            w = rng.uniform(0.2, 1.5, (count, count))
            topo = Topology.general((w + w.T) / 2.0)
        spread = float(rng.uniform(0.0, 1.5)) if p > 1 else 0.0
        freqs = (
            random_frequencies(count, p, spread, int(rng.integers(1e9)))
            if spread > 0
            else zero_frequencies(count, p)
        )
        cfg = ModelConfig(
            kappa=float(rng.uniform(0.0, 10.0)), topology=topo, freqs=freqs, n=n, p=p
        )
        states = random_ensemble(n, p, count, rng)
        velocity = rhs(states, cfg)
        for i in range(count):
            worst = max(worst, tangent_residual(states[i], velocity[i]))
    ok = worst <= 1e-12
    report(2, "velocity tangency", ok, f"max residual {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_03_gradient_flow_descent_and_convergence():
    """Without intrinsic rotations the dynamics descends the disagreement
    potential, and ensembles starting with diameter below sqrt(2) reach
    consensus."""
    h = 2e-3
    worst_increase = -np.inf
    worst_final = 0.0
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        count = int(rng.integers(3, 8))
        n = int(rng.integers(3, 6))
        p = int(rng.integers(1, min(n, 3) + 1))
        kappa = float(rng.uniform(4.0, 6.0))
        if seed % 2 == 0:
            topo = Topology.separable(rng.uniform(0.8, 1.2, count))
        else:
            topo = Topology.general(generate_weights(count, 0.5, 1.5, 0.9, seed))
        cfg = ModelConfig(
            kappa=kappa, topology=topo, freqs=zero_frequencies(count, p), n=n, p=p
        )
        radius = float(rng.uniform(0.15, 0.55))
        init = near_consensus_ensemble(n, p, count, radius, 900 + seed)
        assert ensemble_diameter(init) < math.sqrt(2.0)
        traj = integrate(init, cfg, IntegratorConfig(h=h, t_end=20.0, record_stride=5))
        values = np.array([potential(traj.states[k], topo) for k in range(len(traj))])
        worst_increase = max(worst_increase, float(np.max(np.diff(values))))
        worst_final = max(worst_final, float(traj.diameters[-1]))
    ok = worst_increase <= 1e-9 * h and worst_final <= 1e-6
    report(
        3,
        "gradient descent and consensus",
        ok,
        f"max potential increase {worst_increase:.2e}, max final diameter {worst_final:.2e}",
    )
    assert worst_increase <= 1e-9 * h
    assert worst_final <= 1e-6


def test_criterion_04_moving_frame_equivalence():
    """A run with a common generator, observed in the co-rotating frame,
    matches the run of the frozen system pointwise to integrator accuracy."""
    h = 1e-3
    count, n, p = 5, 4, 2
    topo = Topology.separable(np.ones(count))
    skew = random_skew(p, 99, 0.8)
    cfg_rotating = ModelConfig(
        kappa=1.5, topology=topo, freqs=common_frequencies(skew, count), n=n, p=p
    )
    cfg_frozen = ModelConfig(
        kappa=1.5, topology=topo, freqs=zero_frequencies(count, p), n=n, p=p
    )
    init = near_consensus_ensemble(n, p, count, 0.4, seed=100)
    icfg = IntegratorConfig(h=h, t_end=50.0, record_stride=100)
    rotating = integrate(init, cfg_rotating, icfg)
    frozen = integrate(init, cfg_frozen, icfg)
    worst = 0.0
    for t_check in (1.0, 10.0, 50.0):
        k = int(np.argmin(np.abs(rotating.times - t_check)))
        assert abs(rotating.times[k] - t_check) <= 1e-12
        transported = moving_frame(rotating.states[k], skew, float(rotating.times[k]))
        gap = np.max(np.sqrt(np.sum((transported - frozen.states[k]) ** 2, axis=(-2, -1))))
        worst = max(worst, float(gap))
    tol = 100.0 * h ** 4
    ok = worst <= tol
    report(4, "moving-frame equivalence", ok, f"max gap {worst:.2e} <= {tol:.0e}")
    assert worst <= tol


def test_criterion_05_consensus_reproduction(framework_results):
    """Ten generated scenarios: all four sufficient conditions hold with
    margin, the correlation gap decays cleanly at least as fast as the rate
    bounds, and every pairwise correlation is Cauchy in the trailing
    window."""
    flags_ok = all(
        r["framework"].satisfied
        and all(c.margin > 0 for c in r["framework"].conditions())
        for r in framework_results
    )
    rate_ok = True
    fit_ok = True
    for r in framework_results:
        # the design default for the slack bound sits exactly at the critical
        # level, so its rate bound is zero and any measured decay clears it;
        # the measured-slack bound is the quantitative check
        rate_ok = rate_ok and r["rate"] >= 0.95 * r["delta_default"]
        rate_ok = rate_ok and r["rate"] >= 0.95 * r["delta_measured"]
        fit_ok = fit_ok and r["r_squared"] >= 0.99
    cauchy_ok = all(r["max_variation"] <= 1e-6 for r in framework_results)
    settled_ok = all(r["consensus_kind"] in ("partial", "complete") for r in framework_results)

    min_margin = min(
        r["rate"] - 0.95 * r["delta_measured"] for r in framework_results
    )
    ok = flags_ok and rate_ok and fit_ok and cauchy_ok and settled_ok
    report(
        5,
        "asymptotic consensus reproduction",
        ok,
        f"min rate margin {min_margin:.3f}, worst variation "
        f"{max(r['max_variation'] for r in framework_results):.2e}",
    )
    assert flags_ok, "a sufficient-condition flag is not satisfied with margin"
    assert rate_ok, "fitted decay rate fell below a rate bound"
    assert fit_ok, "correlation-gap decay is not cleanly exponential"
    assert cauchy_ok, "a pairwise correlation failed the Cauchy window check"
    assert settled_ok


BUNDLED = os.path.join(os.path.dirname(dg.__file__), "scenarios")


def test_end_state_consensus_agrees_with_the_window(framework_results, bundled_runs):
    """The library's verdict from the last snapshot equals the verdict of
    the trailing fifth of the span (``conftest.whole_window_consensus``)
    on the four bundled scenarios, integrated with their states stored, on
    criterion 05's ten runs, and on the O(2) Kuramoto config at 0.97 and
    1.03 times its exact critical coupling, h 1e-2 to t = 400, where the
    flow does not lock and locks. A bundled scenario's report reads the
    verdict of the stored run."""
    verdicts = {}
    for name, run in bundled_runs.items():
        sc = Scenario.from_file(os.path.join(BUNDLED, f"{name}.json"))
        traj = integrate(sc.initial, sc.model, sc.integrator)
        status = dg.consensus_status(traj.states[-1], sc.model)
        window = whole_window_consensus(traj.times, traj.states)
        verdicts[name] = (status.kind, window.kind)
        if run.report["consensus"] is not None:
            assert run.report["consensus"]["kind"] == status.kind
    for r in framework_results:
        verdicts[f"criterion 05 seed {r['seed']}"] = (r["consensus_kind"], r["window_kind"])
    for ratio in (0.97, 1.03):
        cfg, initial = kuramoto_o2_config(ratio)
        traj = integrate(initial, cfg, IntegratorConfig(h=1e-2, t_end=400.0))
        status = dg.consensus_status(traj.states[-1], cfg)
        window = whole_window_consensus(traj.times, traj.states)
        verdicts[f"O(2) at {ratio} K_c"] = (status.kind, window.kind)
    assert {case: kinds[0] for case, kinds in verdicts.items()} == {
        case: kinds[1] for case, kinds in verdicts.items()
    }
    assert verdicts["O(2) at 0.97 K_c"][0] == "none"
    assert verdicts["O(2) at 1.03 K_c"][0] == "partial"
    assert verdicts["framework_hetero"][0] == "partial"


def test_criterion_06a_diameter_audit_with_mutation(framework_results):
    """The diameter inequality holds on every scenario, and the audit
    detects the removal of its cubic term on a wide-separation run."""
    worst = max(r["audits"]["diameter_bound"].max_violation for r in framework_results)
    audits_ok = all(r["audits"]["diameter_bound"].passed for r in framework_results)

    init = np.stack(
        [
            np.array([[1.0], [0.0]]),
            np.array([[math.cos(2.8)], [math.sin(2.8)]]),
        ]
    )
    cfg = ModelConfig(
        kappa=1.0,
        topology=Topology.separable(np.ones(2)),
        freqs=zero_frequencies(2, 1),
        n=2,
        p=1,
    )
    traj = integrate(init, cfg, IntegratorConfig(h=1e-3, t_end=1.0, record_stride=1))
    columns = run_columns(traj)
    standard = dg.audit_diameter_bound(columns, cfg)
    mutated = dg.audit_diameter_bound(columns, cfg, mutation="drop_cubic_term")
    mutation_ok = standard.passed and not mutated.passed

    ok = audits_ok and mutation_ok
    report(6, "diameter-bound audit", ok, f"max violation {worst:.2e}")
    assert audits_ok
    assert mutation_ok


def test_criterion_06b_agent_audit_with_mutation(framework_results):
    """The per-agent distance inequality holds on every scenario, and the
    audit detects removal of the running-diameter term on wide pairs."""
    worst = max(r["audits"]["agent_distance_bound"].max_violation for r in framework_results)
    audits_ok = all(r["audits"]["agent_distance_bound"].passed for r in framework_results)

    cfg = ModelConfig(
        kappa=3.0,
        topology=Topology.separable(np.ones(5)),
        freqs=zero_frequencies(5, 2),
        n=3,
        p=2,
    )
    icfg = IntegratorConfig(h=1e-3, t_end=0.5, record_stride=1)
    pair = np.stack([random_ensemble(3, 2, 5, seed=7001), random_ensemble(3, 2, 5, seed=7002)])
    t1, t2 = integrate(pair, cfg, icfg).members()
    columns = dg.pair_columns(t1, t2)
    standard = dg.audit_agent_distance_bound(columns, cfg)
    mutated = dg.audit_agent_distance_bound(columns, cfg, mutation="drop_state_term")
    mutation_ok = standard.passed and not mutated.passed

    ok = audits_ok and mutation_ok
    report(6, "agent-distance audit", ok, f"max violation {worst:.2e}")
    assert audits_ok
    assert mutation_ok


def test_criterion_06c_correlation_audit_with_mutation(framework_results):
    """The contraction bound for the correlation gap, checked as an audit
    on every scenario.

    For two or more columns the skew sector of the gap contracts at about
    half the rate of the plain sector (the rotational part of each agent's
    correlation difference contracts at kappa xi_i xi_mean); the bound
    derived for the implemented field carries that rate. The mutation
    restores the overstated skew-sector rate kappa (4 xi_min xi_mean -
    xi_max^2), which the dynamics do not reach, and must be reported as a
    violation on every pair.
    """
    mutation_ok = all(
        (not r["mutated_correlation"].passed)
        and r["mutated_correlation"].max_violation
        > r["audits"]["correlation_contraction"].max_violation
        for r in framework_results
    )
    assert mutation_ok

    worst = max(
        r["audits"]["correlation_contraction"].max_violation for r in framework_results
    )
    tol = max(r["audits"]["correlation_contraction"].tol for r in framework_results)
    audits_ok = all(
        r["audits"]["correlation_contraction"].passed for r in framework_results
    )
    report(
        6,
        "correlation-contraction audit",
        audits_ok,
        f"max violation {worst:.2e} vs tol {tol:.2e}",
    )
    assert audits_ok, (
        "the correlation-contraction bound is violated by the true "
        f"dynamics (max violation {worst:.2e} > tol {tol:.2e})"
    )


def test_criterion_06c_exact_derivative_bound(framework_results):
    """With dF/dt computed from the velocity field (no finite differences),
    the correlation-contraction inequality holds at every snapshot of every
    scenario, relative to F rather than within an absolute tolerance."""
    worst = max(r["exact_bound_excess"] for r in framework_results)
    ok = worst <= 0.0
    report(6, "correlation bound, exact derivative", ok, f"max (dF/dt - bound)/F {worst:.2e}")
    assert ok


def test_criterion_07_diameter_threshold_and_cubic(framework_results):
    """Recorded diameters never reach the sufficient-condition threshold and
    the cubic is negative at the threshold (invariant region confirmed)."""
    diam_ok = all(
        max(r["max_diameter"], r["max_partner_diameter"]) < r["threshold"]
        for r in framework_results
    )
    cubic_ok = all(
        r["cubic"].f_at_bound < 0 and r["cubic"].invariant_region_ok
        for r in framework_results
    )
    margin = min(
        r["threshold"] - max(r["max_diameter"], r["max_partner_diameter"])
        for r in framework_results
    )
    ok = diam_ok and cubic_ok
    report(7, "diameter stays below threshold", ok, f"min margin {margin:.2e}")
    assert diam_ok
    assert cubic_ok


def gain_at_horizon(traj1, traj2, p_exp, t_max):
    mask = traj1.times <= t_max + 1e-12
    diffs = traj1.states[mask] - traj2.states[mask]
    norms = np.sqrt(np.sum(diffs * diffs, axis=(-2, -1)))
    if p_exp == 1:
        dist = norms.sum(axis=1)
    else:
        dist = (norms ** p_exp).sum(axis=1) ** (1.0 / p_exp)
    return float(dist.max() / dist[0])


def test_criterion_08_uniform_stability_gains():
    """Five pairs under the complete-consensus premise: gains are horizon
    uniform for exponents 1, 2, 4; one general-topology pair has a finite,
    stable l1 gain."""
    worst_change = 0.0
    gains_seen = []
    for seed in (301, 302, 303, 304, 305):
        rng = np.random.default_rng(seed)
        count, n, p = 6, 5, 2
        xi = generate_xi(count, 1.0, 0.02, seed)
        topo = Topology.separable(xi)
        freqs = common_frequencies(random_skew(p, seed, 0.4), count)
        cfg = ModelConfig(kappa=2.5, topology=topo, freqs=freqs, n=n, p=p)
        init = near_consensus_ensemble(n, p, count, 0.02, seed + 1)
        partner_init = init.copy()
        partner_init[0] = retract(
            init[0] + random_tangent(init[0], rng, norm=2e-3)
        )
        icfg = IntegratorConfig(h=4e-3, t_end=100.0, record_stride=5)
        traj, partner = integrate(np.stack([init, partner_init]), cfg, icfg).members()
        for p_exp in (1.0, 2.0, 4.0):
            g50 = gain_at_horizon(traj, partner, p_exp, 50.0)
            g100 = gain_at_horizon(traj, partner, p_exp, 100.0)
            worst_change = max(worst_change, abs(g100 - g50) / g50)
            gains_seen.append(g100)

    wts = generate_weights(5, 0.5, 1.5, 0.8, 17)
    topo_g = Topology.general(wts)
    cfg_g = ModelConfig(kappa=2.0, topology=topo_g, freqs=zero_frequencies(5, 2), n=4, p=2)
    init_g = near_consensus_ensemble(4, 2, 5, 0.3, 18)
    icfg = IntegratorConfig(h=4e-3, t_end=100.0, record_stride=5)
    pair_g = np.stack([init_g, perturb_ensemble(init_g, 1e-3, 19)])
    t1, t2 = integrate(pair_g, cfg_g, icfg).members()
    g50 = gain_at_horizon(t1, t2, 1.0, 50.0)
    g100 = gain_at_horizon(t1, t2, 1.0, 100.0)
    general_ok = np.isfinite(g100) and g100 < 100.0 and abs(g100 - g50) / g50 < 0.05

    ok = worst_change < 0.05 and general_ok
    report(
        8,
        "uniform-in-time stability gains",
        ok,
        f"max horizon change {100 * worst_change:.3f}%, gains <= {max(gains_seen):.3f}, "
        f"general l1 gain {g100:.3f}",
    )
    assert worst_change < 0.05
    assert general_ok


def test_criterion_09_weighted_power_gap_fuzz():
    """The weighted power-mean gap never goes positive on 1e5 fuzz cases and
    is exactly zero at both equality cases."""
    rng = np.random.default_rng(5150)
    worst = -np.inf
    checked = 0
    for _ in range(100_000):
        count = int(rng.integers(1, 9))
        xi = rng.uniform(0.05, 3.0, count)
        kind = int(rng.integers(0, 10))
        if kind == 0:
            x = np.full(count, float(rng.uniform(0, 3)))
        elif kind == 1:
            x = np.zeros(count)
        else:
            x = rng.uniform(0.0, 4.0, count)
        p_exp = 1.0 if kind == 2 else float(rng.uniform(1.0, 8.0))
        gap = dg.holder_gap(xi, x, p_exp)
        scale = max(1.0, float(np.sum(np.outer(xi, xi) * x[None, :] ** p_exp)))
        worst = max(worst, gap / scale)
        if kind in (0, 1, 2):
            assert gap == 0.0
        checked += 1
    ok = worst <= 1e-12
    report(9, "weighted power-mean gap", ok, f"{checked} cases, max scaled gap {worst:.2e}")
    assert worst <= 1e-12


def circle_reduction(h):
    """Three agents at random phases on the unit circle of the plane,
    coupled all to all at kappa = 1.5 without frequencies: the matrix
    config, its initial states and phases, and one RK4 step of size ``h`` of
    the classical phase-coupled system, which steps each row of a stack of
    phases (..., N) at once."""
    count = 3
    kappa = 1.5
    rng = np.random.default_rng(42)
    thetas = rng.uniform(0.0, 2.0 * np.pi, count)
    init = np.stack([[[np.cos(t)], [np.sin(t)]] for t in thetas])
    topo = Topology.separable(np.ones(count))
    cfg = ModelConfig(kappa=kappa, topology=topo, freqs=zero_frequencies(count, 1), n=2, p=1)
    weights = topo.weights

    def angle_rhs(th):
        pulls = weights * np.sin(th[..., None, :] - th[..., :, None])
        return (kappa / count) * np.sum(pulls, axis=-1)

    def angle_step(th):
        k1 = angle_rhs(th)
        k2 = angle_rhs(th + 0.5 * h * k1)
        k3 = angle_rhs(th + 0.5 * h * k2)
        k4 = angle_rhs(th + h * k3)
        return th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return cfg, init, thetas, angle_step


def recorded_phases(init, cfg, h, t_end):
    """The phases of a matrix run recorded at every step, (K, N)."""
    traj = integrate(init, cfg, IntegratorConfig(h=h, t_end=t_end, record_stride=1))
    return np.arctan2(traj.states[:, :, 1, 0], traj.states[:, :, 0, 0])


def phase_gaps(a, b):
    """|a - b| modulo 2 pi, elementwise."""
    return np.abs(np.angle(np.exp(1j * (a - b))))


def test_criterion_10_scalar_reduction_oracle():
    """On single-column two-row states the matrix flow is the classical
    phase-coupled system: each of the 100,000 steps of the matrix run to
    t = 10 is, to rounding, the same integrator's step on the angles, taken
    for all recorded snapshots at once. The largest defect of each step,
    summed over the run, stays within the 1e-8 that the angle loop's
    endpoint is held to (the loop is the oracle of the next test); one
    step may be off by 1e-13, that sum spread evenly."""
    h = 1e-4
    cfg, init, _, angle_step = circle_reduction(h)
    phases = recorded_phases(init, cfg, h, 10.0)
    defects = phase_gaps(phases[1:], angle_step(phases[:-1])).max(axis=1)
    worst, summed = float(defects.max()), float(defects.sum())
    ok = worst <= 1e-13 and summed <= 1e-8
    report(10, "scalar reduction oracle", ok, f"step defect {worst:.2e}, summed {summed:.2e}")
    assert worst <= 1e-13
    assert summed <= 1e-8


def test_criterion_10_angle_loop_oracle():
    """Criterion 10's angle integrator as a loop of steps from the initial
    phases, over a short run to t = 0.1: the stacked step of every recorded
    snapshot is the loop's step of that snapshot bit for bit, and the
    loop's endpoint agrees with the matrix run to rounding."""
    h = 1e-4
    cfg, init, thetas, angle_step = circle_reduction(h)
    phases = recorded_phases(init, cfg, h, 0.1)
    stepped = np.array([angle_step(row) for row in phases[:-1]])
    assert np.array_equal(angle_step(phases[:-1]), stepped)
    th = thetas.copy()
    for _ in range(len(phases) - 1):
        th = angle_step(th)
    assert float(phase_gaps(phases[-1], th).max()) <= 1e-8


def test_criterion_11_integrator_order():
    """Richardson study on the closed-form rotation flow: halving the step
    divides the endpoint error by about 16."""
    count, n, p = 3, 4, 2
    skew = random_skew(p, seed=77, scale=1.5)
    cfg = ModelConfig(
        kappa=0.0,
        topology=Topology.separable(np.ones(count)),
        freqs=common_frequencies(skew, count),
        n=n,
        p=p,
    )
    init = random_ensemble(n, p, count, seed=78)
    exact = init @ expm_skew(skew)

    def endpoint_error(h):
        traj = integrate(init, cfg, IntegratorConfig(h=h, t_end=1.0, record_stride=10_000))
        return float(np.max(np.abs(traj.states[-1] - exact)))

    e1, e2, e3 = (endpoint_error(h) for h in (0.02, 0.01, 0.005))
    r1, r2 = e1 / e2, e2 / e3
    ok = 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0
    report(11, "integrator order", ok, f"ratios {r1:.1f}, {r2:.1f}")
    assert 12.0 <= r1 <= 20.0
    assert 12.0 <= r2 <= 20.0
