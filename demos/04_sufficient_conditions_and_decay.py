"""The sufficient conditions for consensus under heterogeneous generators,
and the exponential contraction they certify: the squared correlation gap
between a run and a perturbed copy decays cleanly, and its fitted rate is
compared against the rate bound evaluated from measured diameters."""

import numpy as np

from stiefel_sync import (
    IntegratorConfig,
    ModelConfig,
    Topology,
    check_framework,
    contraction_slack,
    cubic_analysis,
    decay_rate_bound,
    diameter_threshold,
    fit_decay_rate,
    integrate,
    near_consensus_ensemble,
    random_frequencies,
)
from stiefel_sync.diagnostics import correlation_gap_series
from stiefel_sync.manifold import perturb_ensemble
from stiefel_sync.model import coupling_margin_threshold
from stiefel_sync.scenario import generate_xi

count, n, p = 8, 6, 2
xi = generate_xi(count, center=1.0, spread=0.02, seed=11)
topology = Topology.separable(xi)
freqs = random_frequencies(count, p, spread=0.02, seed=12)

# solve for a coupling strength with a 10% margin in the frequency condition
probe = ModelConfig(kappa=1.0, topology=topology, freqs=freqs, n=n, p=p)
kappa = probe.freq_spread / (0.9 * coupling_margin_threshold(probe))
cfg = ModelConfig(kappa=kappa, topology=topology, freqs=freqs, n=n, p=p)
print(f"solved coupling strength kappa = {kappa:.3f}")

init = near_consensus_ensemble(n, p, count, 0.35 * diameter_threshold(cfg), seed=13)
report = check_framework(cfg, init)
for cond in report.conditions():
    print(f"  {cond.name:18s} lhs={cond.lhs:.5f} rhs={cond.rhs:.5f} margin={cond.margin:+.5f}")
print("all conditions satisfied:", report.satisfied)

cubic = cubic_analysis(cfg)
print(f"cubic at threshold: f = {cubic.f_at_bound:+.4f} (invariant region: {cubic.invariant_region_ok})")

# the run and its perturbed copy step as one batch on one time grid
icfg = IntegratorConfig(h=1e-3, t_end=10.0, record_stride=1)
pair = np.stack([init, perturb_ensemble(init, 1e-3, seed=14)])
traj, partner = integrate(pair, cfg, icfg).members()

plain, skewed = correlation_gap_series(traj, partner)
gap = plain + skewed
# fitted over the trailing half of the span, t in [5, 10]
rate, r2 = fit_decay_rate(traj.times, gap)
slack_sup = max(
    contraction_slack(cfg, float(a), float(b))
    for a, b in zip(traj.diameters, partner.diameters)
)
print(f"\ncorrelation gap: {gap[0]:.2e} -> {gap[-1]:.2e}")
print(f"fitted decay rate {rate:.3f} (r^2 = {r2:.6f})")
print(f"rate bound from measured diameters: {decay_rate_bound(cfg, slack_sup):.3f}")
print(f"largest diameter seen {max(traj.diameters.max(), partner.diameters.max()):.4f}"
      f" vs threshold {diameter_threshold(cfg):.4f}")
