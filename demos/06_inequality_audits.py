"""Auditing the differential inequalities on recorded runs: finite-difference
slopes of the measured series against the bounds, with named mutations that
deliberately overstate a bound to prove the audit can detect violations.

The correlation-contraction audit is the interesting one: with two or more
columns the skew sector of the correlation gap contracts at about half the
rate of the plain sector. The bound derived for the implemented field holds;
the mutation that restores the overstated skew-sector rate is reported as a
violation on the same condition-satisfying pair.
"""

import numpy as np

from stiefel_sync import (
    IntegratorConfig,
    ModelConfig,
    Topology,
    integrate,
    near_consensus_ensemble,
    random_frequencies,
    zero_frequencies,
)
from stiefel_sync.diagnostics import (
    audit_agent_distance_bound,
    audit_correlation_contraction,
    audit_diameter_bound,
    pair_columns,
)
from stiefel_sync.manifold import perturb_ensemble
from stiefel_sync.model import coupling_margin_threshold, diameter_threshold
from stiefel_sync.scenario import generate_xi


def show(audit):
    verdict = "pass" if audit.passed else "VIOLATED"
    print(f"  {audit.name:26s} max violation {audit.max_violation:.3e}"
          f"  tol {audit.tol:.3e}  {verdict}")


count, n, p = 8, 6, 2
xi = generate_xi(count, 1.0, 0.02, seed=21)
topology = Topology.separable(xi)
freqs = random_frequencies(count, p, 0.02, seed=22)
probe = ModelConfig(kappa=1.0, topology=topology, freqs=freqs, n=n, p=p)
kappa = probe.freq_spread / (0.9 * coupling_margin_threshold(probe))
cfg = ModelConfig(kappa=kappa, topology=topology, freqs=freqs, n=n, p=p)

init = near_consensus_ensemble(n, p, count, 0.35 * diameter_threshold(cfg), seed=23)
# the run and its perturbed copy step as one batch on one time grid
icfg = IntegratorConfig(h=1e-3, t_end=8.0, record_stride=1)
pair = np.stack([init, perturb_ensemble(init, 1e-3, seed=24)])
traj, partner = integrate(pair, cfg, icfg).members()
# the audits read named series columns, as a scenario run and a CSV re-audit do
columns = pair_columns(traj, partner)

print("standard audits on a condition-satisfying pair:")
show(audit_diameter_bound({"t": traj.times, "diam_S": traj.diameters}, cfg))
show(audit_agent_distance_bound(columns, cfg))
show(audit_correlation_contraction(columns, cfg))

print("\nmutated bounds must register as violations somewhere:")
wide = np.stack([
    np.array([[1.0], [0.0]]),
    np.array([[np.cos(2.8)], [np.sin(2.8)]]),
])
cfg_wide = ModelConfig(
    kappa=1.0, topology=Topology.separable(np.ones(2)), freqs=zero_frequencies(2, 1), n=2, p=1
)
traj_wide = integrate(wide, cfg_wide, IntegratorConfig(h=1e-3, t_end=1.0, record_stride=1))
wide_columns = {"t": traj_wide.times, "diam_S": traj_wide.diameters}
show(audit_diameter_bound(wide_columns, cfg_wide, mutation="drop_cubic_term"))
show(audit_correlation_contraction(columns, cfg, mutation="overstated_skew_rate"))
