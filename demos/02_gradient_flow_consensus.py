"""Without intrinsic rotations the coupling is a gradient flow: the weighted
disagreement potential only ever decreases, and a cluster that starts with
diameter below sqrt(2) collapses to a single point."""

import numpy as np

from stiefel_sync import (
    IntegratorConfig,
    ModelConfig,
    Topology,
    consensus_status,
    integrate,
    near_consensus_ensemble,
    potential,
    zero_frequencies,
)

count, n, p = 6, 4, 2
topology = Topology.separable(np.ones(count))
cfg = ModelConfig(kappa=3.0, topology=topology, freqs=zero_frequencies(count, p), n=n, p=p)

init = near_consensus_ensemble(n, p, count, radius=0.5, seed=7)
print("initial diameter:", np.round(np.max(np.linalg.norm(init[:, None] - init[None], axis=(2, 3))), 4))

traj = integrate(init, cfg, IntegratorConfig(h=2e-3, t_end=10.0, record_stride=50))

print("\n   t      potential      diameter")
for k in range(0, len(traj), 10):
    v = potential(traj.states[k], topology)
    print(f"{traj.times[k]:6.2f}   {v:12.6e}  {traj.diameters[k]:12.6e}")

# the last snapshot, at tolerance 1e-6: its correlations and their rate,
# exact from one evaluation of the field
status = consensus_status(traj.states[-1], cfg)
print("\nconsensus:", status.kind)
print("largest distance of any pairwise correlation from the identity:",
      f"{status.max_identity_gap:.2e}")
print(f"largest correlation rate: {status.max_rate:.2e} (stationary below {status.rate_tol:.1e})")
