"""Sampling points with orthonormal columns, measuring how far an array is
from the manifold, and pulling it back with the polar retraction."""

import numpy as np

from stiefel_sync import (
    ensemble_diameter,
    orthonormality_drift,
    random_ensemble,
    random_stiefel,
    retract,
    tangent_residual,
)
from stiefel_sync.manifold import random_tangent

rng = np.random.default_rng(1)

# a Haar-distributed point: columns are orthonormal to rounding
x = random_stiefel(6, 3, rng)
print("one point, ||x^T x - I|| =", np.linalg.norm(x.T @ x - np.eye(3)))

# push it off the manifold and retract back
off = x + 0.05 * rng.standard_normal(x.shape)
print("off-manifold defect      =", np.linalg.norm(off.T @ off - np.eye(3)))
back = retract(off)
print("after retraction         =", np.linalg.norm(back.T @ back - np.eye(3)))
print("distance moved           =", np.linalg.norm(back - off))

# tangent vectors at x satisfy x^T v + v^T x = 0
v = random_tangent(x, rng)
print("tangent residual         =", tangent_residual(x, v))

# an ensemble is a stack of points; its diameter is the widest pairwise gap
ensemble = random_ensemble(6, 3, 8, rng)
print("ensemble drift           =", orthonormality_drift(ensemble))
print("ensemble diameter        =", ensemble_diameter(ensemble))
print("diameter upper bound 2*sqrt(p) =", 2 * np.sqrt(3))
