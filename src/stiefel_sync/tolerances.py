"""Numerical tolerances, one constant each, so there is a single tuning
point for the whole library."""

# algebraic identities (skew generators, symmetric weights)
ALGEBRAIC_TOL = 1e-12
# orthonormality required of a Stiefel point at construction
ORTH_CONSTRUCTION_TOL = 1e-10
# relative cutoff below which a triangular diagonal counts as rank zero
RANK_TOL = 1e-12
# match required between separable weights and the outer product of xi
SEPARABLE_MATCH_TOL = 1e-14
# largest orthonormality defect max|a^T a - I| at which one Newton-Schulz
# step stands in for the polar factor (its error (3/8) d^2 is then ~1e-17),
# and the drift bound of the stepper's on_drift policy
NEWTON_SCHULZ_DEFECT = 1e-8
