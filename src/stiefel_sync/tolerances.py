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
