"""Numerical tolerances, collected in one record so there is a single
tuning point for the whole library."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # algebraic identities (orthogonality of factors, inverses, residuals)
    algebraic: float = 1e-12
    # orthonormality required of a Stiefel point at construction
    orth_construction: float = 1e-10
    # relative cutoff below which a triangular diagonal counts as rank zero
    rank: float = 1e-12
    # match required between separable weights and the outer product of xi
    separable_match: float = 1e-14


DEFAULT = Tolerances()
