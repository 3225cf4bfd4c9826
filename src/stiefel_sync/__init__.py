"""Simulation and verification toolkit for coupled agents on Stiefel
manifolds: matrix dynamics with intrinsic rotations and consensus coupling,
structure-preserving integration, sufficient-condition checks, and
measurement of every quantity the stability theory bounds.
"""

from .diagnostics import (
    ConsensusStatus,
    CubicReport,
    InequalityAudit,
    audit_agent_distance_bound,
    audit_correlation_contraction,
    audit_diameter_bound,
    audit_series,
    audit_tolerance,
    consensus_status,
    correlation_gap_series,
    correlations,
    cubic_analysis,
    fit_decay_rate,
    holder_gap,
    pair_columns,
    stability_gain,
)
from .errors import (
    DimensionError,
    DisconnectedTopologyError,
    DivergenceError,
    InsufficientDataError,
    ProjectionError,
    RankDeficiencyError,
    ScenarioError,
    StiefelSyncError,
    UndefinedGainError,
    UnsupportedTopologyError,
    ValidationError,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    integrate,
)
from .linalg import expm_skew, qr_thin
from .manifold import (
    ensemble_diameter,
    near_consensus_ensemble,
    orthonormality_drift,
    random_ensemble,
    random_stiefel,
    random_tangent,
    retract,
    tangent_residual,
    validate_ensemble,
)
from .model import (
    FrameworkCondition,
    FrameworkReport,
    ModelConfig,
    Topology,
    XiStats,
    check_framework,
    common_frequencies,
    contraction_slack,
    cubic_coefficient,
    cubic_invariant_roots,
    decay_rate_bound,
    diameter_threshold,
    frequency_spread,
    moving_frame,
    potential,
    random_frequencies,
    random_skew,
    rhs,
    zero_frequencies,
)

__version__ = "0.1.0"
