"""Random walks in random environments on regular trees: simulation,
regeneration analysis, and statistical verification tools."""

__version__ = "0.1.0"

from .clocks import (
    ClockKey,
    IndependenceReport,
    SubtreeSpec,
    clock_sample,
    edge_disjoint,
    first_child,
    independence_check,
    jump_rate,
    lambda_restriction_sequence,
    run_extension,
)
from .env import (
    EnvSpec,
    MomentReport,
    check_assumption_a,
    lerrw_fclt_condition,
    lerrw_gamma_shapes,
    lerrw_negative_moment_cf,
    lerrw_negative_moment_quadrature,
    marginal_weight_moment,
    negative_moment_mc,
    sample_weights,
    transition_probs,
)
from .errors import (
    ConfigError,
    DataQualityError,
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
    RwreError,
)
from .quenched import (
    BetaMomentReport,
    BetaValue,
    beta_root,
    effectively_converged,
    gamma_vertex,
    geometric_moment_bound,
    negative_moment_of_beta,
)
from .regen import (
    GapSample,
    RegenRecord,
    concat_gaps,
    detect_regenerations,
    export_records_csv,
    regeneration_gaps,
)
from .stats import (
    FcltReport,
    NormalityReport,
    SigmaEstimate,
    SpeedEstimate,
    StabilityReport,
    TailFit,
    chi_square_independence,
    direct_sigma,
    doubling_stability,
    estimate_sigma,
    estimate_speed,
    fit_geometric_tail,
    kolmogorov_sf,
    ks_normality_test,
)
from .tree import ROOT, SENTINEL, child, is_sentinel, level, parent
from .walk import (
    EscapeEstimate,
    StopRule,
    Trajectory,
    escape_probability,
    run_walk,
    step_walk,
)
