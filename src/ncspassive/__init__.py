"""Stochastic passivity toolkit for lossy networked control loops.

A discrete-time plant talks to a static state-feedback controller over a
slotted, lossy channel; the arrival-bit pair makes the closed loop a
four-mode jump-linear system. This package certifies second-moment
stability and strict passivity of that system via coupled LMIs,
synthesizes passivating gains, and cross-checks every certificate
against a spectral-radius oracle and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionViolated,
    ConfigError,
    DimensionMismatch,
    FitUnavailable,
    InvalidMatrix,
    NcsPassiveError,
    SingularTransform,
    UnboundVariable,
    VerificationFailed,
)
from .numerics import (
    DEFAULT_MARGIN,
    DefinitenessMargin,
    is_neg_definite,
    is_pos_definite,
    kron,
    schur_neg_def,
    spectral_radius,
    sym_eigvals,
)
from .model import (
    MODES,
    ClosedLoopFamily,
    Gain,
    LossModel,
    ModeDistribution,
    Plant,
    Schedule,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
    selector_matrices,
)
from .lmi import (
    AffineExpr,
    Indeterminate,
    LmiCertificate,
    LmiProblem,
    solve,
    verify,
    verify_dual,
)
from .analysis import (
    PassivityCertificate,
    SmsReport,
    StabilityCertificate,
    dissipation_identity_check,
    max_dissipation,
    passivity_lmi,
    sms_oracle,
    stability_lmi,
)
from .synthesis import (
    RoundTripReport,
    SynthesisResult,
    build_synthesis_lmi,
    recover_gain,
    round_trip_verify,
    synthesize,
)
from .sim import (
    EnsembleStats,
    InputSignal,
    SimTrace,
    decay_fit,
    ensemble,
    simulate,
    trace_to_csv,
)

__all__ = [
    "__version__",
    # errors
    "NcsPassiveError",
    "InvalidMatrix",
    "DimensionMismatch",
    "UnboundVariable",
    "AssumptionViolated",
    "SingularTransform",
    "VerificationFailed",
    "FitUnavailable",
    "ConfigError",
    # numerics
    "DefinitenessMargin",
    "DEFAULT_MARGIN",
    "sym_eigvals",
    "is_neg_definite",
    "is_pos_definite",
    "kron",
    "spectral_radius",
    "schur_neg_def",
    # model
    "MODES",
    "Plant",
    "Schedule",
    "full_packet_schedule",
    "LossModel",
    "ModeDistribution",
    "Gain",
    "ClosedLoopFamily",
    "selector_matrices",
    "mode_distribution",
    "closed_loop",
    # lmi
    "AffineExpr",
    "LmiProblem",
    "LmiCertificate",
    "Indeterminate",
    "solve",
    "verify",
    "verify_dual",
    # analysis
    "SmsReport",
    "StabilityCertificate",
    "PassivityCertificate",
    "sms_oracle",
    "stability_lmi",
    "passivity_lmi",
    "max_dissipation",
    "dissipation_identity_check",
    # synthesis
    "SynthesisResult",
    "RoundTripReport",
    "build_synthesis_lmi",
    "recover_gain",
    "round_trip_verify",
    "synthesize",
    # sim
    "InputSignal",
    "SimTrace",
    "EnsembleStats",
    "simulate",
    "ensemble",
    "decay_fit",
    "trace_to_csv",
]
