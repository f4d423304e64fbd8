"""Anonymous-sensing protocol simulator, closed-form analysis, and estimation."""

from .combinatorics import (
    FieldVector,
    MINUS,
    PLUS,
    g_coefficients,
    string_phases,
)
from .engine import (
    ConfigError,
    OutcomeDistribution,
    ProtocolConfig,
    ThetaModel,
    gamma,
    max_senders,
    outcome_distribution,
)
from .estimation import (
    EstimateReport,
    OutcomeCounts,
    log_likelihood,
    mle_estimate,
    recover_omegas,
)
from .fisher import (
    DivergenceError,
    FisherResult,
    PhaseParameters,
    ScanGrid,
    SingularTermError,
    UnidentifiableDirectionError,
    closed_form_j22,
    dilution,
    fisher_matrix,
    limit_j22,
    omega_crb_diag,
    optimal_a,
    phases_from_fields,
    scan_j22,
)
from .protocol import (
    TracelessnessReport,
    Transcript,
    eavesdropper_view,
    negative_control,
    run_protocol,
    sender_subsets,
    verify_designs,
    verify_tracelessness,
)
from .sampling import draw_counts, philox
from .statevec import (
    OracleLimitError,
    SenderAssignment,
    apply_sender_unitary,
    dicke_state,
    oracle_distribution,
    phi_state,
)

__version__ = "0.1.0"
