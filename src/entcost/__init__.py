"""Numerical laboratory for the entanglement cost of preparing bipartite states."""

__version__ = "0.1.0"

from .qcore import (
    DimensionError,
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    StateValidationError,
    basis_pure,
    binary_entropy,
    ensemble_average,
    partial_trace,
    pure_entanglement,
    pure_power,
    sample_density_matrix,
    sample_pure_state,
    sample_unitary,
    singlet,
    tensor_power,
    tensor_product,
    tensor_pure,
    von_neumann_entropy,
)
from .metrics import (
    DistanceReport,
    bures_distance,
    metric_relation_check,
    tensor_power_divergence,
    trace_distance,
    uhlmann_fidelity,
)
from .eof import (
    ContinuityCheck,
    EofResult,
    LoccChannel,
    MonotonicityReport,
    apply_locc,
    check_monotonicity,
    concurrence,
    continuity_bound,
    eof_optimize,
    eof_two_qubit_closed_form,
    sample_locc,
)
from .regcost import (
    CostBracket,
    RegularizationTrace,
    cost_bracket,
    fekete_check,
    regularized_sequence,
)
from .formation import (
    DilutionPlan,
    FormationResult,
    TypicalSet,
    dilution_fidelity,
    dilution_plan,
    formation_protocol,
    typical_set,
)
from .serialize import load_state, save_object
from .verify import run_verification
