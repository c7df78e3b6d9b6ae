"""wignerlab: simulate and audit nested-observer quantum experiments."""

from .qsim import (
    Branch,
    InvariantError,
    OutOfSupportError,
    QubitRegister,
    SpectralObservable,
    StateVector,
    apply_operator,
    basis_state,
    branch_decompose,
    expectation,
    tensor_product,
)
from .friendify import (
    DoubleLift,
    LogicalSubspace,
    MemoryAssignment,
    double_lift_basis,
    friend_unitary,
    lift_observable,
    record_observable,
)
from .contextuality import (
    PMAssignment,
    PMSquare,
    enumerate_assignments,
    retrodict_from_c,
    verify_square_constraints,
)
from .epistemic import (
    CorrelationFact,
    Fact,
    KnowledgeLedger,
    Prediction,
    PurgeDemand,
    audit_inference_chain,
    discharge,
    pm_epistemic_audit,
)
from .scenarios import (
    HardyReport,
    Implication,
    PMReport,
    Scenario,
    build_hardy_scenario,
    build_pm_scenario,
    chain_inferences,
    extract_implications,
    run_fr_protocol,
    run_pm_protocol,
    signalling_factorization_check,
)

__version__ = "0.1.0"
