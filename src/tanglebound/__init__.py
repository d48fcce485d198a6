"""Polynomial entanglement invariants of four-qubit pure states and certified
upper bounds on the three-tangles of their three-qubit reduced states."""

from .bounds import (
    BoundReport,
    BoundWitness,
    best_bound,
    bound_cap,
    bound_closed_form,
    bound_grid,
    bound_quartic_A4,
    bound_unitary_3q,
    cap_of,
    classify_group,
)
from .classes import ClassSpec, literature_bound, paper_bound, representative, spec_from_values
from .fonts import compute_fonts4
from .invariants import (
    CorrelationSummary,
    ThreeQubitInvariantSet,
    correlation_summary,
    invariant_set,
    three_tangle_pure,
    transform_endpoints,
)
from .qstate import (
    MixedState3,
    PureState3,
    PureState4,
    Qubit2Unitary,
    apply_local_unitary,
    normalize,
    partial_trace_last,
    permute_qubits,
    purify_rank2,
    random_special_unitary,
    random_state,
    u_of_x,
)
from .quartic import roots
from .rank2 import (
    Decomposition,
    decompose_rank2,
    ghzw_bound,
    ghzw_decomposition,
    ghzw_invariants,
    ghzw_threshold,
    ghzw_x0,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundWitness",
    "ClassSpec",
    "CorrelationSummary",
    "Decomposition",
    "MixedState3",
    "PureState3",
    "PureState4",
    "Qubit2Unitary",
    "ThreeQubitInvariantSet",
    "apply_local_unitary",
    "best_bound",
    "bound_cap",
    "bound_closed_form",
    "bound_grid",
    "bound_quartic_A4",
    "bound_unitary_3q",
    "cap_of",
    "classify_group",
    "compute_fonts4",
    "correlation_summary",
    "decompose_rank2",
    "ghzw_bound",
    "ghzw_decomposition",
    "ghzw_invariants",
    "ghzw_threshold",
    "ghzw_x0",
    "invariant_set",
    "literature_bound",
    "normalize",
    "paper_bound",
    "partial_trace_last",
    "permute_qubits",
    "purify_rank2",
    "random_special_unitary",
    "random_state",
    "representative",
    "roots",
    "spec_from_values",
    "three_tangle_pure",
    "transform_endpoints",
    "u_of_x",
]
