"""Density-matrix simulator for bidirectional teleportation through
amplitude damping, with weak-measurement protection and closed-form
cross-checks."""
from .channels import (
    AdcParams,
    DegenerateBranchError,
    WeakMeasurementParams,
    WeakVariant,
    adc_kraus,
    apply_channel,
    eam_postselect,
    weak_measurement_op,
)
from .linalg import DensityMatrix, embed_op, hermitian_eigenvalues, kron, partial_trace
from .metrics import (
    OracleValue,
    QuadratureSpec,
    average_fidelity,
    closed_form,
    closed_form_names,
    entanglement_entropy_bob,
    von_neumann_entropy,
)
from .protocol import (
    BranchOutcome,
    ProtocolResult,
    QubitInput,
    Scenario,
    apply_correction,
    compose_total,
    correction_ops,
    distribute,
    enumerate_branches,
    prepare_channel,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "AdcParams",
    "BranchOutcome",
    "DegenerateBranchError",
    "DensityMatrix",
    "OracleValue",
    "ProtocolResult",
    "QuadratureSpec",
    "QubitInput",
    "Scenario",
    "WeakMeasurementParams",
    "WeakVariant",
    "adc_kraus",
    "apply_channel",
    "apply_correction",
    "average_fidelity",
    "closed_form",
    "closed_form_names",
    "compose_total",
    "correction_ops",
    "distribute",
    "eam_postselect",
    "embed_op",
    "entanglement_entropy_bob",
    "enumerate_branches",
    "hermitian_eigenvalues",
    "kron",
    "partial_trace",
    "prepare_channel",
    "run_protocol",
    "von_neumann_entropy",
    "weak_measurement_op",
]
