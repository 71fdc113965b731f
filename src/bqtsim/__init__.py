"""Density-matrix simulator for bidirectional teleportation through
amplitude damping, with weak-measurement protection and closed-form
cross-checks.

The package root is the product API. The reference pipeline the tests
hold the kernel against (Kraus sums, the circuit-built resource, the
6-qubit projection and the explicit correction operators) stays
importable from its modules, each of which names its references in its
docstring."""
from .metrics import (
    OracleValue,
    average_fidelity,
    closed_form,
    closed_form_names,
    entanglement_entropy_bob,
    von_neumann_entropy,
)
from .protocol import BranchOutcome, ProtocolResult, QubitInput, Scenario, distribute, run_protocol

__version__ = "0.1.0"

__all__ = [
    "BranchOutcome",
    "OracleValue",
    "ProtocolResult",
    "QubitInput",
    "Scenario",
    "average_fidelity",
    "closed_form",
    "closed_form_names",
    "distribute",
    "entanglement_entropy_bob",
    "run_protocol",
    "von_neumann_entropy",
]
