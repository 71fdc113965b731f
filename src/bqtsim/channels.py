"""Amplitude damping channel primitives.

`__all__` lists what the product path takes from here: the parameter
records, whose range errors it raises, the weak-measurement families and
the degeneracy rule. The rest are the test references for
`protocol.distribute` and `protocol.correction_ops`, which no product
path calls: `adc_kraus`,
the single-qubit amplitude damping Kraus pair; `apply_channel`, channel
application by Kraus sum; `eam_postselect`, post-selection on the
no-decay branch (measuring the channel environment and keeping the
outcome tied to the invertible operator); and `weak_measurement_op`, the
retained operator of the two diagonal weak-measurement families used to
undo the damping bias.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DegenerateBranchError",
    "DEGENERATE_TOL",
    "AdcParams",
    "WeakVariant",
    "WeakMeasurementParams",
]

# A post-selection weight below this is treated as annihilated. A branch is
# degenerate when its recovered trace is at or below it or its success
# weight is below it (protocol._settle, and protocol.apply_correction on its
# own for the tests).
DEGENERATE_TOL = 1e-14


class DegenerateBranchError(ValueError):
    """A measurement branch was annihilated (weight below DEGENERATE_TOL)."""


@dataclass(frozen=True)
class AdcParams:
    """Decay probability p of the damping channel, p in [0, 1]."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"decay probability p={self.p!r} outside [0, 1]")


class WeakVariant(Enum):
    """Which diagonal weak-measurement family to use.

    SQRT_DIAG pairs with damping on the two recovery qubits, LINEAR_DIAG
    with damping on all four channel qubits.
    """

    SQRT_DIAG = "sqrt"
    LINEAR_DIAG = "linear"


@dataclass(frozen=True)
class WeakMeasurementParams:
    """Strength q_w in [0, 1] plus the operator family."""

    q_w: float
    variant: WeakVariant

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_w <= 1.0:
            raise ValueError(f"weak measurement strength q_w={self.q_w!r} outside [0, 1]")


def adc_kraus(params: AdcParams) -> np.ndarray:
    """Single-qubit amplitude damping Kraus pair as a (2, 2, 2) stack (k0, k1).

    k0 = diag(1, sqrt(1-p)) keeps the populations, k1 moves |1> to |0>
    with probability p. Completeness k0^dag k0 + k1^dag k1 = I holds
    exactly in exact arithmetic.
    """
    p = params.p
    k0 = [[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]]
    k1 = [[0.0, math.sqrt(p)], [0.0, 0.0]]
    return np.array([k0, k1], dtype=complex)


def apply_channel(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Apply the full Kraus sum rho -> sum_k K rho K^dag of an (m, d, d)
    stack of Kraus operators as one batched product."""
    if ops.shape[-2:] != rho.shape:
        raise ValueError(f"Kraus operators of shape {ops.shape[1:]} do not act on shape {rho.shape}")
    return (ops @ rho @ ops.conj().swapaxes(-1, -2)).sum(axis=0)


def eam_postselect(rho: np.ndarray, k0_lifted: np.ndarray) -> tuple[np.ndarray, float]:
    """Keep only the no-decay branch of the environment measurement.

    Returns the renormalized state K0 rho K0^dag / tr and the success
    probability tr(K0 rho K0^dag). The discarded decay branch carries the
    remaining 1 - success probability; it is never reconstructed as a
    state, only accounted for.
    """
    if k0_lifted.shape != rho.shape:
        raise ValueError(
            f"lifted operator shape {k0_lifted.shape} does not match state shape {rho.shape}"
        )
    kept = k0_lifted @ rho @ k0_lifted.conj().T
    prob = float(np.trace(kept).real)
    if prob < DEGENERATE_TOL:
        raise DegenerateBranchError(f"post-selection weight {prob:g} is numerically zero")
    return kept / prob, prob


def weak_measurement_op(params: WeakMeasurementParams) -> np.ndarray:
    """Retained weak-measurement operator for the given family.

    SQRT_DIAG gives diag(sqrt(1-q_w), 1), LINEAR_DIAG gives diag(1-q_w, 1).
    Only the retained outcome is returned; the complementary operator shows
    up solely as the discarded probability in branch bookkeeping.
    """
    top = _weak_top(params.q_w, params.variant)
    return np.array([[top, 0.0], [0.0, 1.0]], dtype=complex)


def _weak_top(q_w, variant: WeakVariant):
    """Top diagonal entry of the retained weak operator, elementwise over
    strengths q_w already checked to lie in [0, 1]."""
    return np.sqrt(1.0 - q_w) if variant is WeakVariant.SQRT_DIAG else 1.0 - q_w
