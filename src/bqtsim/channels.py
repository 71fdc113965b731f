"""Amplitude damping channel primitives.

`__all__` lists what the product path takes from here: the degeneracy
tolerance. `_check_unit` is every [0, 1] range check of the package
(`_check_units` applies it to an array), and `_weak_top` the
weak-measurement family each situation pairs with. The rest are the
test references for `protocol.distribute` and `protocol.correction_ops`,
which no product path calls: `adc_kraus`, the single-qubit amplitude
damping Kraus pair; `apply_channel`, channel application by Kraus sum;
`eam_postselect`, post-selection on the no-decay branch (measuring the
channel environment and keeping the outcome tied to the invertible
operator); `weak_measurement_op`, the retained operator of the
weak-measurement family used to undo the damping bias; and
`DegenerateBranchError`, which only the references raise.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["DEGENERATE_TOL"]

# A post-selection weight below this is treated as annihilated. An outcome
# is annihilated when its trace is at or below it or its success weight is
# below it. The kernel writes that rule once (protocol._annihilated) and
# applies it to each party's own factors: for every total
# (protocol._party_totals), the input average's fidelity
# (protocol._party_integrand, whose success sums every outcome) and, in
# the owned branch arrays, a branch's degenerate flag, set when either
# party's outcome is annihilated (protocol._correct_branches, from the
# totals' own party stack). protocol.apply_correction and
# eam_postselect apply it on their own, to a branch's 4x4 state and to a
# pair, as references for the tests.
DEGENERATE_TOL = 1e-14


class DegenerateBranchError(ValueError):
    """A measurement branch was annihilated (weight below DEGENERATE_TOL)."""


def _check_unit(name: str, value) -> None:
    """Raise ValueError unless `value` lies in [0, 1]; NaN does not."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value!r} outside [0, 1]")


def _check_units(name: str, values: np.ndarray) -> None:
    """`_check_unit` over an array of values: raise its ValueError for the
    least value outside [0, 1], NaN counting as the largest."""
    # NaN fails both comparisons and sorts last.
    bad = values[~((values >= 0.0) & (values <= 1.0))]
    if bad.size:
        _check_unit(name, float(np.sort(bad)[0]))


def adc_kraus(p: float) -> np.ndarray:
    """Single-qubit amplitude damping Kraus pair as a (2, 2, 2) stack (k0, k1).

    k0 = diag(1, sqrt(1-p)) keeps the populations, k1 moves |1> to |0>
    with probability p. Completeness k0^dag k0 + k1^dag k1 = I holds
    exactly in exact arithmetic. A p outside [0, 1] raises ValueError.
    """
    _check_unit("decay probability p", p)
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


def weak_measurement_op(q_w: float, situation: str) -> np.ndarray:
    """Retained weak-measurement operator of the situation's family.

    Situation "I" gives diag(sqrt(1-q_w), 1), situation "II" gives
    diag(1-q_w, 1). Only the retained outcome is returned; the
    complementary operator shows up solely as the discarded probability in
    branch bookkeeping. A q_w outside [0, 1] raises ValueError.
    """
    _check_unit("weak measurement strength q_w", q_w)
    top = _weak_top(q_w, situation)
    return np.array([[top, 0.0], [0.0, 1.0]], dtype=complex)


def _weak_top(q_w, situation: str):
    """Top diagonal entry of the retained weak operator, elementwise over
    strengths q_w already checked to lie in [0, 1]: sqrt(1-q_w) where only
    the recovery qubits decay (situation "I"), 1-q_w where all four
    channel qubits do ("II")."""
    return np.sqrt(1.0 - q_w) if situation == "I" else 1.0 - q_w
