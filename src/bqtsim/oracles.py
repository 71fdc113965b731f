"""Closed-form branch references.

Every quantity here is written straight from the hand-derived branch
algebra: the post-selected channel pairs factorize, so each Bell outcome
acts on one party's input independently and joint quantities are products
of per-party factors. Nothing in this module calls into the measurement
pipeline; the only shared code is the parameter records (the Scenario
record's situation and protection flag pick the formulas here), so
agreement with the branches of protocol.run_protocol is a real cross-check.

Per-party outcome classes: indices 1 and 2 land the input amplitudes in
order (damped component second), indices 3 and 4 land them swapped. All
probability and fidelity factors depend only on the populations, never the
phases.
"""
from __future__ import annotations

import math

import numpy as np

from .channels import DegenerateBranchError
from .linalg import DensityMatrix
from .protocol import QubitInput, Scenario

__all__ = [
    "joint_prob_closed",
    "branch_success_closed",
    "branch_fidelity_closed",
    "recovered_closed",
    "corrected_closed",
    "distributed_closed",
]

_P00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _amps(inp: QubitInput) -> tuple[complex, complex]:
    k = inp.ket().amps
    return complex(k[0]), complex(k[1])


def _cls(index: int) -> int:
    """0 for outcomes {1, 2}, 1 for {3, 4}."""
    if not 1 <= index <= 4:
        raise ValueError(f"outcome index must be in 1..4, got {index}")
    return (index - 1) // 2


def _party_ket(index: int, alpha: complex, beta: complex, d: float) -> np.ndarray:
    """Unnormalized single-party ket landed by Bell outcome `index`.

    d is the damping survival amplitude attached to whichever input
    component rides the decaying channel component.
    """
    if index == 1:
        return np.array([alpha, beta * d], dtype=complex)
    if index == 2:
        return np.array([alpha, -beta * d], dtype=complex)
    if index == 3:
        return np.array([beta, alpha * d], dtype=complex)
    if index == 4:
        return np.array([-beta, alpha * d], dtype=complex)
    raise ValueError(f"outcome index must be in 1..4, got {index}")


def _survival(scenario: Scenario, p: float) -> float:
    """Damping survival amplitude riding the channel: sqrt(1-p) when one
    qubit per pair decays (situation I), (1-p) when both do (II)."""
    return math.sqrt(1.0 - p) if scenario.situation == "I" else 1.0 - p


def _weak_survival(scenario: Scenario, q_w: float) -> float:
    """Weak-pulse survival amplitude matched to the damping: sqrt(1-q_w) in
    situation I, (1-q_w) in II. A bare scenario's q_w must be 0."""
    scenario.check_q_w(q_w)
    return math.sqrt(1.0 - q_w) if scenario.situation == "I" else 1.0 - q_w


def _party_prob(scenario: Scenario, index: int, p: float, pop0: float) -> float:
    a, b = pop0, 1.0 - pop0
    cls = _cls(index)
    if scenario.protected:
        d2 = _survival(scenario, p) ** 2
        x, y = (a, b) if cls == 0 else (b, a)
        return (x + y * d2) / (2.0 * (1.0 + d2))
    if scenario.situation == "I":
        return 0.25
    t = 1.0 + p * (a - b) if cls == 0 else 1.0 - p * (a - b)
    return t / 4.0


def _party_success(scenario: Scenario, index: int, p: float, q_w: float, pop0: float) -> float:
    if not scenario.protected:
        scenario.check_q_w(q_w)
        return _party_prob(scenario, index, p, pop0)
    a, b = pop0, 1.0 - pop0
    s2 = _weak_survival(scenario, q_w) ** 2
    d2 = _survival(scenario, p) ** 2
    x, y = (a, b) if _cls(index) == 0 else (b, a)
    return (x * s2 + y * d2) / (2.0 * (1.0 + d2))


def _party_fidelity(scenario: Scenario, index: int, p: float, q_w: float, pop0: float) -> float:
    a, b = pop0, 1.0 - pop0
    cls = _cls(index)
    if scenario.protected:
        s = _weak_survival(scenario, q_w)
        d = _survival(scenario, p)
        if cls == 1:
            s, d = d, s
        den = a * s * s + b * d * d
        if den <= 1e-300:
            return float("nan")
        return (a * s + b * d) ** 2 / den
    scenario.check_q_w(q_w)
    if scenario.situation == "I":
        if cls == 1:
            a, b = b, a
        return a * a + b * b * (1.0 - p) + a * b * (p + 2.0 * math.sqrt(1.0 - p))
    if cls == 1:
        a, b = b, a
    c = a * a * (1.0 + p * p) + b * b * (1.0 - p) ** 2 + 2.0 * a * b * (1.0 - p * p)
    return c / (1.0 + p * (a - b))


def joint_prob_closed(
    scenario: Scenario, i: int, j: int, p: float, alice_in: QubitInput, bob_in: QubitInput
) -> float:
    """Probability of joint Bell outcome (i, j) before any correction."""
    return _party_prob(scenario, i, p, alice_in.pop0) * _party_prob(scenario, j, p, bob_in.pop0)


def branch_success_closed(
    scenario: Scenario,
    i: int,
    j: int,
    p: float,
    q_w: float,
    alice_in: QubitInput,
    bob_in: QubitInput,
) -> float:
    """Weight of branch (i, j) surviving both local corrections."""
    return _party_success(scenario, i, p, q_w, alice_in.pop0) * _party_success(
        scenario, j, p, q_w, bob_in.pop0
    )


def branch_fidelity_closed(
    scenario: Scenario,
    i: int,
    j: int,
    p: float,
    q_w: float,
    alice_in: QubitInput,
    bob_in: QubitInput,
) -> float:
    """Fidelity of the corrected branch (i, j) output against the target product."""
    return _party_fidelity(scenario, i, p, q_w, alice_in.pop0) * _party_fidelity(
        scenario, j, p, q_w, bob_in.pop0
    )


def _party_recovered(scenario: Scenario, index: int, p: float, inp: QubitInput) -> np.ndarray:
    """Unnormalized pre-correction single-party state; trace is the outcome
    probability."""
    alpha, beta = _amps(inp)
    a, b = inp.pop0, 1.0 - inp.pop0
    d = _survival(scenario, p)
    v = _party_ket(index, alpha, beta, d)
    pure = np.outer(v, v.conj())
    if scenario.protected:
        return pure / (2.0 * (1.0 + d * d))
    cls = _cls(index)
    if scenario.situation == "I":
        leak = p * (b if cls == 0 else a)
        return (pure + leak * _P00) / 4.0
    if cls == 0:
        e0 = b * p * (1.0 - p) + a * p * p
        e1 = a * p * (1.0 - p)
    else:
        e0 = a * p * (1.0 - p) + b * p * p
        e1 = b * p * (1.0 - p)
    return (pure + e0 * _P00 + e1 * _P11) / 4.0


def recovered_closed(
    scenario: Scenario, i: int, j: int, p: float, alice_in: QubitInput, bob_in: QubitInput
) -> np.ndarray:
    """Unnormalized projected two-qubit state for branch (i, j), Alice's
    teleported qubit first."""
    return np.kron(
        _party_recovered(scenario, i, p, alice_in), _party_recovered(scenario, j, p, bob_in)
    )


def _party_corrected(
    scenario: Scenario, index: int, p: float, q_w: float, inp: QubitInput
) -> np.ndarray:
    alpha, beta = _amps(inp)
    a, b = inp.pop0, 1.0 - inp.pop0
    cls = _cls(index)
    if scenario.protected:
        s = _weak_survival(scenario, q_w)
        d = _survival(scenario, p)
        if cls == 1:
            s, d = d, s
        v = np.array([alpha * s, beta * d], dtype=complex)
        norm = a * s * s + b * d * d
        if norm <= 1e-300:
            raise DegenerateBranchError("closed-form branch weight is zero")
        return np.outer(v, v.conj()) / norm
    scenario.check_q_w(q_w)
    d = _survival(scenario, p)
    if scenario.situation == "I":
        if cls == 0:
            v = np.array([alpha, beta * d], dtype=complex)
            return np.outer(v, v.conj()) + p * b * _P00
        v = np.array([alpha * d, beta], dtype=complex)
        return np.outer(v, v.conj()) + p * a * _P11
    if cls == 0:
        v = np.array([alpha, beta * d], dtype=complex)
        e0 = b * p * (1.0 - p) + a * p * p
        e1 = a * p * (1.0 - p)
        t = 1.0 + p * (a - b)
    else:
        v = np.array([alpha * d, beta], dtype=complex)
        e0 = b * p * (1.0 - p)
        e1 = a * p * (1.0 - p) + b * p * p
        t = 1.0 - p * (a - b)
    return (np.outer(v, v.conj()) + e0 * _P00 + e1 * _P11) / t


def corrected_closed(
    scenario: Scenario,
    i: int,
    j: int,
    p: float,
    q_w: float,
    alice_in: QubitInput,
    bob_in: QubitInput,
) -> np.ndarray:
    """Normalized post-correction branch output, Alice's qubit first."""
    return np.kron(
        _party_corrected(scenario, i, p, q_w, alice_in),
        _party_corrected(scenario, j, p, q_w, bob_in),
    )


def _noisy_pair(p: float, scenario: Scenario, damped_first: bool) -> np.ndarray:
    """One Bell pair after the scenario's damping, as a 4x4 matrix."""
    d = _survival(scenario, p)
    ket = np.array([1.0, 0.0, 0.0, d], dtype=complex)
    rho = np.outer(ket, ket.conj()) / 2.0
    if scenario.protected:
        return rho
    if scenario.situation == "I":
        # Single decayed qubit: population leaks to |10> or |01> depending
        # on which side of the pair carries the noise.
        idx = 1 if damped_first else 2
        rho[idx, idx] += p / 2.0
        return rho
    rho[1, 1] += p * (1.0 - p) / 2.0
    rho[2, 2] += p * (1.0 - p) / 2.0
    rho[0, 0] += p * p / 2.0
    return rho


def distributed_closed(scenario: Scenario, p: float) -> DensityMatrix:
    """Post-distribution 4-qubit resource state.

    Protected scenarios give the renormalized pure state; unprotected ones
    give the full mixed Kraus sum. In the recovery-noise layout the damped
    qubit is the second of the first pair and the first of the second.
    """
    first = _noisy_pair(p, scenario, damped_first=False)
    second = _noisy_pair(p, scenario, damped_first=True)
    mat = np.kron(first, second)
    if scenario.protected:
        mat = mat / np.trace(mat).real
    return DensityMatrix(mat)
