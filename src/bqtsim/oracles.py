"""Closed-form branch references.

Every quantity here is written straight from the hand-derived branch
algebra: the post-selected channel pairs factorize, so each Bell outcome
acts on one party's input independently and joint quantities are products
of per-party factors. Nothing in this module calls into the measurement
pipeline; the only shared code is the Scenario record (its situation and
protection flag pick the formulas here) and the QubitInput record the
scalar views read, so agreement with the branches of protocol.run_protocol
is a real cross-check. The input amplitudes sqrt(pop0) and sqrt(1-pop0)
e^{i phase} are computed here too, not taken from QubitInput.

Per-party outcome classes: indices 1 and 2 land the input amplitudes in
order (damped component second), indices 3 and 4 land them swapped. All
probability and fidelity factors depend only on the populations, never the
phases.

The branch oracles, the `*_rows` functions, evaluate every branch of a
stack of inputs at once. A stack is an (N, 4) float array of rows
[pop_a, phase_a, pop_b, phase_b], and p is a float or an (N,) array of
one p per row, which gives each row the bits of its one-p call; they
return (N, 16) numbers or (N, 16, 4, 4) states in branch order
k = 4(i-1)+(j-1). A branch whose
closed-form weight is zero has a NaN fidelity and a NaN corrected state.
`joint_prob_closed` and `recovered_closed` are one-branch, one-row views
of their `*_rows` functions, so each formula is written once.
"""
from __future__ import annotations

import math

import numpy as np

from .protocol import QubitInput, Scenario

__all__ = [
    "joint_prob_closed",
    "recovered_closed",
    "distributed_closed",
    "joint_prob_rows",
    "branch_success_rows",
    "branch_fidelity_rows",
    "recovered_rows",
    "corrected_rows",
]

_P00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _pops(rows) -> tuple:
    """Alice's and Bob's (N,) populations of an (N, 4) input stack."""
    rows = np.asarray(rows, dtype=float)
    return rows[:, 0], rows[:, 2]


def _parties(rows) -> tuple:
    """(pop0, alpha, beta) of Alice and of Bob for an (N, 4) input stack,
    each (N,), with amplitudes alpha = sqrt(pop0) and beta = sqrt(1-pop0)
    e^{i phase}."""
    rows = np.asarray(rows, dtype=float)
    parties = []
    for pop0, phase in ((rows[:, 0], rows[:, 1]), (rows[:, 2], rows[:, 3])):
        alpha = np.sqrt(pop0).astype(complex)
        parties.append((pop0, alpha, np.sqrt(1.0 - pop0) * np.exp(1j * phase)))
    return tuple(parties)


def _by_class(first, second) -> np.ndarray:
    """Outcome indices 1..4 on axis 1 from the value of class {1, 2} and
    of class {3, 4}."""
    return np.array((first, first, second, second)).swapaxes(0, 1)


def _ket(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """(N, 2) kets of (N,) amplitudes."""
    return np.array((first, second)).T


def _over(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, broadcast, and NaN where den <= 1e-300, so a zero-weight
    branch divides to NaN."""
    out = np.full(np.broadcast_shapes(num.shape, den.shape), np.nan, dtype=np.result_type(num, den))
    return np.divide(num, den, out=out, where=den > 1e-300)


def _diag(e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Stacks of diag(e0, e1)."""
    return e0[..., None, None] * _P00 + e1[..., None, None] * _P11


def _outer(kets: np.ndarray) -> np.ndarray:
    """|v><v| of a stack of kets on the last axis."""
    return kets[..., :, None] * kets[..., None, :].conj()


def _pair_numbers(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """(N, 16) branch products of per-party (N, 4) factors."""
    return (alice[:, :, None] * bob[:, None, :]).reshape(-1, 16)


def _pair_states(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """(N, 16, 4, 4) kron(alice[i], bob[j]) of per-party (N, 4, 2, 2)
    states, Alice's qubit first."""
    out = alice[:, :, None, :, None, :, None] * bob[:, None, :, None, :, None, :]
    return out.reshape(-1, 16, 4, 4)


def _survival(scenario: Scenario, p):
    """Damping survival amplitude riding the channel: sqrt(1-p) when one
    qubit per pair decays (situation I), (1-p) when both do (II); of a
    float p or elementwise of an array of them."""
    return np.sqrt(1.0 - p) if scenario.situation == "I" else 1.0 - p


def _weak_survival(scenario: Scenario, q_w: float) -> float:
    """Weak-pulse survival amplitude matched to the damping: sqrt(1-q_w) in
    situation I, (1-q_w) in II. A bare scenario's q_w must be 0."""
    scenario.check_q_w(q_w)
    return math.sqrt(1.0 - q_w) if scenario.situation == "I" else 1.0 - q_w


def _party_prob(scenario: Scenario, p: float, pop0: np.ndarray) -> np.ndarray:
    a, b = pop0, 1.0 - pop0
    if scenario.protected:
        # libm's pow, as a float p's `** 2` takes it, where numpy would square
        # an array of p by one multiply: a row gets the bits of its one-p call.
        d2 = np.float_power(_survival(scenario, p), 2)
        return _by_class((a + b * d2) / (2.0 * (1.0 + d2)), (b + a * d2) / (2.0 * (1.0 + d2)))
    if scenario.situation == "I":
        return np.full((len(pop0), 4), 0.25)
    # 1 + p(a-b) and 1 - p(a-b) as sums of nonnegative terms. As p -> 1 with
    # a -> 0 (or b -> 0) the difference form cancels and loses the small
    # weight of a branch that is still live.
    return _by_class((a * (1.0 + p) + b * (1.0 - p)) / 4.0, (b * (1.0 + p) + a * (1.0 - p)) / 4.0)


def _party_success(scenario: Scenario, p: float, q_w: float, pop0: np.ndarray) -> np.ndarray:
    if not scenario.protected:
        scenario.check_q_w(q_w)
        return _party_prob(scenario, p, pop0)
    a, b = pop0, 1.0 - pop0
    s2 = _weak_survival(scenario, q_w) ** 2
    d2 = np.float_power(_survival(scenario, p), 2)
    return _by_class((a * s2 + b * d2) / (2.0 * (1.0 + d2)), (b * s2 + a * d2) / (2.0 * (1.0 + d2)))


def _party_fidelity(scenario: Scenario, p: float, q_w: float, pop0: np.ndarray) -> np.ndarray:
    a, b = pop0, 1.0 - pop0
    if scenario.protected:
        s = _weak_survival(scenario, q_w)
        d = _survival(scenario, p)

        def fid(s, d):
            # pow(x, 2) as libm takes it, which can round differently from x * x.
            return _over(np.float_power(a * s + b * d, 2), a * s * s + b * d * d)

        return _by_class(fid(s, d), fid(d, s))
    scenario.check_q_w(q_w)
    d = _survival(scenario, p)
    if scenario.situation == "I":

        def fid(a, b):
            return a * a + b * b * (1.0 - p) + a * b * (p + 2.0 * d)

    else:

        def fid(a, b):
            c = a * a * (1.0 + p * p) + b * b * np.float_power(1.0 - p, 2) + 2.0 * a * b * (1.0 - p * p)
            return _over(c, a * (1.0 + p) + b * (1.0 - p))

    return _by_class(fid(a, b), fid(b, a))


def _party_recovered(
    scenario: Scenario, p: float, pop0: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """(N, 4, 2, 2) unnormalized pre-correction single-party states, one
    per outcome index; each trace is that outcome's probability."""
    a, b = pop0, 1.0 - pop0
    d = _survival(scenario, p)
    kets = np.array(((alpha, beta * d), (alpha, -beta * d), (beta, alpha * d), (-beta, alpha * d)))
    # (index, amplitude, N) -> (N, index, amplitude)
    pure = _outer(kets.transpose(2, 0, 1))
    if scenario.protected:
        return pure / np.reshape(2.0 * (1.0 + d * d), (-1, 1, 1, 1))
    if scenario.situation == "I":
        leak = _by_class(p * b, p * a)
        return (pure + leak[..., None, None] * _P00) / 4.0
    e0 = _by_class(b * p * (1.0 - p) + a * p * p, a * p * (1.0 - p) + b * p * p)
    e1 = _by_class(a * p * (1.0 - p), b * p * (1.0 - p))
    return (pure + _diag(e0, e1)) / 4.0


def _party_corrected(
    scenario: Scenario, p: float, q_w: float, pop0: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """(N, 4, 2, 2) normalized post-correction single-party states, NaN
    where the outcome's weight is zero."""
    a, b = pop0, 1.0 - pop0
    if scenario.protected:
        s = _weak_survival(scenario, q_w)
        d = _survival(scenario, p)

        def state(s, d):
            return _over(_outer(_ket(alpha * s, beta * d)), (a * s * s + b * d * d)[:, None, None])

        return _by_class(state(s, d), state(d, s))
    scenario.check_q_w(q_w)
    d = _survival(scenario, p)
    first = _outer(_ket(alpha, beta * d))
    second = _outer(_ket(alpha * d, beta))
    if scenario.situation == "I":
        return _by_class(first + (p * b)[:, None, None] * _P00, second + (p * a)[:, None, None] * _P11)
    first = first + _diag(b * p * (1.0 - p) + a * p * p, a * p * (1.0 - p))
    second = second + _diag(b * p * (1.0 - p), a * p * (1.0 - p) + b * p * p)
    return _by_class(
        _over(first, (a * (1.0 + p) + b * (1.0 - p))[:, None, None]),
        _over(second, (b * (1.0 + p) + a * (1.0 - p))[:, None, None]),
    )


def joint_prob_rows(scenario: Scenario, p, rows) -> np.ndarray:
    """(N, 16) probabilities of every joint Bell outcome before any
    correction, for an (N, 4) input stack at a float p or one p per row."""
    pop_a, pop_b = _pops(rows)
    return _pair_numbers(_party_prob(scenario, p, pop_a), _party_prob(scenario, p, pop_b))


def branch_success_rows(scenario: Scenario, p, q_w: float, rows) -> np.ndarray:
    """(N, 16) weights of every branch surviving both local corrections, at
    a float p or one p per row."""
    pop_a, pop_b = _pops(rows)
    return _pair_numbers(_party_success(scenario, p, q_w, pop_a), _party_success(scenario, p, q_w, pop_b))


def branch_fidelity_rows(scenario: Scenario, p, q_w: float, rows) -> np.ndarray:
    """(N, 16) fidelities of every corrected branch output against the
    target product, at a float p or one p per row; NaN where a branch's
    weight is zero."""
    pop_a, pop_b = _pops(rows)
    return _pair_numbers(_party_fidelity(scenario, p, q_w, pop_a), _party_fidelity(scenario, p, q_w, pop_b))


def recovered_rows(scenario: Scenario, p, rows) -> np.ndarray:
    """(N, 16, 4, 4) unnormalized projected two-qubit states of every
    branch, Alice's teleported qubit first, at a float p or one p per row."""
    alice, bob = _parties(rows)
    return _pair_states(_party_recovered(scenario, p, *alice), _party_recovered(scenario, p, *bob))


def corrected_rows(scenario: Scenario, p, q_w: float, rows) -> np.ndarray:
    """(N, 16, 4, 4) normalized post-correction outputs of every branch,
    Alice's qubit first, at a float p or one p per row; NaN where a
    branch's weight is zero."""
    alice, bob = _parties(rows)
    return _pair_states(_party_corrected(scenario, p, q_w, *alice), _party_corrected(scenario, p, q_w, *bob))


def _row(alice_in: QubitInput, bob_in: QubitInput) -> np.ndarray:
    """The one-row input stack of two inputs."""
    return np.array([[alice_in.pop0, alice_in.phase, bob_in.pop0, bob_in.phase]], dtype=float)


def _branch(i: int, j: int) -> int:
    """Branch order k = 4(i-1)+(j-1) of outcome indices i, j in 1..4."""
    for index in (i, j):
        if not 1 <= index <= 4:
            raise ValueError(f"outcome index must be in 1..4, got {index}")
    return 4 * (i - 1) + (j - 1)


def joint_prob_closed(
    scenario: Scenario, i: int, j: int, p: float, alice_in: QubitInput, bob_in: QubitInput
) -> float:
    """Probability of joint Bell outcome (i, j) before any correction."""
    k = _branch(i, j)
    return float(joint_prob_rows(scenario, p, _row(alice_in, bob_in))[0, k])


def recovered_closed(
    scenario: Scenario, i: int, j: int, p: float, alice_in: QubitInput, bob_in: QubitInput
) -> np.ndarray:
    """Unnormalized projected two-qubit state for branch (i, j), Alice's
    teleported qubit first."""
    k = _branch(i, j)
    return recovered_rows(scenario, p, _row(alice_in, bob_in))[0, k]


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


def distributed_closed(scenario: Scenario, p: float) -> np.ndarray:
    """Post-distribution resource as the (2, 4, 4) stack of its two Bell
    pairs, (1, 2) first.

    Protected scenarios give each pair's renormalized pure state;
    unprotected ones give each pair's full mixed Kraus sum. In the
    recovery-noise layout the damped qubit is the second of the first pair
    and the first of the second.
    """
    pairs = np.stack(
        (_noisy_pair(p, scenario, damped_first=False), _noisy_pair(p, scenario, damped_first=True))
    )
    if scenario.protected:
        pairs /= pairs.trace(axis1=1, axis2=2).real[:, None, None]
    return pairs
