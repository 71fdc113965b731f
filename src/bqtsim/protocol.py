"""End-to-end bidirectional teleportation pipeline.

Two parties each teleport one qubit to the other across a shared 4-qubit
resource (two Bell pairs handed out by a third party): Alice holds her
input a and channel qubits (1, 3), Bob holds (2, 4) and his input b. Alice
Bell-measures the pair (a, 1), which lands her state on qubit 2; Bob
measures (4, b), landing his state on qubit 3. Each party then applies a
weak measurement followed by the Pauli fixed by the outcome the partner
announces.

Four noise scenarios are modeled: damping on the two recovery qubits or on
all four channel qubits, each either protected (no-decay post-selection at
distribution plus weak-measurement correction) or left bare with the full
damping channel applied and no correction.

All 16 Bell outcome combinations are computed exactly, never sampled, by
one batched kernel: each party's Bell bra is contracted with that party's
input first, so the 6-qubit state is never built. The kernel evaluates a
stack of input pairs at once. `_input_densities` is the one place an input
(pop0, phase) becomes a 2x2 state, and `_run_rows` is the kernel's one
entry for rows of inputs: `run_protocol` sends its single row through it,
and `sweep` and `verify` their stacks. `average_fidelity` alone calls the
fold (`_recover`) and the correction (`_correct_branches`) itself, so that
its quadrature nodes are folded once and corrected once per q_w.

The correction stage takes q_w as one float or as one value per input row,
so the rows of a sweep or a check grid at one (scenario, p) share a single
`distribute` and a single fold. Each branch correction is a constant Pauli
pair U_i (x) U_j, built once at import, after a weak factor m_w (x) m_w
that is the only part to vary by row. The Pauli pairs are signed
permutations, so they move and sign entries and need no products.
`enumerate_branches` keeps the direct 6-qubit projection as the reference
the kernel is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .channels import (
    DEGENERATE_TOL,
    AdcParams,
    DegenerateBranchError,
    WeakMeasurementParams,
    WeakVariant,
    adc_kraus,
    eam_postselect,
    apply_channel,
    weak_measurement_op,
)
from .linalg import CNOT, HADAMARD, I2, SX, SZ, DensityMatrix, embed_op, kron

__all__ = [
    "QubitInput",
    "Scenario",
    "BranchOutcome",
    "ProtocolResult",
    "RESOURCE",
    "prepare_channel",
    "distribute",
    "compose_total",
    "correction_ops",
    "apply_correction",
    "enumerate_branches",
    "run_protocol",
]


def _input_densities(pop0, phase=0.0) -> np.ndarray:
    """Input states |v><v| of the kets v = [sqrt(pop0), sqrt(1-pop0) e^{i phase}]
    over broadcast arrays of populations and phases, as (..., 2, 2)."""
    pop0 = np.asarray(pop0, dtype=float)
    a1 = np.sqrt(1.0 - pop0) * np.exp(1j * np.asarray(phase, dtype=float))
    kets = np.stack(np.broadcast_arrays(np.sqrt(pop0).astype(complex), a1), axis=-1)
    return kets[..., :, None] @ kets[..., None, :].conj()


@dataclass(frozen=True)
class QubitInput:
    """Single-qubit input parameterized as (population of |0>, phase).

    The ket is [sqrt(pop0), sqrt(1-pop0) e^{i phase}], so normalization
    holds by construction for any pop0 in [0, 1]. The phase must be
    finite.
    """

    pop0: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.pop0 <= 1.0:
            raise ValueError(f"pop0={self.pop0!r} outside [0, 1]")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase={self.phase!r} is not finite")

    def density(self) -> DensityMatrix:
        return DensityMatrix(_input_densities(self.pop0, self.phase))


class Scenario(Enum):
    """The paper's noise situation, run protected or bare.

    `situation` is "I" when only the two recovery qubits decay and "II"
    when all four channel qubits do. `protected` runs add no-decay
    post-selection at distribution and a weak-measurement correction;
    bare ones apply the full damping channel and no correction. The rest
    follows from those two: `noisy_qubits`, the damped channel qubit
    indices (0-based within the 4-qubit resource), and `weak_variant`, the
    weak-pulse family that undoes the situation's damping. Values double
    as the CLI spellings.
    """

    RECOVERY_ADC = ("recovery-adc", "I", True)
    ALL_ADC = ("all-adc", "II", True)
    UNPROTECTED_RECOVERY = ("unprotected-recovery", "I", False)
    UNPROTECTED_ALL = ("unprotected-all", "II", False)

    def __new__(cls, value: str, situation: str, protected: bool) -> "Scenario":
        member = object.__new__(cls)
        member._value_ = value
        member.situation = situation
        member.protected = protected
        member.noisy_qubits = (1, 2) if situation == "I" else (0, 1, 2, 3)
        member.weak_variant = WeakVariant.SQRT_DIAG if situation == "I" else WeakVariant.LINEAR_DIAG
        return member

    def check_q_w(self, q_w: float) -> None:
        """Raise ValueError for a nonzero weak strength in a bare scenario,
        which applies no weak measurement."""
        if q_w != 0.0 and not self.protected:
            raise ValueError("unprotected scenarios require q_w = 0")


@dataclass
class BranchOutcome:
    """One of the 16 joint Bell-measurement branches.

    `recovered` is the projected, traced, unnormalized 2-qubit state on
    qubits (2, 3); its trace is joint_prob. `corrected` is the normalized
    output after the weak measurement and Pauli pair, or None when the
    branch weight was annihilated (degenerate=True). success_weight is the
    trace of the uncorrected-normalization product M rho M^dag.
    """

    alice_index: int
    bob_index: int
    joint_prob: float
    recovered: DensityMatrix
    corrected: Optional[DensityMatrix]
    success_weight: float
    branch_fidelity: Optional[float]
    degenerate: bool = False


@dataclass
class ProtocolResult:
    """Full protocol output at one parameter point.

    total_fidelity weights branch fidelities by the Bell outcome
    probabilities; postselected_fidelity is the diagnostic alternative
    weighted by success_weight / total_success instead. A degenerate
    branch adds 0 to every total, and total_fidelity is not renormalized
    over the live branches. Both fidelities are NaN when every branch is
    degenerate.
    """

    scenario: Scenario
    p: float
    q_w: float
    eam_success: float
    branches: tuple
    total_success: float
    total_fidelity: float
    postselected_fidelity: float


# Bell kets in the fixed order (|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2).
_BELL_KETS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=complex,
) / math.sqrt(2.0)

# The same kets as amplitude tables B[k][x, y], x the first qubit's bit.
_BELL_TABLES = _BELL_KETS.reshape(4, 2, 2)

# Each party's Bell bra folded with its own input, as linear maps of the
# row-major flattened 2x2 input. Alice's bra on (a, 1) leaves
# B_i^dag rho_a B_i on qubit 1, axes (x x', i y y'); Bob's on (4, b) leaves
# B_j^* rho_b B_j^T on qubit 4, axes (z z', w w' j).
_FOLD_ALICE = np.einsum("ixy,iXY->xXiyY", _BELL_TABLES.conj(), _BELL_TABLES).reshape(4, 16)
_FOLD_BOB = np.einsum("jwz,jWZ->zZwWj", _BELL_TABLES.conj(), _BELL_TABLES).reshape(4, 16)

# Outcome index (0-based) -> correction unitary.
_CORR_UNITARIES = np.stack((I2, SZ, SX, SX @ SZ))


def _kron_batched(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcasting the leading ones."""
    (m, n), (k, l) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * k, n * l))


def _kron_combos(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a[s], b[t]) for every s and t of two matrix stacks, stacked in
    the order s * len(b) + t."""
    out = _kron_batched(a[:, None], b[None, :])
    return out.reshape((-1,) + out.shape[2:])


def _pauli_pair_maps() -> tuple[np.ndarray, np.ndarray]:
    """Conjugation by the 16 Pauli pairs U_i (x) U_j as an entry map.

    Branch k = 4(i-1)+(j-1) is corrected by U_i on qubit 2 and U_j on
    qubit 3. Each pair P is a signed permutation with P[r, c_r] = s_r, so
    (P X P^dag)[r, c] = s_r s_c X[c_r, c_c]. Returns the source entry
    4 c_r + c_c and the sign s_r s_c of every output entry 4r + c, both
    (16, 16).
    """
    pairs = _kron_combos(_CORR_UNITARIES, _CORR_UNITARIES)
    cols = np.abs(pairs).argmax(axis=-1)
    signs = np.take_along_axis(pairs, cols[..., None], axis=-1)[..., 0].real
    source = (4 * cols[:, :, None] + cols[:, None, :]).reshape(16, 16)
    sign = (signs[:, :, None] * signs[:, None, :]).reshape(16, 16)
    return source, sign


_PAULI_SOURCE, _PAULI_SIGN = _pauli_pair_maps()
# The same sources as indices into a row's 16 flattened 4x4 branch states.
_PAULI_GATHER = _PAULI_SOURCE + 16 * np.arange(16)[:, None]


def _branch_contractions() -> np.ndarray:
    """Stack of the 16 rank-4 projection maps <bell_i|_(a,1) (x) I4 (x) <bell_j|_(4,b).

    Row block 4k..4k+3 (k = 4(i-1)+(j-1)) maps the 6-qubit register to the
    kept (2, 3) pair for branch (i, j).
    """
    eye4 = np.eye(4, dtype=complex)
    blocks = []
    for bi in _BELL_KETS:
        for bj in _BELL_KETS:
            blocks.append(np.kron(bi.conj().reshape(1, 4), np.kron(eye4, bj.conj().reshape(1, 4))))
    return np.vstack(blocks)


_PROJ_STACK = _branch_contractions()


def prepare_channel() -> DensityMatrix:
    """4-qubit resource state: two Bell pairs on (1,2) and (3,4).

    Built the circuit way (H on the first qubit of each pair, then a CNOT
    onto the second) rather than from the amplitude pattern, so tests can
    validate one construction against the other.
    """
    ket = np.zeros(16, dtype=complex)
    ket[0] = 1.0
    for gate, targets in ((HADAMARD, [0]), (CNOT, [0, 1]), (HADAMARD, [2]), (CNOT, [2, 3])):
        ket = embed_op(gate, targets, 4) @ ket
    return DensityMatrix(np.outer(ket, ket.conj()))


# The resource every run starts from, built once. Its matrix is backed by
# immutable bytes, so no caller can write to it or make it writable again
# and change what later runs see.
RESOURCE = DensityMatrix(
    np.frombuffer(prepare_channel().mat.tobytes(), dtype=complex).reshape(16, 16)
)


def _lifted_kraus(noisy: tuple, p: float, no_decay_only: bool) -> np.ndarray:
    """(m, 16, 16) stack of 4-qubit lifts of the damping Kraus operators.

    One lift per decay combination on the `noisy` qubits, the first noisy
    qubit's choice varying slowest (k0 alone when `no_decay_only`), built as
    one batched Kronecker product of the per-qubit k0/k1/identity stacks.
    """
    kraus = adc_kraus(AdcParams(p))
    if no_decay_only:
        kraus = kraus[:1]
    lifts = np.ones((1, 1, 1), dtype=complex)
    for q in range(4):
        lifts = _kron_combos(lifts, kraus if q in noisy else I2[None])
    return lifts


def distribute(scenario: Scenario, p: float) -> tuple[DensityMatrix, float]:
    """Send `RESOURCE` through the damping noise of the given scenario.

    Protected scenarios post-select the no-decay branch and return the
    renormalized state together with the post-selection probability.
    Unprotected scenarios apply the complete Kraus sum over all decay
    combinations (4 terms for recovery-qubit noise, 16 for all-qubit) and
    report success 1.
    """
    lifts = _lifted_kraus(scenario.noisy_qubits, p, scenario.protected)
    if scenario.protected:
        return eam_postselect(RESOURCE, lifts[0])
    return apply_channel(RESOURCE, lifts), 1.0


def compose_total(alice_in: QubitInput, channel: DensityMatrix, bob_in: QubitInput) -> DensityMatrix:
    """Assemble the 6-qubit state in order (a, 1, 2, 3, 4, b)."""
    if channel.dim != 16:
        raise ValueError("compose_total expects a 4-qubit channel state")
    total = kron(alice_in.density().mat, kron(channel.mat, bob_in.density().mat))
    return DensityMatrix(total, channel.normalized)


def correction_ops(
    i: int, j: int, q_w: float, variant: WeakVariant
) -> tuple[np.ndarray, np.ndarray]:
    """Correction pair (M_A, M_B) for outcome labels (i, j), each 1..4.

    The first argument is Bob's Bell outcome and the second Alice's: M_A,
    Alice's correction of qubit 3, carries index i, and M_B, Bob's
    correction of qubit 2, carries index j, because each party corrects by
    the outcome the partner announces. Branch (Alice i, Bob j) is therefore
    corrected by correction_ops(j, i, ...). M = U . m_w: the weak
    measurement acts first, then the Pauli (index 1 -> I, 2 -> Z, 3 -> X,
    4 -> XZ).
    """
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError(f"outcome indices must be in 1..4, got ({i}, {j})")
    party = _CORR_UNITARIES @ weak_measurement_op(WeakMeasurementParams(q_w, variant))
    return party[i - 1], party[j - 1]


def _settle(recovered: np.ndarray, out: np.ndarray) -> tuple:
    """Normalize corrected products `out` of the unnormalized (2, 3) pair
    states `recovered`, both (..., 4, 4).

    Returns (joint, weight, corrected, degenerate): the recovered traces,
    the success weights tr(M rho M^dag), the normalized outputs, and the
    mask of annihilated branches (joint <= DEGENERATE_TOL or weight <
    DEGENERATE_TOL), whose weight is set to 0 and whose output is
    meaningless.
    """
    joint = np.einsum("...ii->...", recovered).real
    weight = np.einsum("...ii->...", out).real
    degenerate = (joint <= DEGENERATE_TOL) | (weight < DEGENERATE_TOL)
    weight = np.where(degenerate, 0.0, weight)
    corrected = out / np.where(degenerate, 1.0, weight)[..., None, None]
    return joint, weight, corrected, degenerate


def apply_correction(
    recovered: DensityMatrix, M_A: np.ndarray, M_B: np.ndarray
) -> tuple[DensityMatrix, float]:
    """Apply the local correction pair to an unnormalized (2, 3) pair state.

    M_B acts on the first kept qubit (qubit 2), M_A on the second (qubit
    3). Returns the normalized output and the branch success weight
    tr(M rho M^dag), which absorbs the probability prefactor because
    `recovered` is unnormalized. Raises DegenerateBranchError when the
    recovered trace or the weight is numerically zero.
    """
    M = kron(M_B, M_A)
    _, weight, corrected, degenerate = _settle(recovered.mat, M @ recovered.mat @ M.conj().T)
    if degenerate:
        raise DegenerateBranchError("branch weight is numerically zero")
    return DensityMatrix(corrected), float(weight)


# (Alice's index, Bob's index) of branch k = 4(i-1)+(j-1).
_BRANCH_INDICES = tuple((k // 4 + 1, k % 4 + 1) for k in range(16))


@dataclass(frozen=True)
class _Branches:
    """Arrays of every branch of N input pairs, branch k = 4(i-1)+(j-1).

    `recovered`/`corrected` are (N, 16, 4, 4), the rest (N, 16).
    """

    recovered: np.ndarray
    joint: np.ndarray
    weight: np.ndarray
    corrected: np.ndarray
    fidelity: np.ndarray
    degenerate: np.ndarray

    def outcomes(self, n: int = 0) -> tuple:
        """The 16 branches of input pair n as BranchOutcome views."""
        rows = zip(
            _BRANCH_INDICES,
            self.joint[n].tolist(),
            self.recovered[n],
            self.corrected[n],
            self.weight[n].tolist(),
            self.fidelity[n].tolist(),
            self.degenerate[n].tolist(),
        )
        return tuple(
            BranchOutcome(
                i,
                j,
                joint,
                DensityMatrix(recovered, False),
                None if dead else DensityMatrix(corrected),
                weight,
                None if dead else f,
                dead,
            )
            for (i, j), joint, recovered, corrected, weight, f, dead in rows
        )

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row (N,) total_success, total_fidelity, postselected_fidelity.

        Degenerate branches add nothing. Each total adds the 16 branches
        left to right from 0.0, as Python's sum does, so a row's totals do
        not depend on how many rows were evaluated with it. The fidelities
        are NaN where every branch of a row is degenerate, and the
        post-selected one also where the total success is numerically zero.
        """
        fid = np.where(self.degenerate, 0.0, self.fidelity).T
        # The terms of the three totals as one contiguous (16, 3, N) stack,
        # branches outermost, which a reduction over axis 0 adds in order.
        terms = np.empty((16, 3, fid.shape[1]))
        terms[:, 0] = self.weight.T
        np.multiply(self.joint.T, fid, out=terms[:, 1])
        np.multiply(self.weight.T, fid, out=terms[:, 2])
        # Adding in order can differ from Python's sum, which starts at 0,
        # only by a -0.0 where every term is a zero, and + 0.0 folds that
        # into 0.0.
        success, fidelity, weighted = np.add.reduce(terms, axis=0) + 0.0
        # A row whose branches are all degenerate has success 0, so the
        # success test also covers it.
        postselected = np.divide(
            weighted, success, out=np.full_like(success, np.nan), where=success > DEGENERATE_TOL
        )
        return success, np.where(self.degenerate.all(axis=1), np.nan, fidelity), postselected


def _weak_diagonals(q_w, scenario: Scenario, n: int) -> np.ndarray:
    """Diagonals of the scenario's retained weak operator m_w for n input
    rows: (1, 2) for a float q_w, (n, 2) for a sequence of one per row.

    Each distinct value is checked by WeakMeasurementParams, and a nonzero
    one in an unprotected scenario raises ValueError, as does a sequence
    whose length is not n.
    """
    scalar = np.ndim(q_w) == 0
    if not scalar and len(q_w) != n:
        raise ValueError(f"{len(q_w)} q_w values for {n} input rows, need one per row")
    values, rows = ((q_w,), None) if scalar else np.unique(q_w, return_inverse=True)
    table = []
    for v in values:
        scenario.check_q_w(v)
        m_w = weak_measurement_op(WeakMeasurementParams(float(v), scenario.weak_variant))
        table.append(m_w.diagonal().real)
    return table[0][None] if scalar else np.stack(table)[rows]


def _correct_branches(recovered: np.ndarray, scenario: Scenario, q_w, reference: np.ndarray) -> _Branches:
    """Correct the (N, 16, 4, 4) recovered branch states of a scenario.

    Alice's outcome i fixes the Pauli on qubit 2 and Bob's outcome j the
    one on qubit 3 (each party hears the partner's result over the
    classical channel), so branch (i, j) is corrected by U_i m_w (x) U_j m_w
    = (U_i (x) U_j)(m_w (x) m_w). q_w is a float for every row or a
    sequence with one value per row. Branch fidelities are tr(reference .
    corrected) against the (N, 4, 4) reference products.
    """
    n = recovered.shape[0]
    d = _weak_diagonals(q_w, scenario, n)
    # The weak pair is diagonal, D = m_w (x) m_w, so it scales entry (a, b)
    # by D_a D_b; the Pauli pair then moves and signs the entries.
    pair = (d[:, :, None] * d[:, None, :]).reshape(-1, 4)
    scale = (pair[:, :, None] * pair[:, None, :]).reshape(-1, 16)
    out = recovered.reshape(n, 256).take(_PAULI_GATHER, axis=1)
    out *= _PAULI_SIGN * scale.take(_PAULI_SOURCE, axis=1)
    # + 0.0 folds the -0.0 a sign flip leaves on zero entries into 0.0.
    out += 0.0
    out = out.reshape(n, 16, 4, 4)
    joint, weight, corrected, degenerate = _settle(recovered, out)
    # tr(R C) as one contiguous 16-term sum per branch, so a row's value
    # does not depend on N.
    products = reference.swapaxes(-1, -2).reshape(n, 1, 16) * corrected.reshape(n, 16, 16)
    fidelity = products.sum(axis=-1).real
    return _Branches(recovered, joint, weight, corrected, fidelity, degenerate)


def _recover(dist: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """The (N, 16, 4, 4) unnormalized (2, 3) states of every branch of N
    input pairs over one distributed resource state.

    dist is the 16x16 state of qubits (1, 2, 3, 4); rho_a and rho_b are
    (N, 2, 2) stacks of Alice's and Bob's inputs. Alice's Bell bra on (a, 1)
    folds her input into a 2x2 operator on qubit 1, B_i^dag rho_a B_i, and
    Bob's bra on (4, b) folds his into B_j^* rho_b B_j^T on qubit 4; the
    (2, 3) pair of branch (i, j) is the resource contracted with both.
    """
    n = rho_a.shape[0]
    alice = rho_a.reshape(n, 4) @ _FOLD_ALICE
    bob = (rho_b.reshape(n, 4) @ _FOLD_BOB).reshape(n, 4, 4)
    # dist as axes (y, m, w, y', m', w'): y on qubit 1, m on the kept
    # (2, 3) pair, w on qubit 4. Contract Alice's (y, y') with it, then
    # Bob's (w, w'), and order the result (n, i, j, m, m').
    d = dist.reshape(2, 4, 2, 2, 4, 2).transpose(0, 3, 1, 2, 4, 5).reshape(4, 64)
    t = (alice.reshape(4 * n, 4) @ d).reshape(n, 4, 4, 2, 4, 2)
    rec = t.transpose(0, 1, 2, 4, 3, 5).reshape(n, 64, 4) @ bob
    return rec.reshape(n, 4, 4, 4, 4).transpose(0, 1, 4, 2, 3).reshape(n, 16, 4, 4)


def _run_rows(dist: DensityMatrix, scenario: Scenario, q_w, rows) -> _Branches:
    """Every branch for an (N, 4) array of input rows [pop_a, phase_a,
    pop_b, phase_b] over one distributed state of `scenario`, corrected at
    q_w (a float, or a sequence with one value per row)."""
    rows = np.asarray(rows, dtype=float)
    # Alice's and Bob's states of each row on axis 1.
    rho = _input_densities(rows[:, 0::2], rows[:, 1::2])
    rho_a, rho_b = rho[:, 0], rho[:, 1]
    rec = _recover(dist.mat, rho_a, rho_b)
    return _correct_branches(rec, scenario, q_w, _kron_batched(rho_a, rho_b))


def enumerate_branches(
    total: DensityMatrix,
    scenario: Scenario,
    q_w: float,
    alice_in: QubitInput,
    bob_in: QubitInput,
) -> tuple:
    """All 16 Bell outcome branches of the 6-qubit state composed from the
    two inputs, with branch fidelities against their product.

    Branch (i, j) projects qubits (a, 1) onto Bell state i and (4, b) onto
    Bell state j, traces the measured qubits out, and corrects the kept
    (2, 3) pair. This is the direct construction on the composed state;
    `run_protocol` gets the same branches from the factored kernel, and
    the tests hold the two against each other.
    """
    if total.dim != 64:
        raise ValueError("enumerate_branches expects the 6-qubit composed state")
    reference = kron(alice_in.density().mat, bob_in.density().mat)[None]
    # Row block k of the projection stack gives the (2, 3) state of branch k.
    proj = _PROJ_STACK.reshape(16, 4, 64)
    rec = proj @ total.mat @ proj.conj().swapaxes(-1, -2)
    return _correct_branches(rec[None], scenario, q_w, reference).outcomes()


def run_protocol(
    scenario: Scenario,
    p: float,
    q_w: float,
    alice_in: QubitInput,
    bob_in: QubitInput,
) -> ProtocolResult:
    """Distribute, measure and correct at one parameter point."""
    dist, eam_success = distribute(scenario, p)
    rows = [[alice_in.pop0, alice_in.phase, bob_in.pop0, bob_in.phase]]
    branches = _run_rows(dist, scenario, q_w, rows)
    (total_success,), (total_fidelity,), (postselected,) = branches.totals()
    return ProtocolResult(
        scenario=scenario,
        p=p,
        q_w=q_w,
        eam_success=eam_success,
        branches=branches.outcomes(),
        total_success=float(total_success),
        total_fidelity=float(total_fidelity),
        postselected_fidelity=float(postselected),
    )
