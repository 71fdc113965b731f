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
damping channel applied and no correction. A `Scenario`'s situation
fixes both the damped qubits and the weak-pulse family that undoes their
damping; `channels._check_unit` checks every p, q_w and pop0 against
[0, 1]. `distribute` applies each 4-qubit lift of a damping Kraus
operator as a monomial map, one source column and one coefficient per
row, over entries of the resource gathered once at import;
`channels.apply_channel` and `channels.eam_postselect` on Kronecker-built
lifts are the reference it is tested against, bit for bit.

All 16 Bell outcome combinations are computed exactly, never sampled, by
one batched kernel: each party's Bell bra is contracted with that party's
input first, so the 6-qubit state is never built. The kernel evaluates a
stack of input pairs at once. `_input_densities` is the one place an input
(pop0, phase) becomes a 2x2 state.

One orchestration, `_fold_and_correct`, checks every q_w, folds a stack
of input rows through the distributed state once (`_recover`), builds
the parts of the correction that no q_w changes once (`_branch_forms`),
and corrects at each q_w (`_correct_branches`). The stages write only
into the buffers it gives them, and its docstring states their layout.
`_run_rows` returns arrays the caller owns (`run_protocol` sends its one
row through it); `_row_totals` returns only the per-row totals, the same
bits, with every stack in per-thread scratch (`_SCRATCH`).

A q_w is one float or one value per input row, and the distributed state
is one (16, 16) state or a (G, 16, 16) stack, one state per equal
contiguous group of rows. So the rows of a verify check's grid at every
p share one call: `_row_totals` folds them a block of whole groups at a
time, up to `_BLOCK_ROWS` rows, each group against its own state with the
matrix product one state alone would get. Each branch correction is a
constant Pauli pair U_i (x) U_j, built once at import, after a weak
factor D = m_w (x) m_w, the only part that q_w changes. D is diagonal
and the Pauli pairs are signed permutations, so a correction only
scales, moves and signs entries. Hence each branch's success weight is
sum_a D_a^2 X[a, a] over its recovered state X, and its fidelity numerator
a 16-term sum of D_a D_b times a q_w-free form, each entry of X signed
and paired with the reference entry it meets. Per q_w, a totals-only call
contracts those forms and never builds a corrected state; the corrected
states are built only for a caller that owns the result, normalized by
the same weights, so both entries give the same bits. One rule, in
`_correct_branches`, flags a branch degenerate.

The product API is `__all__`. The rest of the public names are the
references the tests hold the kernel against, which no product path calls:
`prepare_channel` builds the resource as a circuit, `compose_total` the
6-qubit state, `correction_ops` and `apply_correction` apply the explicit
4x4 corrections with their own traces and degeneracy rule (only
`apply_correction` raises `DegenerateBranchError`; the kernel flags such
a branch instead), and `enumerate_branches` projects the composed 6-qubit
state directly. Importing the module runs none of them.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .channels import DEGENERATE_TOL, DegenerateBranchError, _check_unit, _weak_top, weak_measurement_op
from .linalg import CNOT, HADAMARD, I2, SX, SZ, embed_op, kron

__all__ = [
    "QubitInput",
    "Scenario",
    "BranchOutcome",
    "ProtocolResult",
    "RESOURCE",
    "distribute",
    "run_protocol",
]


def _input_densities(pop0, phase=0.0) -> np.ndarray:
    """Input states |v><v| of the kets v = [sqrt(pop0), sqrt(1-pop0) e^{i phase}]
    over broadcast arrays of populations and phases, as (..., 2, 2)."""
    pop0 = np.asarray(pop0, dtype=float)
    a1 = np.sqrt(1.0 - pop0) * np.exp(1j * np.asarray(phase, dtype=float))
    kets = np.empty(a1.shape + (2,), dtype=complex)
    kets[..., 0] = np.sqrt(pop0)
    kets[..., 1] = a1
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
        _check_unit("pop0", self.pop0)
        if not math.isfinite(self.phase):
            raise ValueError(f"phase={self.phase!r} is not finite")

    def density(self) -> np.ndarray:
        return _input_densities(self.pop0, self.phase)


class Scenario(Enum):
    """The paper's noise situation, run protected or bare.

    `situation` is "I" when only the two recovery qubits decay and "II"
    when all four channel qubits do. `protected` runs add no-decay
    post-selection at distribution and a weak-measurement correction;
    bare ones apply the full damping channel and no correction. The rest
    follows from those two: `noisy_qubits`, the damped channel qubit
    indices (0-based within the 4-qubit resource), and, through
    `situation`, the weak-pulse family that undoes the damping
    (`channels._weak_top`). Values double as the CLI spellings.
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
    branch weight was annihilated (degenerate=True). Both are (4, 4) views
    of branch stacks that the result owns, shared by no other result.
    success_weight is the trace of the uncorrected-normalization product
    M rho M^dag.
    """

    alice_index: int
    bob_index: int
    joint_prob: float
    recovered: np.ndarray
    corrected: Optional[np.ndarray]
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

# The resource every run starts from, built once: the first Bell ket on each
# of the pairs (1, 2) and (3, 4). It is backed by immutable bytes, so no
# caller can write to it or make it writable again and change what later
# runs see.
_RESOURCE_KET = np.kron(_BELL_KETS[0], _BELL_KETS[0])
RESOURCE = np.frombuffer(np.outer(_RESOURCE_KET, _RESOURCE_KET.conj()).tobytes(), dtype=complex).reshape(16, 16)

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


def _pauli_pair_maps() -> tuple[np.ndarray, np.ndarray]:
    """Conjugation by the 16 Pauli pairs U_i (x) U_j as an entry map.

    Branch k = 4(i-1)+(j-1) is corrected by U_i on qubit 2 and U_j on
    qubit 3. Each pair P is a signed permutation with P[r, c_r] = s_r, so
    (P X P^dag)[r, c] = s_r s_c X[c_r, c_c]. Returns the source entry
    4 c_r + c_c and the sign s_r s_c of every output entry 4r + c, both
    (16, 16).
    """
    pairs = _kron_batched(_CORR_UNITARIES[:, None], _CORR_UNITARIES[None, :]).reshape(16, 4, 4)
    cols = np.abs(pairs).argmax(axis=-1)
    signs = np.take_along_axis(pairs, cols[..., None], axis=-1)[..., 0].real
    source = (4 * cols[:, :, None] + cols[:, None, :]).reshape(16, 16)
    sign = (signs[:, :, None] * signs[:, None, :]).reshape(16, 16)
    return source, sign


_PAULI_SOURCE, _PAULI_SIGN = _pauli_pair_maps()
# The same sources as indices into a row's 16 flattened 4x4 branch states.
_PAULI_GATHER = _PAULI_SOURCE + 16 * np.arange(16)[:, None]


# Where each entry of a branch's recovered state meets the reference.
# Branch k's corrected state C is its recovered state X with entry s moved to
# the output entry e = 4r + c whose source is s, signed and scaled: C[e] =
# sign_k(e) scale(s) X[s]. So tr(ref . C) = sum_e ref[c, r] C[e] pairs X[s]
# with ref[c, r] under the sign of e. For every (k, s), the table holds the
# index of that signed reference entry in a row laid out as the flattened
# [ref, -ref] (`_PLUS_MINUS`).
_TARGET = np.argsort(_PAULI_SOURCE, axis=1)
_FIDELITY_TABLE = 4 * (_TARGET % 4) + _TARGET // 4 + 16 * (np.take_along_axis(_PAULI_SIGN, _TARGET, axis=1) < 0.0)
_PLUS_MINUS = np.array([1.0, -1.0], dtype=complex)[:, None, None]


@functools.cache
def _branch_contractions() -> np.ndarray:
    """Stack of the 16 rank-4 projection maps <bell_i|_(a,1) (x) I4 (x) <bell_j|_(4,b).

    Row block 4k..4k+3 (k = 4(i-1)+(j-1)) maps the 6-qubit register to the
    kept (2, 3) pair for branch (i, j). Built on first use and shared
    read-only, so importing the module does not build it.
    """
    eye4 = np.eye(4, dtype=complex)
    blocks = []
    for bi in _BELL_KETS:
        for bj in _BELL_KETS:
            blocks.append(np.kron(bi.conj().reshape(1, 4), np.kron(eye4, bj.conj().reshape(1, 4))))
    stack = np.vstack(blocks)
    stack.setflags(write=False)
    return stack


def prepare_channel() -> np.ndarray:
    """4-qubit resource state: two Bell pairs on (1,2) and (3,4).

    Built the circuit way (H on the first qubit of each pair, then a CNOT
    onto the second) rather than from the Bell table `RESOURCE` comes
    from, so tests can validate one construction against the other.
    """
    ket = np.zeros(16, dtype=complex)
    ket[0] = 1.0
    for gate, targets in ((HADAMARD, [0]), (CNOT, [0, 1]), (HADAMARD, [2]), (CNOT, [2, 3])):
        ket = embed_op(gate, targets, 4) @ ket
    return np.outer(ket, ket.conj())


# A lifted damping Kraus operator is a Kronecker product of per-qubit
# choices 0: k0 = diag(1, d), 1: k1 = [[0, s], [0, 0]] and 2: the identity,
# d = sqrt(1-p) and s = sqrt(p). Each has one entry per row: row b of choice
# o holds its factor in column _ADC_COLUMN[o][b]. k1's empty row reads
# column 0 with factor 0.
_ADC_COLUMN = ((0, 1), (1, 0), (0, 1))


def _adc_monomials(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The scenario's lifted Kraus operators L_m as monomial maps over
    `RESOURCE`, one per decay combination on its noisy qubits (the no-decay
    one alone when protected), the first noisy qubit's choice varying
    slowest.

    Row r of L_m holds c_r in column src_r, so (L_m rho L_m^dag)[r, c] =
    c_r rho[src_r, src_c] c_c. Returns the (4, m, 16) indices of each row's
    per-qubit factors into the flattened 3x2 factor table, qubit 0 first,
    and the constant (m, 16, 16) gather rho[src_r, src_c] of `RESOURCE`.
    """
    options = [((0, 1) if q in scenario.noisy_qubits else (2,)) for q in range(4)]
    if scenario.protected:
        options = [o[:1] for o in options]
    choices = np.array(list(itertools.product(*options)))
    # Bit b of row r on each qubit, qubit 0 the most significant: (16, 4).
    place = 1 << np.arange(3, -1, -1)
    bits = (np.arange(16)[:, None] // place) & 1
    factor = 2 * choices.T[:, :, None] + bits.T[:, None, :]
    src = np.array(_ADC_COLUMN)[choices[:, None, :], bits] @ place
    gathered = RESOURCE[src[:, :, None], src[:, None, :]]
    gathered.setflags(write=False)
    return factor, gathered


_ADC_MONOMIALS = {scenario: _adc_monomials(scenario) for scenario in Scenario}


def distribute(scenario: Scenario, p: float) -> tuple[np.ndarray, float]:
    """Send `RESOURCE` through the damping noise of the given scenario.

    Returns a fresh (16, 16) state and a probability. Protected scenarios
    post-select the no-decay branch and return the renormalized state
    together with the post-selection probability, g_eam >= 1/4 for every p
    in [0, 1], so the kept branch is never annihilated.
    Unprotected scenarios apply the complete Kraus sum over all decay
    combinations (4 terms for recovery-qubit noise, 16 for all-qubit) and
    report success 1. Each lifted Kraus operator is applied as a monomial
    map: its coefficient c_r is the product of the row's per-qubit
    factors taken left to right in qubit order, as a Kronecker product
    forms it.
    """
    _check_unit("decay probability p", p)
    factor, gathered = _ADC_MONOMIALS[scenario]
    # The row factors [[1, d], [s, 0], [1, 1]] of k0, k1 and the identity.
    table = np.array([1.0, math.sqrt(1.0 - p), math.sqrt(p), 0.0, 1.0, 1.0])
    coef = np.multiply.reduce(table.take(factor), axis=0)
    terms = coef[:, :, None] * gathered * coef[:, None, :]
    if not scenario.protected:
        # The terms add in order of m, as apply_channel's Kraus sum does.
        return terms.sum(axis=0), 1.0
    kept = terms[0]
    prob = float(kept.trace().real)
    return kept / prob, prob


def compose_total(alice_in: QubitInput, channel: np.ndarray, bob_in: QubitInput) -> np.ndarray:
    """Assemble the 6-qubit state in order (a, 1, 2, 3, 4, b)."""
    if channel.shape != (16, 16):
        raise ValueError("compose_total expects a 4-qubit channel state")
    return kron(alice_in.density(), kron(channel, bob_in.density()))


def correction_ops(i: int, j: int, q_w: float, situation: str) -> tuple[np.ndarray, np.ndarray]:
    """Correction pair (M_A, M_B) for outcome labels (i, j), each 1..4.

    The first argument is Bob's Bell outcome and the second Alice's: M_A,
    Alice's correction of qubit 3, carries index i, and M_B, Bob's
    correction of qubit 2, carries index j, because each party corrects by
    the outcome the partner announces. Branch (Alice i, Bob j) is therefore
    corrected by correction_ops(j, i, ...). M = U . m_w: the weak
    measurement acts first, in the family of `situation` ("I" or "II"),
    then the Pauli (index 1 -> I, 2 -> Z, 3 -> X, 4 -> XZ).
    """
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError(f"outcome indices must be in 1..4, got ({i}, {j})")
    party = _CORR_UNITARIES @ weak_measurement_op(q_w, situation)
    return party[i - 1], party[j - 1]


def apply_correction(
    recovered: np.ndarray, M_A: np.ndarray, M_B: np.ndarray
) -> tuple[np.ndarray, float]:
    """Apply the local correction pair to an unnormalized (2, 3) pair state.

    M_B acts on the first kept qubit (qubit 2), M_A on the second (qubit
    3). Returns the normalized output and the branch success weight
    tr(M rho M^dag), which absorbs the probability prefactor because
    `recovered` is unnormalized. Raises DegenerateBranchError when the
    recovered trace or the weight is numerically zero.
    """
    M = kron(M_B, M_A)
    out = M @ recovered @ M.conj().T
    # The degeneracy rule as `channels.DEGENERATE_TOL` states it, written
    # apart from the kernel's `_correct_branches` so the tests can hold one
    # to the other.
    weight = float(np.trace(out).real)
    if np.trace(recovered).real <= DEGENERATE_TOL or weight < DEGENERATE_TOL:
        raise DegenerateBranchError("branch weight is numerically zero")
    return out / weight, weight


# (Alice's index, Bob's index) of branch k = 4(i-1)+(j-1).
_BRANCH_INDICES = tuple((k // 4 + 1, k % 4 + 1) for k in range(16))


@dataclass(frozen=True)
class _Branches:
    """Arrays of every branch of N input pairs, branch k = 4(i-1)+(j-1).

    `recovered`/`corrected` are (N, 16, 4, 4), the rest (N, 16).
    `corrected` is None in a totals-only result, which builds no state.
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
                recovered,
                None if dead else corrected,
                weight,
                None if dead else f,
                dead,
            )
            for (i, j), joint, recovered, corrected, weight, f, dead in rows
        )

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row (N,) total_success, total_fidelity, postselected_fidelity.

        A degenerate branch, whose weight and fidelity are 0
        (`_correct_branches`), adds nothing. Each total adds the 16 branches
        left to right from 0.0, as Python's sum does, so a row's totals do
        not depend on how many rows were evaluated with it. The fidelities
        are NaN where every branch of a row is degenerate, and the
        post-selected one also where the total success is numerically zero.
        """
        # The terms of the three totals as one contiguous (16, 3, N) stack,
        # branches outermost, which a reduction over axis 0 adds in order.
        terms = np.empty((16, 3, len(self.weight)))
        terms[:, 0] = self.weight.T
        np.multiply(self.joint.T, self.fidelity.T, out=terms[:, 1])
        np.multiply(self.weight.T, self.fidelity.T, out=terms[:, 2])
        # Adding in order can differ from Python's sum, which starts at 0,
        # only by a -0.0 where every term is a zero, and + 0.0 folds that
        # into 0.0.
        sums = np.add.reduce(terms, axis=0)
        sums += 0.0
        success, fidelity, weighted = sums
        fidelity[self.degenerate.all(axis=1)] = np.nan
        # A row whose branches are all degenerate has success 0, so the
        # success test also covers it. Dividing by a quiet NaN gives NaN
        # and raises no floating-point flag.
        postselected = weighted / np.where(success > DEGENERATE_TOL, success, np.nan)
        return success, fidelity, postselected


def _branch_stack(n: int) -> np.ndarray:
    """A fresh (n, 16, 4, 4) complex stack of branch states."""
    return np.empty((n, 16, 4, 4), dtype=complex)


# Each thread's three kernel stacks, 4 KB per row each, grown to the most
# rows the thread has asked for and never shrunk. Reused across calls,
# their pages stay resident, where fresh temporaries of this size are
# handed back to the OS when freed and faulted in again by the next call.
_SCRATCH = threading.local()


def _weak_diagonals(q_w, scenario: Scenario, n: int) -> np.ndarray:
    """Diagonals of the scenario's retained weak operator m_w for n input
    rows: (1, 2) for a float q_w, (n, 2) for a sequence of one per row.

    A value outside [0, 1] raises `channels._check_unit`'s ValueError for
    the least such value, NaN counting as the largest. A nonzero value in
    an unprotected scenario raises ValueError first, as does a sequence
    whose length is not n.

    The common case is checked first: a float or int in [0, 1], and zero
    when the scenario is bare, passes one chained comparison and has its
    diagonals built directly. Any other q_w, a sequence or a bad value,
    takes the ordered checks above, which give a valid one the same bits
    and a bad one its error, so which path a value takes never shows.
    """
    if isinstance(q_w, (float, int)) and 0.0 <= q_w <= 1.0 and (scenario.protected or q_w == 0.0):
        return np.array([[_weak_top(q_w, scenario.situation), 1.0]])
    q = np.asarray(q_w, dtype=float)
    if q.ndim and len(q) != n:
        raise ValueError(f"{len(q)} q_w values for {n} input rows, need one per row")
    q = q.reshape(-1)
    # The largest magnitude is nonzero, or NaN, exactly when some value is.
    scenario.check_q_w(float(np.abs(q).max(initial=0.0)))
    # NaN fails both comparisons and sorts last, so the least bad value
    # raises the range error.
    bad = q[~((q >= 0.0) & (q <= 1.0))]
    if bad.size:
        _check_unit("weak measurement strength q_w", float(np.sort(bad)[0]))
    diagonals = np.ones((len(q), 2))
    diagonals[:, 0] = _weak_top(q, scenario.situation)
    return diagonals


def _branch_forms(recovered: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray, out: np.ndarray) -> tuple:
    """The parts of every branch's correction that do not depend on q_w,
    for (N, 16, 4, 4) recovered states and the (N, 2, 2) inputs whose
    product rho_a (x) rho_b is each row's reference.

    Returns the recovered traces `joint`, (N, 16); the real diagonals of
    the recovered states, Re X_k[a, a], as an (N, 16, 4) view; and the
    fidelity forms F_k[s] = sign_k(e) Re(X_k[s] ref[c, r]) for every source
    entry s of branch k and its output entry e = 4r + c
    (`_FIDELITY_TABLE`), as an (N, 16, 16) real view of `out`, an
    (N, 16, 4, 4) complex buffer apart from `recovered`.
    """
    n = len(recovered)
    flat, forms = recovered.reshape(n, 16, 16), out.reshape(n, 16, 16)
    # Each row's [ref, -ref], from Alice's input and its negative, gathered
    # by constant indices in range: "clip" lets numpy write straight into
    # `out`, where "raise" would buffer.
    signed = _kron_batched(rho_a[:, None] * _PLUS_MINUS, rho_b[:, None]).reshape(n, 32)
    signed.take(_FIDELITY_TABLE, axis=1, out=forms, mode="clip")
    forms *= flat
    return np.einsum("...ii->...", recovered).real, flat[:, :, ::5].real, forms.real


def _correct_branches(recovered: np.ndarray, forms: tuple, diagonals: np.ndarray, out=None) -> _Branches:
    """Correct the (N, 16, 4, 4) recovered branch states at one q_w, from
    their q_w-free `_branch_forms`; the normalized corrected states go to
    `out`, an (N, 16, 4, 4) buffer apart from `recovered`, and are left out
    (None) when `out` is None.

    Alice's outcome i fixes the Pauli on qubit 2 and Bob's outcome j the
    one on qubit 3 (each party hears the partner's result over the
    classical channel), so branch (i, j) is corrected by U_i m_w (x) U_j m_w
    = (U_i (x) U_j)(m_w (x) m_w). `diagonals` holds the diagonal of m_w as
    `_weak_diagonals` gives it, (1, 2) for every row or (N, 2) one per row.
    The weak pair is diagonal, D = m_w (x) m_w, so it scales entry s = (a, b)
    by scale(s) = D_a D_b; the Pauli pair then moves and signs the entries
    and changes no trace. So a branch's success weight is sum_a D_a^2
    Re X[a, a] and its fidelity tr(ref . C) is sum_s scale(s) F[s] over
    that weight, each a contraction over one row's own entries, so a row's
    value does not depend on N.

    A branch is degenerate (annihilated) when its recovered trace is at or
    below `DEGENERATE_TOL` or its weight is below it; its weight, fidelity
    and corrected state are set to 0.
    """
    joint, diagonal, fidelity_forms = forms
    pair = (diagonals[:, :, None] * diagonals[:, None, :]).reshape(-1, 4)
    scale = (pair[:, :, None] * pair[:, None, :]).reshape(-1, 16)
    weight = np.einsum("...ka,...a->...k", diagonal, scale[:, ::5])
    degenerate = (joint <= DEGENERATE_TOL) | (weight < DEGENERATE_TOL)
    weight[degenerate] = 0.0
    # Dividing by infinity zeroes a degenerate branch's fidelity and state.
    norm = np.where(degenerate, np.inf, weight)
    fidelity = np.einsum("...ks,...s->...k", fidelity_forms, scale) / norm
    if out is not None:
        # The gather moves each entry; one multiply by a real factor then
        # signs, scales and normalizes it.
        n = len(recovered)
        flat = out.reshape(n, 16, 16)
        recovered.reshape(n, 256).take(_PAULI_GATHER, axis=1, out=flat, mode="clip")
        flat *= _PAULI_SIGN * scale.take(_PAULI_SOURCE, axis=1) / norm[:, :, None]
    return _Branches(recovered, joint, weight, out, fidelity, degenerate)


def _recover(
    dist: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray, folded_a: np.ndarray, folded_ab: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The (N, 16, 4, 4) unnormalized (2, 3) states of every branch of N
    input pairs, written to `out`. Alice's fold goes to `folded_a` and both
    parties' to `folded_ab`; all three are (N, 16, 4, 4) buffers, apart from
    each other.

    dist is one 16x16 state of qubits (1, 2, 3, 4), or a (G, 16, 16) stack
    whose state g serves the g-th of G equal contiguous groups of the rows;
    rho_a and rho_b are (N, 2, 2) stacks of Alice's and Bob's inputs.
    Alice's Bell bra on (a, 1) folds her input into a 2x2 operator on qubit
    1, B_i^dag rho_a B_i, and Bob's bra on (4, b) folds his into
    B_j^* rho_b B_j^T on qubit 4; the (2, 3) pair of branch (i, j) is the
    resource contracted with both. Each group's contraction with its state
    is the matrix product of one state alone, so a row's bits do not depend
    on the other groups.
    """
    n = rho_a.shape[0]
    alice = rho_a.reshape(n, 4) @ _FOLD_ALICE
    bob = (rho_b.reshape(n, 4) @ _FOLD_BOB).reshape(n, 4, 4)
    # Each state as axes (y, m, w, y', m', w'): y on qubit 1, m on the kept
    # (2, 3) pair, w on qubit 4. Reordered to (y y', m m', w w'), Alice's
    # contraction over (y, y') leaves rows (i, m, m') and columns (w, w')
    # for Bob's; order the result (n, i, j, m, m').
    d = dist.reshape(-1, 2, 4, 2, 2, 4, 2).transpose(0, 1, 4, 2, 5, 3, 6).reshape(-1, 4, 64)
    # One state takes the 2-D product, the same as a stack of one without
    # the batch loop.
    lead = (len(d), -1) if dist.ndim == 3 else (-1,)
    np.matmul(alice.reshape(*lead, 4), d if dist.ndim == 3 else d[0], out=folded_a.reshape(*lead, 64))
    np.matmul(folded_a.reshape(n, 64, 4), bob, out=folded_ab.reshape(n, 64, 4))
    out.reshape(n, 4, 4, 4, 4)[...] = folded_ab.reshape(n, 4, 4, 4, 4).transpose(0, 1, 4, 2, 3)
    return out


# Most input rows `_row_totals` folds and corrects at once: it takes whole
# groups up to this many rows, or one group when a group is larger, so its
# scratch stacks stay this small however many rows a call has. Measured on
# a 2-vCPU Xeon with one BLAS thread, a fold's set-up costs about as much as
# 15 rows, and the cost per row is least from 64 to 192 rows, then grows
# by half by 512, as the stacks outgrow the cache: at 128 rows they take
# 1.5 MiB of a 2 MiB per-core L2. Whole `verify` runs were as fast at 256
# rows and slower at 32 and 64 (CHANGES.md has both tables).
_BLOCK_ROWS = 128


def _fold_and_correct(dist: np.ndarray, scenario: Scenario, q_ws, rows, owned: bool):
    """Every branch of an (N, 4) array of input rows [pop_a, phase_a,
    pop_b, phase_b] over one distributed state of `scenario` or a stack of
    them (`_recover`'s groups), folded once and corrected at each entry of
    `q_ws` (a float, or one value per row) in turn: one `_Branches` per
    block of rows and entry, block by block, yielded once every entry is
    checked. With `owned` the rows are one block; otherwise each block
    holds whole groups, at most `_BLOCK_ROWS` rows unless one group is more.

    The thread's three scratch stacks hold Alice's fold, then the
    block's q_w-free fidelity forms, which every entry of `q_ws` reads;
    both parties' fold; the recovered states. With `owned`, the recovered
    states go to a fresh stack, and each entry's corrected states to
    another, that the caller keeps; otherwise no corrected state is built,
    and each `_Branches` is overwritten by the next one and by any later
    kernel call on the thread.
    """
    rows = np.asarray(rows, dtype=float)
    n, groups = len(rows), len(dist) if dist.ndim == 3 else 1
    if n % groups:
        raise ValueError(f"{n} input rows do not split into {groups} equal groups")
    diagonals = [_weak_diagonals(q_w, scenario, n) for q_w in q_ws]
    size = n // groups
    per = groups if owned else max(1, _BLOCK_ROWS // max(size, 1))
    most = min(per, groups) * size
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None or len(bufs[0]) < most:
        bufs = _SCRATCH.bufs = (_branch_stack(most), _branch_stack(most), _branch_stack(most))
    for g in range(0, groups, per):
        lo, hi = g * size, min(g + per, groups) * size
        temp, folded_ab, recovered = (buf[: hi - lo] for buf in bufs)
        if owned:
            recovered = _branch_stack(hi - lo)
        # Party-major, so each party's states are contiguous.
        rho_a, rho_b = _input_densities(rows[lo:hi, 0::2].T, rows[lo:hi, 1::2].T)
        _recover(dist[g : g + per] if dist.ndim == 3 else dist, rho_a, rho_b, temp, folded_ab, recovered)
        forms = _branch_forms(recovered, rho_a, rho_b, temp)
        for d in diagonals:
            corrected = _branch_stack(hi - lo) if owned else None
            yield _correct_branches(recovered, forms, d[lo:hi] if len(d) > 1 else d, corrected)


def _run_rows(dist: np.ndarray, scenario: Scenario, q_w, rows) -> _Branches:
    """Every branch for an (N, 4) array of input rows [pop_a, phase_a,
    pop_b, phase_b] over one distributed state of `scenario`, or a stack of
    G states for G equal contiguous groups of rows, corrected at q_w (a
    float, or a sequence with one value per row). The caller owns every
    array of the result."""
    (branches,) = _fold_and_correct(dist, scenario, (q_w,), rows, owned=True)
    return branches


def _row_totals(dist: np.ndarray, scenario: Scenario, q_ws, rows) -> list:
    """`_run_rows(dist, scenario, q_w, rows).totals()` for each q_w of
    `q_ws`, bit for bit, from one fold per block of `_BLOCK_ROWS` rows with
    every branch stack in this thread's scratch."""
    parts = [branches.totals() for branches in _fold_and_correct(dist, scenario, q_ws, rows, owned=False)]
    if len(parts) == len(q_ws):
        return parts
    return [tuple(map(np.concatenate, zip(*parts[j :: len(q_ws)]))) for j in range(len(q_ws))]


def enumerate_branches(
    total: np.ndarray,
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
    if total.shape != (64, 64):
        raise ValueError("enumerate_branches expects the 6-qubit composed state")
    # Row block k of the projection stack gives the (2, 3) state of branch k.
    proj = _branch_contractions().reshape(16, 4, 64)
    rec = proj @ total @ proj.conj().swapaxes(-1, -2)
    forms = _branch_forms(rec[None], alice_in.density()[None], bob_in.density()[None], _branch_stack(1))
    return _correct_branches(rec[None], forms, _weak_diagonals(q_w, scenario, 1), _branch_stack(1)).outcomes()


def run_protocol(
    scenario: Scenario,
    p: float,
    q_w: float,
    alice_in: QubitInput,
    bob_in: QubitInput,
) -> ProtocolResult:
    """Distribute, measure and correct at one parameter point, with one
    weak strength q_w (a sequence raises ValueError). A float or int q_w
    is stored as given, any other scalar as its float."""
    # np.ndim is the slow part of this check, so a float or int skips it.
    if not isinstance(q_w, (float, int)):
        if np.ndim(q_w):
            raise ValueError(f"run_protocol: q_w must be a single value, got shape {np.shape(q_w)}")
        q_w = float(q_w)
    dist, eam_success = distribute(scenario, p)
    rows = np.array([[alice_in.pop0, alice_in.phase, bob_in.pop0, bob_in.phase]])
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
