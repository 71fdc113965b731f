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
[0, 1]. The resource is two Bell pairs and every noise map acts on one
qubit, so each distributed state is the product rho_12 (x) rho_34 of its
pairs, and it is carried as the (2, 4, 4) pair stack (rho_12, rho_34);
no product path builds the 16x16 product. `distribute` applies each
pair's 2-qubit lift of a damping Kraus operator as a monomial map, one
source column and one coefficient per row, over entries of the pair
gathered once at import; `channels.apply_channel` and
`channels.eam_postselect` on each pair's Kronecker-built lifts are the
reference it is tested against, bit for bit. It takes one p or a 1-D
sequence of them, and for a sequence returns the (G, 2, 4, 4) stack of
their pair stacks with the bits of one call per p, so a verify check
distributes all its p in one call.

All 16 Bell outcome combinations are computed exactly, never sampled, by
one batched kernel that works on each party alone. Alice's Bell
measurement on (a, 1) touches only the pair (1, 2) and Bob's on (4, b)
only (3, 4). So branch (i, j)'s recovered (2, 3) state is XA_i (x) XB_j,
Alice's input folded through rho_12 onto qubit 2 and Bob's through rho_34
onto qubit 3, and its correction U_i m_w (x) U_j m_w acts on each factor
alone. Each branch's joint probability, success weight and fidelity
against rho_a (x) rho_b is then a product of one factor per party, and
neither the 6-qubit state nor, for the totals, any 4x4 branch state is
built. `_input_densities` is the one place an input (pop0, phase) becomes
a 2x2 state.

The kernel folds both parties through one map. Each Bell ket is
symmetric or antisymmetric under exchanging its qubits, so Bob's fold map
read off rho_34 is Alice's read off SWAP rho_34 SWAP; and the damping is
mirror-symmetric (situation I damps qubits 2 and 3, situation II all
four), so every state `distribute` returns has rho_34 = SWAP rho_12 SWAP
bit for bit. Bob's map therefore equals Alice's bit for bit, and the
kernel reads only Alice's, off rho_12 (`_fold_maps`, `_FOLD_TABLE`).
That makes it a precondition of every kernel entry that the distributed
state is one `distribute` returned; a pair stack that is not such a
mirror image gives Bob wrong states. `tests/test_kernel.py::
test_bob_fold_map_is_alices_on_distributed_states` pins the fact, and
`test_packed_fold_matches_explicit_contraction` holds Bob's folded
states against his own contraction over rho_34.

One orchestration, `_fold_and_correct`, checks every q_w, makes its
input rows party-major input states (`_row_inputs`), folds both parties'
inputs through the one map once (`_fold`) and takes each
party's factors at every q_w (`_party_factors`). A party's outcome state
X is Hermitian, so the fold writes it as two complex numbers, A = X00 +
i X11 and B = X10, each complex-linear in the input: one complex product
with half the output a 2x2 stack would take, read as the reals (X00,
X11, Re X10, Im X10). The reference R' = U_k^dag rho U_k each outcome's
state meets is packed the same way (`_references`), and each outcome's
trace is taken after the factors. An owned call then corrects at each
q_w (`_correct_branches`). A totals-only call writes its references into
the fold's own array, frees both, the call's largest array, and takes
each q_w's totals from the party sums alone (`_party_totals`):
with fewer arrays beside it, glibc's trim threshold, twice the largest
block a process has freed, stays above the call's peak, so a stacked
call does not return its temporaries to the OS and fault them in again
on every call. `_run_rows` returns arrays the caller owns, fresh on
every call and shared with no other result: every branch value the
outer product of the two parties' and the (N, 16, 4, 4) recovered and
corrected states each a kron of two per-party 2x2 states (`run_protocol`
sends its one row through it, and its `BranchOutcome` records are views
of them); `_row_totals` returns only the per-row totals and forms no
branch. At one row a call is some hundred numpy calls on arrays of a few
entries, so their fixed cost, not the arithmetic, is what a call takes:
the scalar operands of the steps a one-row call takes are 0-d arrays,
arrays are indexed rather than unpacked, and no step forms a value
twice.

A q_w is one float or one value per input row, and the distributed state
is one (2, 4, 4) pair stack or a (G, 2, 4, 4) stack, one state per equal
contiguous group of rows, so the rows of a verify check's grid at every p
share one call; each group is folded with the matrix product one state
alone would get. m_w is diagonal and each correction Pauli U_k, a
constant, is a signed permutation, so m_w scales a party's entry (a, b)
by D_a D_b and U_k moves and signs it. D1 is 1 for every weak
operator (`_weak_pairs`), so a party's success weight is D0^2 X00 +
X11, and its fidelity numerator the same terms times the reference,
D0^2 X00 R'00 + X11 R'11, plus D0 times the cross form 2 Re(X10 R'01):
per q_w, written-out sums, elementwise, with no complex 4x4 product,
both in one place (`_party_factors`). One
predicate, `_annihilated`, says when a party's outcome is annihilated,
from that party's own factors. Every
total is a product of two party sums over the live outcomes
(`_party_totals`): the success (sum w_A)(sum w_B), the total fidelity
G_A G_B of the party integrands G = sum t n / w, and the post-selected
fidelity (sum n_A)(sum n_B) over the success. `run_protocol` and
`_row_totals` take their totals from it, and no total forms a branch.
The predicate runs once per
correction: the owned arrays take each branch's joint probability,
weight and fidelity numerator as products of the parties' values in the
stack the totals are summed from, where an annihilated outcome's weight
and numerator are 0 and its guarded weight infinite. So a branch is
degenerate, with weight 0, exactly when either of its parties' outcomes
is annihilated, and the live branches are the ones the totals sum.

The input average's kernel, `_node_integrands`, sits beside the
orchestration: it checks every q_w, folds the node states that every
state shares once, as one party's inputs, against their references,
contracts every q_w at once into the factors, frees the fold, and gives
two integrands at each node (`_party_integrand`): the fidelity, which
applies the same predicate to the party's own factors, and the success
sum w, which is the same at every input and so is its own input
average: (s^2 + d^2)/(1 + d^2) when protected, for the survival
amplitudes d of the damping and s of the weak pulse, and 1 when bare.
Both parties take the node states through the same map, so a node's
integrands are Alice's and Bob's alike and are taken once. It forms
neither its inputs nor their references: `metrics._node_states` makes the
one-party stack of the nodes and its references (`_references`) once per
node count in a process. `metrics` keeps that cache and the quadrature:
the node weights, the weighted node sums and their squares.

The product API is `__all__`. The rest of the public names are the
references the tests hold the kernel against, which no product path calls:
`prepare_channel` builds the 16x16 resource as a circuit, `compose_total`
the 6-qubit state from a pair stack, `correction_ops` and
`apply_correction` apply the explicit 4x4 corrections with their own
traces and degeneracy rule (only `apply_correction` raises
`DegenerateBranchError`; the kernel flags such a branch instead), and
`enumerate_branches` projects the composed 6-qubit state directly and
corrects each branch with those two, so it shares no code with the
kernel's factored path. Importing the module runs none of them.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .channels import DEGENERATE_TOL, DegenerateBranchError, _check_unit, _check_units, _weak_top, weak_measurement_op
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


# The scalars of the elementwise steps a one-row call takes, as 0-d
# arrays: a Python scalar operand is converted on every ufunc call, which
# at one row costs about half the call.
_ONE, _ONE_J, _TOL, _INF, _NAN, _ZERO = (np.array(value) for value in (1.0, 1j, DEGENERATE_TOL, np.inf, np.nan, 0.0))


def _input_densities(pop0, phase=0.0) -> np.ndarray:
    """Input states |v><v| of the kets v = [sqrt(pop0), sqrt(1-pop0) e^{i phase}]
    over broadcast arrays of populations and phases, as (..., 2, 2)."""
    pop0 = np.asarray(pop0, dtype=float)
    a1 = np.sqrt(_ONE - pop0) * np.exp(_ONE_J * np.asarray(phase, dtype=float))
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

    # Members are singletons compared by identity, so the identity hash
    # serves, in C; Enum's own hashes the name in a Python-level call,
    # which every dict keyed by a scenario would pay on each lookup.
    __hash__ = object.__hash__

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


@dataclass(slots=True)
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
    weighted by success_weight / total_success instead. Each total is a
    product of two party sums over the outcomes of that party that are
    not annihilated, so an annihilated outcome adds 0 to every total, and
    total_fidelity is not renormalized over the live ones. Both
    fidelities are NaN when either party has every outcome annihilated,
    and postselected_fidelity also when total_success is at or below
    `channels.DEGENERATE_TOL`. A branch is degenerate when either of its
    parties' outcomes is annihilated, so the totals sum the live
    branches.
    """

    scenario: Scenario
    p: float
    q_w: float
    eam_success: float
    branches: tuple
    total_success: float
    total_fidelity: float
    postselected_fidelity: float


# Bell kets in the fixed order (|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2),
# without the 1/sqrt(2): every product of two amplitudes is then an integer,
# and its 1/2 is exact in binary, where 1/sqrt(2) squared is not.
_BELL_SIGNS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]])
_BELL_KETS = _BELL_SIGNS.astype(complex) / math.sqrt(2.0)

# The resource every run starts from, built once: the first Bell ket on each
# of the pairs (1, 2) and (3, 4), as the (2, 4, 4) stack of the two pair
# states, its entries exactly 0 and 1/2. It is backed by immutable bytes, so
# no caller can write to it or make it writable again and change what later
# runs see.
_PAIR_SIGNS = np.outer(_BELL_SIGNS[0], _BELL_SIGNS[0])
_RESOURCE_BYTES = (np.stack((_PAIR_SIGNS, _PAIR_SIGNS)) * 0.5).astype(complex).tobytes()
RESOURCE = np.frombuffer(_RESOURCE_BYTES, dtype=complex).reshape(2, 4, 4)

# Outcome index (0-based) -> correction unitary.
_CORR_UNITARIES = np.stack((I2, SZ, SX, SX @ SZ))


def _one_source(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column and the real coefficient of the one nonzero entry in each
    row of a stack of linear maps, rows over outputs and columns over
    sources."""
    source = np.abs(maps).argmax(axis=-1)
    return source, np.take_along_axis(maps, source[..., None], axis=-1)[..., 0].real


def _fold_maps() -> np.ndarray:
    """Alice's fold map K_A, read off her flattened pair rho_12.

    Alice's Bell bra on (a, 1) leaves XA_i = sum_{x x'} rho_a[x, x']
    K_A[x x', i m m'] on qubit 2, with K_A[x x', i m m'] = sum_{y y'}
    B_i[x, y]^* B_i[x', y'] rho_12[y m, y' m']. A Bell ket has one nonzero
    amplitude per value of either qubit, so each entry of K_A is one entry
    of the pair times one coefficient. Returns it as a (16, 4, 4, 4) map
    from the flattened pair to (input entry, outcome, output entry), its
    entries 0 and exactly +-1/2.

    It is Bob's map too. Bob's bra on (4, b) leaves XB_j on qubit 3 with
    K_B[z z', j n n'] = sum_{w w'} B_j[w, z]^* B_j[w', z'] rho_34[n w, n' w'],
    and each Bell ket is symmetric or antisymmetric under exchanging its
    qubits, so K_B on rho_34 is K_A on SWAP rho_34 SWAP. `distribute` damps
    the two pairs as mirror images (situation I the qubits 2 and 3,
    situation II all four), so on every state it returns rho_34 is SWAP
    rho_12 SWAP bit for bit, and Bob's map equals Alice's bit for bit
    (`tests/test_kernel.py::test_bob_fold_map_is_alices_on_distributed_states`).
    """
    eye, tables = np.eye(2, dtype=int), _BELL_SIGNS.reshape(4, 2, 2)
    # Coefficients of pair entries (y n, Y N) in K_A, in units of 1/2: the
    # kets are real, B_i[x, y] is tables[i, x, y] / sqrt(2).
    return np.einsum("ixy,iXY,mn,MN->ynYNxXimM", tables, tables, eye, eye).reshape(16, 4, 4, 4) * 0.5


def _packed(maps: np.ndarray) -> np.ndarray:
    """Linear maps onto 2x2 states, the flattened output entry on the last
    axis, packed two complex maps per state on a new last axis: entry 00 +
    i entry 11, then entry 10. A Hermitian state X has real X00 and X11, so the first packed
    map gives A = X00 + i X11 and the second B = X10, and X01 is conj(B).
    Entries 00 and 11 never read the same source, so each nonzero entry of a
    packed map is one entry of `maps`, or i times one: the packing is
    exact."""
    return np.stack((maps[..., 0] + 1j * maps[..., 3], maps[..., 2]), axis=-1)


# The one party fold map, packed, as a (16, 32) table from a flattened
# pair: column (input entry, outcome, slot) gives A at slot 0 and B at slot
# 1 of the outcome state. Its entries are 0, +-1/2 and +-i/2. Read off
# rho_12 it is Alice's map; on a state `distribute` returned, whose rho_34
# is SWAP rho_12 SWAP, it is Bob's too, bit for bit (`_fold_maps`, pinned
# by tests/test_kernel.py::test_bob_fold_map_is_alices_on_distributed_states).
_FOLD_TABLE = _packed(_fold_maps()).reshape(16, 32)

# Conjugation by each correction unitary U_k, a signed permutation with
# U_k[r, c_r] = s_r, as an entry map of a 2x2 state: (U_k Y U_k^dag)[r, c] =
# s_r s_c Y[c_r, c_c]. Output entry e = 2r + c of outcome k reads source
# entry _TURN_SOURCE[4k + e] and takes sign _TURN_SIGN[4k + e].
_TURN_SOURCE, _TURN_SIGN = _one_source(
    np.einsum("krs,kct->krcst", _CORR_UNITARIES, _CORR_UNITARIES.conj()).reshape(16, 4)
)

# A party's outcome states as the real view of the packed fold, (X00, X11,
# Re X10, Im X10) per outcome: entry e = 2r + c of a 2x2 state is the
# packed slot _ENTRY_SLOT[e] times _ENTRY_SIGN[e], real part then imaginary.
# The diagonal's imaginary parts are 0, and Im X01 is -Im X10.
_ENTRY_SLOT, _ENTRY_SIGN = np.array([[0, 0], [2, 3], [2, 3], [1, 0]]), np.array([[1, 0], [1, -1], [1, 1], [1, 0]])
# _STATE_GATHER indexes one party's 16 packed reals for the real and
# imaginary parts of its 16 flattened outcome states: each entry as it is,
# then the source of each turned entry. _STATE_SIGN signs them, shaped as
# one row so that a one-row product needs no broadcast, and _STATE_SCALE
# picks the entry of a weak pair (D0^2, D0 D1, D1 D0, D1^2) = (top^2, top,
# top, 1) that scales each: its last, exactly 1.0, for the unturned half,
# and the pair of each turned entry's source (_TURN_SOURCE) for the rest.
_SOURCES = np.concatenate((np.arange(16), _TURN_SOURCE + 4 * (np.arange(16) // 4)))
_STATE_GATHER = ((4 * (_SOURCES // 4))[:, None] + _ENTRY_SLOT[_SOURCES % 4]).ravel()
_STATE_SIGN = (np.concatenate((np.ones(16), _TURN_SIGN))[:, None] * _ENTRY_SIGN[_SOURCES % 4]).reshape(1, 64)
_STATE_SCALE = np.concatenate((np.full(32, 3), np.repeat(_TURN_SOURCE, 2)))

# Entry (2 ra + rb, 2 ca + cb) of branch 4i + j's state XA_i (x) XB_j is
# XA_i[ra, ca] XB_j[rb, cb]. _KRON_SOURCES holds each party's index into its
# 32 gathered entries (_STATE_GATHER) of that factor, for both halves of
# the gather, over the two (16, 4, 4) branch stacks flattened.
_KRON_SOURCES = (lambda k, i, j, ra, rb, ca, cb: (16 * k + 4 * i + 2 * ra + ca, 16 * k + 4 * j + 2 * rb + cb))(
    *np.indices((2, 4, 4, 2, 2, 2, 2)).reshape(7, -1)
)

# The reference each party's outcome-k state meets, transposed: entry
# (a, b) of outcome k is R'_k[b, a], R'_k = U_k^dag rho U_k, as a linear map
# of the flattened 2x2 input rho. Packed (`_packed`) with its second map
# doubled, rho @ _REFERENCE_TABLE viewed as reals gives (R'00, R'11,
# 2 Re R'01, 2 Im R'01) per outcome. Its entries are 0, +-1, +-i and +-2,
# so the product is exact.
_REFERENCE_MAP = np.einsum("krb,kca->rckab", _CORR_UNITARIES.conj(), _CORR_UNITARIES).reshape(4, 4, 4)
_REFERENCE_TABLE = (_packed(_REFERENCE_MAP) * [1, 2]).reshape(4, 8)


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
    """The scenario's lifted Kraus operators L_m of each pair as monomial
    maps over its `RESOURCE` pair, one per decay combination on the pair's
    noisy qubits (the no-decay one alone when protected), the pair's first
    noisy qubit's choice varying slowest. Each pair holds the same number
    m of noisy qubits, so both have m operators.

    Row r of L_m holds c_r in column src_r, so (L_m rho L_m^dag)[r, c] =
    c_r rho[src_r, src_c] c_c. Returns the (2, m, 4, 2) indices of each
    row's per-qubit factors into the flattened 3x2 factor table, by pair,
    operator and row, the pair's first qubit first, and the constant
    (2, m, 4, 4) gather rho[src_r, src_c] of each `RESOURCE` pair.
    """
    options = [((0, 1) if q in scenario.noisy_qubits else (2,)) for q in range(4)]
    if scenario.protected:
        options = [o[:1] for o in options]
    # Each pair's choices on its two qubits: (2, m, 2).
    choices = np.array([list(itertools.product(*options[q : q + 2])) for q in (0, 2)])
    # Bit b of row r on each qubit of a pair, its first qubit the more
    # significant: (4, 2).
    place = np.array([2, 1])
    bits = (np.arange(4)[:, None] // place) & 1
    factor = 2 * choices[:, :, None, :] + bits
    src = np.array(_ADC_COLUMN)[choices[:, :, None, :], bits] @ place
    gathered = RESOURCE[np.arange(2)[:, None, None, None], src[..., :, None], src[..., None, :]]
    gathered.setflags(write=False)
    return factor, gathered


_ADC_MONOMIALS = {scenario: _adc_monomials(scenario) for scenario in Scenario}


# The row factors [1, d, s, 0, 1, 1] of k0, k1 and the identity as
# sqrt(slope * p + offset), elementwise over an array of p: -p + 1 is 1 - p
# and p + 0 is p exactly (bar the sign of -0.0, which no result shows), so
# each entry has the bits math.sqrt gives it.
_TABLE_SLOPE, _TABLE_OFFSET = np.array([[0.0, -1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0, 1.0, 1.0]])


def distribute(scenario: Scenario, p) -> tuple[np.ndarray, float | np.ndarray]:
    """Send `RESOURCE` through the damping noise of the given scenario.

    Every noise map acts on one qubit, so the two Bell pairs stay
    independent: returns a fresh (2, 4, 4) stack of the pair states
    (rho_12, rho_34), whose product is the distributed state of qubits
    (1, 2, 3, 4), and a probability. Protected scenarios post-select the
    no-decay branch of each pair and return the pairs renormalized one by
    one, together with the post-selection probability, the product of the
    two pairs', g_eam >= 1/4 for every p in [0, 1], so the kept branch is
    never annihilated. Unprotected scenarios apply each pair's complete
    Kraus sum over all decay combinations (2 terms a pair for
    recovery-qubit noise, 4 for all-qubit) and report success 1. Each
    lifted Kraus operator is applied as a monomial map: its coefficient
    c_r is the product of the row's two per-qubit factors taken left to
    right, as a Kronecker product forms it.

    p is one value, which gives one pair stack and a float, or a 1-D
    sequence of G values, which gives the fresh (G, 2, 4, 4) stack of
    their pair stacks and a (G,) array of probabilities, each with the
    bits of one call at its p. Every step works on the trailing axes, so a
    single p is a stack of no axes. A float or int in [0, 1] has its
    factor table built directly; any other p, a sequence or a bad value,
    takes `channels._check_units`, which raises for the least value
    outside [0, 1], NaN counting as the largest, before any arithmetic. A
    p of two or more axes raises ValueError.
    """
    if isinstance(p, (float, int)) and 0.0 <= p <= 1.0:
        # The row factors [[1, d], [s, 0], [1, 1]] of k0, k1 and the identity.
        table = np.array([1.0, math.sqrt(1.0 - p), math.sqrt(p), 0.0, 1.0, 1.0])
    else:
        ps = np.asarray(p, dtype=float)
        if ps.ndim > 1:
            raise ValueError(f"distribute takes one p or a 1-D sequence of them, got shape {ps.shape}")
        _check_units("decay probability p", ps)
        table = np.sqrt(ps[..., None] * _TABLE_SLOPE + _TABLE_OFFSET)
    factor, gathered = _ADC_MONOMIALS[scenario]
    qubits = table.take(factor, axis=-1)
    coef = qubits[..., 0] * qubits[..., 1]
    terms = coef[..., :, None] * gathered * coef[..., None, :]
    if scenario.protected:
        kept = terms[..., 0, :, :]
        # Each pair's trace, pair axis first, (2,) or (2, G): indexing a
        # leading axis is cheaper than [..., k] on the one-p path.
        probs = kept.T.trace().real
        pairs, prob = kept / probs.T[..., None, None], probs[0] * probs[1]
    else:
        # The terms add in order of m, as apply_channel's Kraus sum does.
        pairs, prob = terms.sum(axis=-3), 1.0
    return pairs, float(prob) if table.ndim == 1 else np.full(len(table), prob)


def compose_total(alice_in: QubitInput, pairs: np.ndarray, bob_in: QubitInput) -> np.ndarray:
    """Assemble the 6-qubit state in order (a, 1, 2, 3, 4, b) from the
    inputs and the (2, 4, 4) pair stack `distribute` returns."""
    if pairs.shape != (2, 4, 4):
        raise ValueError("compose_total expects the (2, 4, 4) pair stack of a distributed state")
    return kron(alice_in.density(), kron(kron(*pairs), bob_in.density()))


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


# (Alice's index, Bob's index) of branch k = 4(i-1)+(j-1), and each
# party's index of every branch in order.
_BRANCH_INDICES = tuple((k // 4 + 1, k % 4 + 1) for k in range(16))
_ALICE_INDICES, _BOB_INDICES = zip(*_BRANCH_INDICES)


@dataclass(slots=True)
class _Branches:
    """Arrays of every branch of N input pairs, branch k = 4(i-1)+(j-1):
    `recovered`/`corrected` are (N, 16, 4, 4), the rest (N, 16). The
    totals come from the party sums (`_party_totals`), not from these.
    `degenerate` is where a branch's guarded weight, the product of its
    parties' (`_party_totals`), is infinite. Not frozen: a frozen
    dataclass sets each field through `object.__setattr__`, about 1 us of
    a one-row call.
    """

    recovered: np.ndarray
    joint: np.ndarray
    weight: np.ndarray
    corrected: np.ndarray
    fidelity: np.ndarray
    degenerate: np.ndarray

    def outcomes(self, n: int = 0) -> tuple:
        """The 16 branches of input pair n as BranchOutcome views, a
        degenerate one with no corrected state and no fidelity."""
        dead = self.degenerate[n].tolist()
        corrected, fidelity = [*self.corrected[n]], self.fidelity[n].tolist()
        for k in itertools.compress(range(16), dead):
            corrected[k] = fidelity[k] = None
        return tuple(
            map(
                BranchOutcome,
                _ALICE_INDICES,
                _BOB_INDICES,
                self.joint[n].tolist(),
                self.recovered[n],
                corrected,
                self.weight[n].tolist(),
                fidelity,
                dead,
            )
        )


def _weak_pairs(q_w, scenario: Scenario, n: int) -> np.ndarray:
    """The weak pair D_a D_b of the scenario's retained weak operator m_w =
    diag(D0, D1) = diag(top, 1) (`channels._weak_top`), flattened as
    (D0^2, D0 D1, D1 D0, D1^2) = (top^2, top, top, 1), for n input rows:
    (1, 4) for a float q_w, (n, 4) for a sequence of one per row. D1 is
    exactly 1 for every q_w and scenario, and the kernel relies on it:
    `_party_factors` gives X11 no factor, and `_correct_branches` scales
    the unturned half of its states by the last entry, 1.0.

    A value outside [0, 1] raises `channels._check_unit`'s ValueError for
    the least such value, NaN counting as the largest. A nonzero value in
    an unprotected scenario raises ValueError first, as does a sequence
    whose length is not n.

    The common case is checked first: a float or int in [0, 1], and zero
    when the scenario is bare, passes one chained comparison and has its
    pair built directly. Any other q_w, a sequence or a bad value,
    takes the ordered checks above, which give a valid one the same bits
    and a bad one its error, so which path a value takes never shows.
    """
    if isinstance(q_w, (float, int)) and 0.0 <= q_w <= 1.0 and (scenario.protected or q_w == 0.0):
        top = _weak_top(q_w, scenario.situation)
        return np.array([[top * top, top, top, 1.0]])
    q = np.asarray(q_w, dtype=float)
    if q.ndim and len(q) != n:
        raise ValueError(f"{len(q)} q_w values for {n} input rows, need one per row")
    q = q.reshape(-1)
    # The largest magnitude is nonzero, or NaN, exactly when some value is.
    scenario.check_q_w(float(np.abs(q).max(initial=0.0)))
    _check_units("weak measurement strength q_w", q)
    top = _weak_top(q, scenario.situation)
    return np.stack((top * top, top, top, np.ones(len(q))), axis=1)


def _groups(dist: np.ndarray) -> int:
    """How many distributed states `dist` holds: 1 for one (2, 4, 4) pair
    stack, G for a (G, 2, 4, 4) stack of them."""
    return len(dist) if dist.ndim == 4 else 1


def _fold(dist: np.ndarray, rho: np.ndarray, references: bool = False):
    """Each party's recovered 2x2 states of every outcome, XA_i on qubit 2
    and XB_j on qubit 3, as the real view of two complex numbers per
    outcome, A = X00 + i X11 and B = X10 (`_packed`): the (parties, N, 4,
    4) stack (X00, X11, Re X10, Im X10) of each outcome, with the inputs'
    party axis. X01 is conj(X10).

    dist is one distributed state as its (2, 4, 4) pair stack (rho_12,
    rho_34), or a (G, 2, 4, 4) stack of them whose state g serves the g-th
    of G equal contiguous groups of the N rows, each a `distribute` state.
    rho holds the inputs as a (parties, groups, m, 2, 2) stack, party-major
    with Alice's first when it has two, of each group's m = N / G rows:
    groups is G, or 1 when every group takes the same inputs. Both parties
    fold through one map, Alice's read off rho_12 (`_fold_maps`): on a
    `distribute` state rho_34 is SWAP rho_12 SWAP and Bob's map on it
    equals Alice's bit for bit (pinned by `tests/test_kernel.py::
    test_bob_fold_map_is_alices_on_distributed_states`), so rho_34 is never
    read, and a stack not made by `distribute` gets wrong states for Bob.
    One exact product with `_FOLD_TABLE` reads every state's
    packed map off its first pair, and one batched complex product folds
    the inputs of each party and group through it, the same product one
    state alone would get, so a row's bits do not depend on the other
    groups. The product is written in C order, so its real view and the
    final reshape are views, not copies.

    With `references`, for inputs that are each group's own (groups is G),
    it also takes each row's packed references (`_references`) and writes
    both products into one array: returns (states, references), two
    (parties, N, 4, 4) views of it, with the bits of the two products
    apart. A totals-only call's largest array then holds both and is freed
    before its totals, which keeps glibc's trim threshold, twice the
    largest block freed, above the call's peak, so a call of many rows does
    not hand its temporaries back to the OS and fault them in again every
    time. An owned call keeps its fold and takes its references apart
    (`_references`), which at one row costs fewer numpy calls.
    """
    maps = np.dot(dist.reshape(-1, 2, 16)[:, 0], _FOLD_TABLE).reshape(-1, 4, 8)
    parties, inputs = len(rho), rho.reshape(rho.shape[:3] + (4,))
    if not references:
        return np.matmul(inputs, maps, order="C").view(float).reshape(parties, -1, 4, 4)
    both = np.empty((2,) + inputs.shape[:3] + (8,), dtype=complex)
    np.matmul(inputs, maps, out=both[0])
    np.matmul(inputs.reshape(parties, -1, 4), _REFERENCE_TABLE, out=both[1].reshape(parties, -1, 8))
    both = both.view(float).reshape(2, parties, -1, 4, 4)
    return both[0], both[1]


def _references(rho: np.ndarray) -> np.ndarray:
    """The packed references (R'00, R'11, 2 Re R'01, 2 Im R'01) of each
    outcome, R' = U_k^dag rho U_k, that the fidelity reads each party's
    outcome state against, F[a, b] = Re(X[a, b] R'[b, a]): (parties, rows,
    4, 4) for inputs rho as `_fold` takes them, which keep their party axis
    and their rows. One product per party over all its rows, exact: each
    entry of a reference is one input entry, signed or doubled."""
    return (rho.reshape(len(rho), -1, 4) @ _REFERENCE_TABLE).view(float).reshape(len(rho), -1, 4, 4)


def _outer(values: np.ndarray) -> np.ndarray:
    """Each branch's product of its two parties' values, (..., 16), from a
    (2, ..., 4) party-major stack."""
    return (values[0][..., None] * values[1][..., None, :]).reshape(values.shape[1:-1] + (16,))


def _party_factors(packed: np.ndarray, reference: np.ndarray, pair: np.ndarray) -> tuple:
    """Each party's success weight D0^2 X00 + X11 and fidelity numerator
    D0^2 F00 + D0 D1 (F01 + F10) + F11 at each outcome, from its packed
    states (`_fold`), its packed references (`_references`) and the weak
    pair D_a D_b, flattened on the last axis of `pair`, whose other axes
    broadcast against the axes before the outcome axis. D1 = 1 for every
    weak operator (`_weak_pairs`), so X11 and F11 take no factor. F00 =
    X00 R'00 is taken as (D0^2 X00) R'00, from the weight's own term, and
    F11 = X11 R'11; X01 is conj(X10) and R'10 conj(R'01), so F01 + F10 =
    2 Re(X10 R'01) = Re X10 (2 Re R'01) - Im X10 (2 Im R'01). The sums are
    written out, elementwise, so a row's factors do not depend on the rows
    beside it."""
    d00, d01 = pair[..., None, 0], pair[..., None, 1]
    # The cross term first, then each term in place, so no more than three
    # arrays of the weight's size are alive at once: on verify's stacks
    # they sit beside the fold, the call's largest. Adding the cross term
    # first leaves every sum's bits as in (D0^2 F00 + cross) + F11.
    numerator = packed[..., 2] * reference[..., 2]
    numerator -= packed[..., 3] * reference[..., 3]
    numerator = numerator * d01
    weight = packed[..., 0] * d00
    numerator += weight * reference[..., 0]
    weight += packed[..., 1]
    numerator += packed[..., 1] * reference[..., 1]
    return weight, numerator


def _annihilated(traces: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Where a party's outcome is annihilated, elementwise over its trace
    and its success weight: the trace is at or below `DEGENERATE_TOL` or
    the weight is below it."""
    return (traces <= _TOL) | (weights < _TOL)


def _party_integrand(traces: np.ndarray, weights: np.ndarray, numerators: np.ndarray) -> np.ndarray:
    """One party's two input-average integrands over its four outcomes on
    the last axis, from each outcome's trace t, success weight w and
    fidelity numerator n, stacked on a new first axis: the party's
    outcome-averaged fidelity sum_k t_k n_k / w_k, then its success sum_k
    w_k.

    An annihilated outcome (`_annihilated`) adds nothing to the fidelity;
    where every outcome is, the fidelity is NaN. The predicate guards the
    division by w, and the success divides by nothing, so it sums every
    outcome's weight, annihilated or not.
    """
    dead = _annihilated(traces, weights)
    # Dividing by infinity zeroes a dead outcome's term.
    terms = np.array((traces * numerators / np.where(dead, _INF, weights), weights))
    # Both integrands' outcomes add in order, a slice at a time, which is
    # faster than a reduction over a short axis.
    sums = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]
    sums[0][dead[..., 0] & dead[..., 1] & dead[..., 2] & dead[..., 3]] = _NAN
    return sums


def _party_totals(traces: np.ndarray, weights: np.ndarray, numerators: np.ndarray) -> tuple:
    """Each row's (total_success, total_fidelity, postselected_fidelity)
    from its two parties' (2, ..., 4) traces t, success weights w and
    fidelity numerators n (`_party_factors`), one value per outcome.

    Branch (i, j) takes Alice's factor at outcome i times Bob's at outcome
    j, so each total is a product of two party sums over the outcomes that
    are not annihilated (`_annihilated`, applied to each party's own
    factors): the success (sum w_A)(sum w_B), the total fidelity G_A G_B of
    the party integrands G = sum t n / w, and the post-selected fidelity
    (sum n_A)(sum n_B) over the success. Each is elementwise in the rows,
    so a row's totals do not depend on the rows beside it. A live outcome
    has w >= `DEGENERATE_TOL`, so sum w is 0 exactly where every outcome of
    a party is annihilated: there G, and the total fidelity, is NaN. The
    post-selected fidelity is NaN also where the success is at or below
    `DEGENERATE_TOL`.

    Returns the totals and the values they are summed from: the
    (3, 2, ..., 4) stack of w, n and t n / w with each annihilated
    outcome's set to 0, and w with each annihilated outcome's set to
    infinity (guarded). `_correct_branches` forms each branch's values as
    products of these, so its flags come from this one application of the
    predicate.

    G is `_party_integrand`'s fidelity, formed here beside the two other
    sums in one stack: calling that function as well would apply the
    predicate twice, and at one row it cost about 8 % of a `run_protocol`
    call (`tools/abtime.py`). These are the rows' totals (`run_protocol`,
    `_run_rows`, `_row_totals`); the input average takes both its
    integrands from `_party_integrand`, whose success sums every outcome's
    weight, annihilated or not.
    """
    dead = _annihilated(traces, weights)
    # Dividing by infinity keeps a dead outcome's integrand term finite.
    guarded = np.where(dead, _INF, weights)
    terms = np.array((weights, numerators, traces * numerators / guarded))
    np.copyto(terms, _ZERO, where=dead)
    # The outcomes add in order, a slice at a time, as `_party_integrand`'s do.
    sums = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]
    sums[2][sums[0] == _ZERO] = _NAN
    # (success, post-selected numerator, fidelity), indexed: unpacking an
    # array iterates it, which at one row costs twice as much.
    products = sums[:, 0] * sums[:, 1]
    success = products[0]
    # Dividing by a quiet NaN gives NaN and raises no floating-point flag.
    return (success, products[2], products[1] / np.where(success > _TOL, success, _NAN)), terms, guarded


def _correct_branches(traces: np.ndarray, weights: np.ndarray, numerators: np.ndarray, pair, packed) -> tuple:
    """Every row's totals at one q_w (`_party_totals`), from each party's
    traces and its success weights and fidelity numerators at that q_w
    (`_party_factors`), and every branch as a `_Branches` the caller owns,
    with the recovered and normalized corrected (N, 16, 4, 4) states built
    from the `packed` states (`_fold`).

    Alice's outcome i fixes the Pauli on qubit 2 and Bob's outcome j the
    one on qubit 3 (each party hears the partner's result over the
    classical channel), so branch (i, j) is corrected by U_i m_w (x) U_j m_w,
    one factor per party. `pair` holds the weak pair D_a D_b of m_w as
    `_weak_pairs` gives it, (1, 4) for every row or (N, 4) one per row.
    m_w scales a party's entry (a, b) by D_a D_b and the Pauli moves and
    signs it without changing its trace, so a party's success weight is
    sum_a D_a^2 X[a, a] and its fidelity numerator sum_ab D_a D_b F[a, b];
    a branch's joint probability, weight and fidelity numerator are the
    products of its parties' values in the totals' stack, and its fidelity
    tr(ref . C) the numerator over the weight. Each is a contraction over
    one row's own entries, so a row's value does not depend on N.

    A branch is degenerate when either party's outcome is annihilated, so
    the live branches are the ones the totals sum. Its weight is then 0
    and its guarded weight infinite, and dividing by that zeroes its
    fidelity and corrected state.
    """
    totals, terms, guarded = _party_totals(traces, weights, numerators)
    # Each branch's joint probability, weight, fidelity numerator and
    # guarded weight, the products of its parties'.
    branch = _outer(np.array((traces, terms[0], terms[1], guarded)).swapaxes(0, 1))
    norm = branch[3]
    # Each party's outcome states and, after them, the same scaled by the
    # weak pair and turned by its Pauli: one gather of the packed reals and
    # one multiply by their signs times the weak pair of each (D1^2 = 1.0,
    # its last entry, for the unturned half). One more gather per party and
    # one product kron the two parties' complex states of both halves.
    scale = pair.take(_STATE_SCALE, axis=1) * _STATE_SIGN
    states = (packed.reshape(2, -1, 16).take(_STATE_GATHER, axis=2) * scale).view(complex)
    kron = states[0].take(_KRON_SOURCES[0], axis=1) * states[1].take(_KRON_SOURCES[1], axis=1)
    halves = kron.reshape(-1, 2, 16, 4, 4).swapaxes(0, 1)
    # A complex state over a real weight is its real and imaginary parts
    # each times the weight's reciprocal, as complex division forms it.
    corrected = halves[1]
    corrected.view(float)[...] *= np.reciprocal(norm)[:, :, None, None]
    return totals, _Branches(halves[0], branch[0], branch[1], corrected, branch[2] / norm, norm == _INF)


def _row_inputs(rows, groups: int) -> np.ndarray:
    """The inputs of an (N, 4) array of input rows [pop_a, phase_a, pop_b,
    phase_b] as `_fold` takes them: the (2, groups, N / groups, 2, 2)
    party-major stack, Alice's first, of `groups` equal contiguous groups
    of rows, so each party's inputs are contiguous. Raises ValueError when
    the rows do not split into that many groups."""
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    if n % groups:
        raise ValueError(f"{n} input rows do not split into {groups} equal groups")
    columns = rows.T
    return _input_densities(columns[0::2], columns[1::2]).reshape(2, groups, n // groups, 2, 2)


def _fold_and_correct(dist: np.ndarray, scenario: Scenario, q_ws, rows, owned: bool) -> list:
    """Every branch of an (N, 4) array of input rows [pop_a, phase_a,
    pop_b, phase_b] over one distributed pair stack of `scenario` or a
    stack of them (`_fold`'s groups), folded once with its references and
    corrected at each entry of `q_ws` (a float, or one value per row): one
    pair (totals, branches) per entry, made once every entry is checked.
    With `owned` the branches are a `_Branches` whose arrays the caller
    owns (`_correct_branches`); without, they are None, no branch is
    formed and the totals come from `_party_totals` alone.
    """
    rho = _row_inputs(rows, _groups(dist))
    pairs = [_weak_pairs(q_w, scenario, len(rows)) for q_w in q_ws]
    # Only the owned states read the fold after the factors: a totals-only
    # call frees it, its largest array, before its totals, so its
    # references go into the fold's own array and leave with it. An owned
    # call keeps the fold, and takes its references as their own product,
    # which at one row costs fewer numpy calls.
    packed, reference = (_fold(dist, rho), _references(rho)) if owned else _fold(dist, rho, references=True)
    # The inputs are folded: free them before the factors.
    del rho
    factors = [_party_factors(packed, reference, pair) for pair in pairs]
    # The traces are taken after the factors, as the input average takes them.
    traces = packed[..., 0] + packed[..., 1]
    if owned:
        return [_correct_branches(traces, *part, pair, packed) for part, pair in zip(factors, pairs)]
    del packed, reference
    return [(_party_totals(traces, *part)[0], None) for part in factors]


def _node_integrands(dist: np.ndarray, scenario: Scenario, q_ws, rho: np.ndarray, references: np.ndarray) -> np.ndarray:
    """The input average's two integrands (`_party_integrand`), the
    fidelity and the success, at each node and each entry of `q_ws`, as a
    (2, q_w, state, node) array, over one distributed pair stack of
    `scenario` or a (G, 2, 4, 4) stack of them. A q_w is a float or one
    value per state, and every entry is checked before any work.

    Each state is a `distribute` state, so both parties fold through one
    map (`_fold`) and a node's integrands are the same for Alice and Bob,
    bit for bit: they are taken once, for one party, and each input average
    is the square of its mean. The mirror fact this rests on is pinned by
    `tests/test_kernel.py::test_bob_fold_map_is_alices_on_distributed_states`.
    `rho` holds the node states every state shares and `references` their
    packed references (`_references`), as `metrics._node_states` caches
    them, as one party's (1, 1, n, 2, 2) stack. Neither is written to.

    One fold takes the nodes, and every q_w is contracted at once: the
    weights and fidelity numerators per outcome (`_party_factors`), then
    both integrands at each node. Each step is elementwise or a
    contraction over a fixed axis in a fixed order, so a value does not
    depend on the other q_w or states.
    """
    groups = _groups(dist)
    # Each q_w's weak pair, one row per state: (q_w, state, 4).
    pairs = np.empty((len(q_ws), groups, 4))
    for row, q_w in zip(pairs, q_ws):
        row[...] = _weak_pairs(q_w, scenario, groups)
    # The packed states, (state, node, outcome, entry).
    packed = _fold(dist, rho).reshape(groups, -1, 4, 4)
    # Every state shares the nodes' references; each q_w's weak pair against
    # (q_w, state, node).
    weight, numerator = _party_factors(packed, references, pairs.reshape(len(pairs), groups, 1, 4))
    # The fold is the call's largest array. The traces are taken after the
    # factors, so one array fewer of their size is alive beside it, and it
    # is freed before the integrands.
    trace = packed[..., 0] + packed[..., 1]
    del packed
    return _party_integrand(trace, weight, numerator)


def _run_rows(dist: np.ndarray, scenario: Scenario, q_w, rows) -> _Branches:
    """Every branch for an (N, 4) array of input rows [pop_a, phase_a,
    pop_b, phase_b] over one distributed state of `scenario`, or a stack of
    G states for G equal contiguous groups of rows, corrected at q_w (a
    float, or a sequence with one value per row). The caller owns every
    array of the result."""
    ((_, branches),) = _fold_and_correct(dist, scenario, (q_w,), rows, owned=True)
    return branches


def _row_totals(dist: np.ndarray, scenario: Scenario, q_ws, rows) -> list:
    """The (N,) total_success, total_fidelity and postselected_fidelity of
    the input rows of `_run_rows` at each q_w of `q_ws` (`_party_totals`),
    from one fold that forms no branch."""
    return [totals for totals, _ in _fold_and_correct(dist, scenario, q_ws, rows, owned=False)]


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
    (2, 3) pair with `correction_ops(j, i, ...)` and `apply_correction`; a
    branch that raises `DegenerateBranchError` is degenerate, with weight
    0. This is the direct construction on the composed state, sharing no
    code with the kernel's per-party fold and correction; `run_protocol`
    gets the same branches from the kernel, and the tests hold the two
    against each other, which checks the kernel's factorization.
    """
    if total.shape != (64, 64):
        raise ValueError("enumerate_branches expects the 6-qubit composed state")
    scenario.check_q_w(q_w)
    # Row block k of the projection stack gives the (2, 3) state of branch k.
    proj = _branch_contractions().reshape(16, 4, 64)
    rec = proj @ total @ proj.conj().swapaxes(-1, -2)
    reference = kron(alice_in.density(), bob_in.density())
    out = []
    for (i, j), recovered in zip(_BRANCH_INDICES, rec):
        joint = float(np.trace(recovered).real)
        try:
            corrected, weight = apply_correction(recovered, *correction_ops(j, i, q_w, scenario.situation))
        except DegenerateBranchError:
            out.append(BranchOutcome(i, j, joint, recovered, None, 0.0, None, True))
            continue
        fidelity = float(np.trace(reference @ corrected).real)
        out.append(BranchOutcome(i, j, joint, recovered, corrected, weight, fidelity))
    return tuple(out)


def _single_q_w(q_w, caller: str):
    """One weak strength as `caller` takes it: a float or int as given,
    any other scalar (a numpy scalar, a 0-d array) as its float; a
    sequence raises ValueError."""
    # np.ndim is the slow part of this check, so a float or int skips it.
    if isinstance(q_w, (float, int)):
        return q_w
    if np.ndim(q_w):
        raise ValueError(f"{caller}: q_w must be a single value, got shape {np.shape(q_w)}")
    return float(q_w)


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
    q_w = _single_q_w(q_w, "run_protocol")
    dist, eam_success = distribute(scenario, p)
    rows = [[alice_in.pop0, alice_in.phase, bob_in.pop0, bob_in.phase]]
    ((totals, branches),) = _fold_and_correct(dist, scenario, (q_w,), rows, owned=True)
    return ProtocolResult(
        scenario=scenario,
        p=p,
        q_w=q_w,
        eam_success=eam_success,
        branches=branches.outcomes(),
        total_success=totals[0].item(),
        total_fidelity=totals[1].item(),
        postselected_fidelity=totals[2].item(),
    )
