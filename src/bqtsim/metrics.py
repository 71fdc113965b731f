"""Input-averaged fidelity, closed forms, and entropies.

The input average integrates over the input population with a fixed
Gauss-Legendre rule: 64 nodes for `average_fidelity` and the sweep, 32
for verify. The node count is internal, not part of the API. The two
inputs are independent and every branch quantity is a product of one
factor per party, so the average is the product of two one-party
integrals. On every distributed state the two are equal, bit for bit:
the damping is mirror-symmetric, so Bob's fold map equals Alice's
(`protocol._fold_maps`), and the average is the square of one. The
success averages the same way, from a second integrand of the same fold:
a party's success is the same at every input, so its input average is the
success at any input. This module holds only the quadrature: the nodes and
weights, the weighted sums over the nodes and their squares. The
integrands at the nodes come from the kernel (`protocol._node_integrands`),
which never forms a branch.

The distributed state is the product of its two Bell pairs, and Bob holds
one qubit of each, so his entropy is the sum of two one-qubit entropies:
`entanglement_entropy_bob` takes both 2x2 states off the pair stack and
their eigenvalues in closed form, and builds no 16x16 or 4x4 state and
makes no LAPACK call. Given a stack of distributed states it takes every
state's 2x2 states at once, so a curve or a verify check costs one pass
of array arithmetic, not one per point.

Each closed form is written once, as a function in `_FORMS`.
`closed_form` evaluates it at one point on Python floats, and
`_closed_forms` on broadcast float arrays, so a check over a grid makes
one call per form, not one per point."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import _check_unit, _check_units
from .linalg import _hermitian_part, _refuse_nonfinite, hermitian_eigenvalues
from .protocol import Scenario, _input_densities, _node_integrands, _references, _single_q_w, distribute

__all__ = [
    "OracleValue",
    "average_fidelity",
    "closed_form",
    "closed_form_names",
    "von_neumann_entropy",
    "entanglement_entropy_bob",
]


# Gauss-Legendre nodes cost an eigenproblem, which at 64 points takes longer
# than the averaging itself. Programs use a handful of node counts, and the
# key is the count alone, so the cache stays small however many points are
# swept. Every caller shares the cached arrays, so they are read-only.
@lru_cache(maxsize=8)
def _nodes_weights(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The `points`-node Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(points)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The node states and their references do not depend on p, q_w or the
# distributed state, so every input average with the same node count shares
# one stack of them: after its first call a sweep item, each p of a sweep
# and each verify check skip forming the inputs and taking their references.
@lru_cache(maxsize=8)
def _node_states(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The input states of the `points`-node input average and their
    packed class references (`protocol._references` with `classes`), as
    two read-only arrays that every state of a fold shares
    (`protocol._node_integrands`).

    Every input is one party's: on a `distribute` state both parties fold
    through the same map (`protocol._fold`), so the node states are folded
    once, for Alice and Bob alike, and one outcome per Z-partner class,
    outcomes 1 and 3. The inputs are the (1, 1, n, 2, 2) stack of the
    nodes, and the references are (1, n, 2, 4)."""
    inputs = _input_densities(_nodes_weights(points)[0]).reshape(1, 1, points, 2, 2)
    references = _references(inputs, classes=True)
    inputs.flags.writeable = references.flags.writeable = False
    return inputs, references


@dataclass(frozen=True)
class OracleValue:
    """A closed-form number together with the formula it came from."""

    name: str
    value: float
    formula_ref: str


def average_fidelity(scenario: Scenario, p: float, q_w: float) -> float:
    """Input-averaged two-party fidelity at one parameter point, with one
    weak strength q_w (a sequence raises ValueError), by a 64-node
    Gauss-Legendre rule over the input population.

    Both inputs are drawn independently from the same population
    distribution (uniform over [0, 1]), and every branch quantity is a
    product of one factor per party, so the total fidelity at inputs
    (a, b) is G_A(a) G_B(b), where a party's G = sum_k t_k n_k / w_k over
    its four outcomes (trace, fidelity numerator and success weight), and
    the average is the product of the two one-party integrals of G. On
    the state `distribute` returns, Bob's G equals Alice's bit for bit
    (`protocol._fold_maps`), so the average is the square of one integral.
    Phases drop out of every factor, so only the population is integrated.
    A party outcome that is annihilated adds nothing to its G, and the
    result is NaN when every outcome of either party is annihilated at
    some node (`protocol._node_integrands`).
    """
    q_w = _single_q_w(q_w, "average_fidelity")
    dist, _ = distribute(scenario, p)
    return _average_fidelities(dist, scenario, (q_w,))[0][0]


def _average_fidelities(dist: np.ndarray, scenario: Scenario, q_ws, points: int = 64) -> tuple[list, list]:
    """`average_fidelity` and the input-averaged total success at each of
    several q_w over one distributed pair stack, or over each state of a
    (G, 2, 4, 4) stack, by the `points`-node Gauss-Legendre rule. A q_w is
    a float or one value per state.

    Each state is one `distribute` returned, so both parties' integrands
    are the same, bit for bit (`protocol._fold_maps`). The kernel gives
    that one party's two integrands, the fidelity and the success, at every
    node and q_w from one fold of the nodes, shared by every state
    (`protocol._node_integrands`), against the one-party input stack and
    references that every call with the same node count shares
    (`_node_states`, formed on the first such call in a process). The
    weighted sum of each over the nodes is the party's mean, and each
    average is the square of that mean, the product of Alice's and Bob's
    equal means. A party's success is the same at every input, so its mean
    is that success, to rounding. Each step is elementwise or a reduction
    over a fixed axis in a fixed order, so a value does not depend on the
    other q_w or states, nor on whether the inputs were cached.

    Returns (f_avs, g_avs), each a list of the averages at each q_w: a
    float for one state, a list of G floats for a stack.
    """
    integrands = _node_integrands(dist, scenario, q_ws, *_node_states(points))
    # One party's means at each (integrand, q_w, state); the other party's
    # are the same.
    means = np.add.reduce(integrands * _nodes_weights(points)[1], axis=-1)
    if dist.ndim == 3:
        means = means[..., 0]
    f_avs, g_avs = (means * means).tolist()
    return f_avs, g_avs


_FORMS: dict[str, tuple] = {
    "g_t_I": (
        # 1 - q/(2-p) summed as (1-p) + (1-q), both exact near 1, so it does
        # not cancel as p and q_w approach 1.
        lambda p, q: (((1.0 - p) + (1.0 - q)) / (2.0 - p)) ** 2,
        "(1 - q_w/(2-p))^2",
    ),
    "g_t_II": (
        lambda p, q: (((1.0 - q) ** 2 + (1.0 - p) ** 2) / (1.0 + (1.0 - p) ** 2)) ** 2,
        "(((1-q_w)^2 + (1-p)^2) / (1 + (1-p)^2))^2",
    ),
    "f_av_unprot_I": (
        lambda p, q: (2.0 - p / 2.0 + np.sqrt(1.0 - p)) ** 2 / 9.0,
        "(2 - p/2 + sqrt(1-p))^2 / 9",
    ),
    "f_av_unprot_II": (
        lambda p, q: (3.0 - 2.0 * p + p * p) ** 2 / 9.0,
        "(3 - 2p + p^2)^2 / 9",
    ),
    "g_eam_I": (
        lambda p, q: (2.0 - p) ** 2 / 4.0,
        "(2-p)^2 / 4",
    ),
    "g_eam_II": (
        lambda p, q: (1.0 + (1.0 - p) ** 2) ** 2 / 4.0,
        "(1 + (1-p)^2)^2 / 4",
    ),
}


def closed_form_names() -> tuple[str, ...]:
    return tuple(sorted(_FORMS))


def closed_form(name: str, p: float, q_w: float = 0.0) -> OracleValue:
    """Evaluate a named closed-form figure of merit.

    g_t_* are total correction success probabilities of the two protected
    scenarios, g_eam_* the post-selection probabilities, f_av_unprot_* the
    input-averaged fidelities of the two unprotected baselines. A p or
    q_w outside [0, 1], NaN included, raises ValueError.
    """
    fn, ref = _form(name)
    _check_unit("p", p)
    _check_unit("q_w", q_w)
    return OracleValue(name=name, value=float(fn(p, q_w)), formula_ref=ref)


def _form(name: str) -> tuple:
    """The (function, formula) of a named closed form; ValueError naming
    the forms there are for an unknown name."""
    if name not in _FORMS:
        raise ValueError(f"unknown closed form {name!r}, have {closed_form_names()}")
    return _FORMS[name]


def _closed_forms(name: str, p, q_w=0.0) -> np.ndarray:
    """The values of `closed_form` over p and q_w broadcast against each
    other as float arrays, from one evaluation of the same formula: what
    a check over a grid calls in place of a loop of scalar calls. A value
    outside [0, 1], NaN included, raises `closed_form`'s ValueError for the
    least such p, then q_w (`channels._check_units`).

    numpy squares a float array with one multiply, where `closed_form`'s
    Python `** 2` calls libm's pow, so a value can differ from the scalar
    view's by 1 ulp."""
    fn = _form(name)[0]
    p, q_w = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q_w, dtype=float))
    _check_units("p", p)
    _check_units("q_w", q_w)
    return fn(p, q_w)


def _entropies(eigs: np.ndarray) -> np.ndarray:
    """Base-2 entropy -sum lambda log2 lambda over the last axis of an
    array of eigenvalues, a term of lambda <= 0 counting as 0. Each row
    is summed on its own, so its entropy does not depend on the rows
    beside it."""
    logs = np.log2(np.where(eigs > 0.0, eigs, 1.0))
    # + 0.0 folds -0.0 into 0.0 so serialized output never shows "-0".
    return -np.add.reduce(eigs * logs, axis=-1) + 0.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 von Neumann entropy -sum lambda log2 lambda over the nonzero
    eigenvalues of the state rho (`linalg.hermitian_eigenvalues` clamps
    tiny negative ones to 0); of a (k, n, n) stack of states, that of
    their product, the sum of theirs."""
    eigs = hermitian_eigenvalues(rho).ravel()
    # Zero terms are left out, not summed: from 8 terms on, numpy's
    # pairwise sum would group the others differently around them.
    return float(_entropies(eigs[eigs > 0.0]))


def entanglement_entropy_bob(pairs: np.ndarray) -> float | np.ndarray:
    """Entropy of Bob's half of the distributed resource, which is the
    entanglement between the two parties, from its (2, 4, 4) pair stack
    (rho_12, rho_34) as `distribute` returns it: a float. Of a (G, 2, 4, 4)
    stack of pair stacks, each state's entropy, as a (G,) array with the
    bits of one call per state.

    Bob holds qubits 2 and 4, the second qubit of each pair: qubit 2
    receives Alice's teleported state and qubit 4 is the one he
    Bell-measures with his input. His state is the product of one qubit
    of each pair, so its entropy is the sum of the two qubits' entropies.
    A qubit's eigenvalues come in closed form from its Hermitian part
    h = [[a, b], [b*, d]]: with half = (a - d)/2 and gap = hypot(half, |b|)
    - |half|, they are max(a, d) + gap and min(a, d) - gap. On every state
    `distribute` returns b is exactly 0, so gap is 0 and the eigenvalues
    are the diagonal, the bits LAPACK's `eigvalsh` gives.

    A NaN or infinite entry anywhere in `pairs`, traced out or not, raises
    `hermitian_eigenvalues`' ValueError before the trace, so no warning
    comes first. A stack then takes the closed form on arrays, after
    `hermitian_eigenvalues`' other checks: a qubit off Hermitian by more
    than 1e-10 in any entry is refused, and so is one whose trace
    overflowed to infinity, with no overflow warning first. A single state
    takes the common case first: when both its qubits are diagonal and real
    with a diagonal in [0, 1], their eigenvalues are the diagonal, read on
    Python floats. Any other single state takes the stack's path, which gives a
    valid one the same bits and a bad one its error, so which path a state
    takes never shows.
    """
    if pairs.ndim not in (3, 4) or pairs.shape[-3:] != (2, 4, 4):
        raise ValueError("expected the (2, 4, 4) pair stack of a distributed state, or a (G, 2, 4, 4) stack of them")
    _refuse_nonfinite(pairs)
    # Finite entries can sum to infinity; `_hermitian_part` refuses that
    # qubit, so the overflow needs no warning first.
    with np.errstate(over="ignore"):
        qubits = pairs.reshape(-1, 2, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    if pairs.ndim == 3:
        # Only diagonal qubits are read on floats: Python's abs of a complex
        # is libm's hypot, which differs from numpy's in the last bit on
        # about a third of values, so an off-diagonal |b| would show the path.
        eigs = []
        for (a, b), (c, d) in qubits[0].tolist():
            if b or c or a.imag or d.imag or not (0.0 <= a.real <= 1.0 and 0.0 <= d.real <= 1.0):
                break
            eigs += max(a.real, d.real), min(a.real, d.real)
        else:
            return float(_entropies(np.array(eigs)))
    h = _hermitian_part(qubits)
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    half = (a - d) / 2.0
    gap = np.hypot(half, np.abs(h[..., 0, 1])) - np.abs(half)
    entropies = _entropies(np.stack((np.maximum(a, d) + gap, np.minimum(a, d) - gap), axis=-1).reshape(-1, 4))
    return entropies if pairs.ndim == 4 else float(entropies[0])
