"""Input-averaged fidelity, closed forms, and entropies.

The input average integrates over the input population with a fixed
Gauss-Legendre rule: 64 nodes for `average_fidelity` and the sweep, 32
for verify. The node count is internal, not part of the API."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import _check_unit
from .linalg import hermitian_eigenvalues, partial_trace
from .protocol import Scenario, _row_totals, _single_q_w, distribute

__all__ = [
    "OracleValue",
    "average_fidelity",
    "closed_form",
    "closed_form_names",
    "von_neumann_entropy",
    "entanglement_entropy_bob",
]

_EIG_CUT = 1e-12


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

    Both inputs are drawn from the same population distribution (uniform
    over [0, 1]) and every branch quantity factorizes into independent
    per-party pieces, so the two-party average is the square of the
    single-party population integral. With equal inputs the joint
    branch-weighted fidelity is exactly that single-party mean squared,
    which makes the node values sqrt-exact and the quadrature free of any
    cross-party coupling. Phases drop out of every factor, so only the
    population is integrated. Degenerate branches add nothing to a node's
    value; the result is NaN when every branch of some node is degenerate.
    """
    q_w = _single_q_w(q_w, "average_fidelity")
    dist, _ = distribute(scenario, p)
    return _average_fidelities(dist, scenario, (q_w,))[0]


def _average_fidelities(dist: np.ndarray, scenario: Scenario, q_ws, points: int = 64, extra=None):
    """`average_fidelity` at each of several q_w over one distributed state,
    or over each state of a (G, 16, 16) stack, by the `points`-node
    Gauss-Legendre rule: the nodes as equal input rows, one group of them
    per state, folded and corrected at each q_w by `_row_totals`, so a
    value does not depend on the other q_w or states. A q_w is a float or
    one value per state.

    Returns the average at each q_w: a float for one state, a list of G
    floats for a stack. `extra` input rows are folded after each group's
    nodes, and their totals come back too, as (averages, totals) with each
    q_w's (success, fidelity, postselected) as (G, len(extra)) arrays.
    """
    nodes, weights = _nodes_weights(points)
    groups, k = len(dist) if dist.ndim == 3 else 1, len(nodes)
    rows = np.zeros((k, 4))
    rows[:, 0] = rows[:, 2] = nodes
    if extra is not None:
        rows = np.concatenate((rows, extra))
    size = len(rows)
    q_rows = [q_w if isinstance(q_w, (float, int)) else np.repeat(q_w, size) for q_w in q_ws]
    found = _row_totals(dist, scenario, q_rows, np.tile(rows, (groups, 1)) if groups > 1 else rows)
    averages = []
    for _, tf, _ in found:
        # Per-node total fidelities, NaN at a node whose branches are all
        # degenerate; the NaN carries through to the average.
        roots = np.sqrt(np.maximum(tf.reshape(groups, size)[:, :k], 0.0))
        accs = [float(np.dot(weights, root)) for root in roots]
        # acc * acc, which libm's pow, behind acc ** 2, can round apart from.
        averages.append([acc * acc for acc in accs] if dist.ndim == 3 else accs[0] * accs[0])
    if extra is None:
        return averages
    return averages, [tuple(t.reshape(groups, size)[:, k:] for t in parts) for parts in found]


_FORMS: dict[str, tuple] = {
    "g_t_I": (
        lambda p, q: (1.0 - q / (2.0 - p)) ** 2,
        "(1 - q_w/(2-p))^2",
    ),
    "g_t_II": (
        lambda p, q: (((1.0 - q) ** 2 + (1.0 - p) ** 2) / (1.0 + (1.0 - p) ** 2)) ** 2,
        "(((1-q_w)^2 + (1-p)^2) / (1 + (1-p)^2))^2",
    ),
    "f_av_unprot_I": (
        lambda p, q: (2.0 - p / 2.0 + math.sqrt(1.0 - p)) ** 2 / 9.0,
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
    try:
        fn, ref = _FORMS[name]
    except KeyError:
        raise ValueError(f"unknown closed form {name!r}, have {closed_form_names()}") from None
    _check_unit("p", p)
    _check_unit("q_w", q_w)
    return OracleValue(name=name, value=float(fn(p, q_w)), formula_ref=ref)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 von Neumann entropy; eigenvalues below 1e-12 are dropped."""
    eigs = hermitian_eigenvalues(rho)
    eigs = eigs[eigs > _EIG_CUT]
    # + 0.0 folds -0.0 into 0.0 so serialized output never shows "-0".
    return float(-np.sum(eigs * np.log2(eigs))) + 0.0


def entanglement_entropy_bob(channel_state: np.ndarray) -> float:
    """Entropy of Bob's half of the 4-qubit resource state, which is the
    entanglement between the two parties.

    Qubits are ordered (1, 2, 3, 4). Bob holds qubits 2 and 4: qubit 2
    receives Alice's teleported state and qubit 4 is the one he
    Bell-measures with his input. The reduction keeps indices 1 and 3.
    """
    if channel_state.shape != (16, 16):
        raise ValueError("expected a 4-qubit channel state")
    return von_neumann_entropy(partial_trace(channel_state, [1, 3]))
