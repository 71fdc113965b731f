"""Input-averaged fidelity, closed forms, and entropies."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .linalg import DensityMatrix, hermitian_eigenvalues, partial_trace
from .protocol import Scenario, _correct_branches, _input_densities, _kron_batched, _recover, distribute

__all__ = [
    "QuadratureSpec",
    "OracleValue",
    "average_fidelity",
    "closed_form",
    "closed_form_names",
    "von_neumann_entropy",
    "entanglement_entropy_bob",
]

_EIG_CUT = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre quadrature over the input population in [0, 1] with
    `points` nodes."""

    points: int = 64

    def __post_init__(self) -> None:
        if self.points < 8:
            raise ValueError(f"points={self.points} too coarse, need at least 8")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = _nodes_weights(self.points)
        return nodes.copy(), weights.copy()


# Gauss-Legendre nodes cost an eigenproblem, which at 64 points takes longer
# than the averaging itself. Programs use a handful of node counts, and the
# key is the count alone, so the cache stays small however many points are
# swept.
@lru_cache(maxsize=8)
def _nodes_weights(points: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(points)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class OracleValue:
    """A closed-form number together with the formula it came from."""

    name: str
    value: float
    formula_ref: str


def average_fidelity(
    scenario: Scenario,
    p: float,
    q_w: float,
    quad: Optional[QuadratureSpec] = None,
) -> float:
    """Input-averaged two-party fidelity at one parameter point.

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
    dist, _ = distribute(scenario, p)
    return _average_fidelities(dist, scenario, (q_w,), quad)[0]


def _average_fidelities(
    dist: DensityMatrix, scenario: Scenario, q_ws, quad: Optional[QuadratureSpec] = None
) -> list:
    """`average_fidelity` at each of several q_w over one distributed state.

    The quadrature nodes are folded through the resource once, and each
    q_w corrects that same recovered stack, so a q_w's value does not
    depend on the others.
    """
    if quad is None:
        quad = QuadratureSpec()
    nodes, weights = quad.nodes_weights()
    rho = _input_densities(nodes)
    recovered, reference = _recover(dist.mat, rho, rho), _kron_batched(rho, rho)
    out = []
    for q_w in q_ws:
        # Per-node total fidelity, NaN at a node whose branches are all
        # degenerate; the NaN carries through to the average.
        tf = _correct_branches(recovered, scenario, q_w, reference).totals()[1]
        acc = float(np.dot(weights, np.sqrt(np.maximum(tf, 0.0))))
        out.append(acc * acc)
    return out


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
    input-averaged fidelities of the two unprotected baselines.
    """
    try:
        fn, ref = _FORMS[name]
    except KeyError:
        raise ValueError(f"unknown closed form {name!r}, have {closed_form_names()}") from None
    return OracleValue(name=name, value=float(fn(p, q_w)), formula_ref=ref)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 von Neumann entropy; eigenvalues below 1e-12 are dropped."""
    eigs = hermitian_eigenvalues(rho)
    eigs = eigs[eigs > _EIG_CUT]
    # + 0.0 folds -0.0 into 0.0 so serialized output never shows "-0".
    return float(-np.sum(eigs * np.log2(eigs))) + 0.0


def entanglement_entropy_bob(channel_state: DensityMatrix) -> float:
    """Entropy of Bob's half of the 4-qubit resource state, which is the
    entanglement between the two parties.

    Qubits are ordered (1, 2, 3, 4). Bob holds qubits 2 and 4: qubit 2
    receives Alice's teleported state and qubit 4 is the one he
    Bell-measures with his input. The reduction keeps indices 1 and 3.
    """
    if channel_state.dim != 16:
        raise ValueError("expected a 4-qubit channel state")
    return von_neumann_entropy(partial_trace(channel_state, [1, 3]))
