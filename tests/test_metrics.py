"""Quadrature averaging, closed-form registry, and entropy."""
import math

import numpy as np
import pytest

from bqtsim.linalg import DensityMatrix, kron, partial_trace
from bqtsim.metrics import (
    QuadratureSpec,
    average_fidelity,
    closed_form,
    closed_form_names,
    entanglement_entropy_bob,
    von_neumann_entropy,
)
from bqtsim.protocol import QubitInput, Scenario, _run_rows, distribute

from test_kernel import node_average, simpson


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# ---------------------------------------------------------- quadrature


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points=4)
    QuadratureSpec(points=8)


def test_quadrature_nodes_integrate_polynomials():
    x, w = QuadratureSpec(points=16).nodes_weights()
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(np.sum(w) - 1.0) < 1e-13
    assert abs(np.dot(w, x**3) - 0.25) < 1e-10


# ------------------------------------------------------ closed forms


def test_closed_form_known_values():
    assert abs(closed_form("g_t_I", 0.5, 0.5).value - 4 / 9) < 1e-14
    assert abs(closed_form("g_t_II", 0.0, 0.0).value - 1.0) < 1e-14
    assert abs(closed_form("f_av_unprot_I", 0.0).value - 1.0) < 1e-14
    assert abs(closed_form("f_av_unprot_I", 1.0).value - 0.25) < 1e-14
    assert abs(closed_form("f_av_unprot_II", 1.0).value - 4 / 9) < 1e-14
    assert abs(closed_form("g_eam_I", 0.5).value - 0.5625) < 1e-14
    assert abs(closed_form("g_eam_II", 0.5).value - 0.390625) < 1e-14


def test_closed_form_registry_surface():
    names = closed_form_names()
    assert set(names) == {
        "g_t_I",
        "g_t_II",
        "g_eam_I",
        "g_eam_II",
        "f_av_unprot_I",
        "f_av_unprot_II",
    }
    for name in names:
        ov = closed_form(name, 0.3, 0.1)
        assert ov.name == name
        assert ov.formula_ref.strip()
    with pytest.raises(ValueError):
        closed_form("no_such_form", 0.2)


# ------------------------------------------------------ average fidelity


def test_average_fidelity_suppression_grid():
    quad = QuadratureSpec(points=32)
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        for p in (0.0, 0.3, 0.7):
            assert abs(average_fidelity(scenario, p, p, quad) - 1.0) < 1e-9


def test_average_fidelity_unprotected_closed_forms():
    quad = QuadratureSpec(points=32)
    for p in np.linspace(0.0, 1.0, 11):
        p = float(p)
        got = average_fidelity(Scenario.UNPROTECTED_RECOVERY, p, 0.0, quad)
        assert abs(got - closed_form("f_av_unprot_I", p).value) < 1e-6
        got = average_fidelity(Scenario.UNPROTECTED_ALL, p, 0.0, quad)
        assert abs(got - closed_form("f_av_unprot_II", p).value) < 1e-6


def test_average_fidelity_rule_agreement():
    # The 32-node Gauss-Legendre rule against a 200-interval Simpson sum of
    # the same per-node totals.
    gl = average_fidelity(Scenario.RECOVERY_ADC, 0.5, 0.2, QuadratureSpec(points=32))
    simp = node_average(Scenario.RECOVERY_ADC, 0.5, 0.2, *simpson(200))
    assert abs(gl - simp) < 1e-8


def test_average_fidelity_quadrature_converged():
    for scenario, q in ((Scenario.ALL_ADC, 0.15), (Scenario.UNPROTECTED_ALL, 0.0)):
        f64 = average_fidelity(scenario, 0.6, q, QuadratureSpec(points=64))
        f128 = average_fidelity(scenario, 0.6, q, QuadratureSpec(points=128))
        assert abs(f64 - f128) < 1e-8


def test_average_fidelity_unprotected_rejects_weak_measurement():
    for scenario in (Scenario.UNPROTECTED_RECOVERY, Scenario.UNPROTECTED_ALL):
        with pytest.raises(ValueError, match="q_w = 0"):
            average_fidelity(scenario, 0.3, 0.1)


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_average_fidelity_factorizes_over_parties(scenario):
    # average_fidelity squares a one-party integral of sqrt(total_fidelity)
    # at equal inputs, which holds only while the two parties factorize.
    # Hold it against the explicit two-party double sum over every
    # (pop_a, pop_b) node pair, so a noise model that couples the parties
    # fails here.
    quad = QuadratureSpec(points=16)
    nodes, weights = quad.nodes_weights()
    pairs = np.array([[a, 0.0, b, 0.0] for a in nodes for b in nodes])
    pair_weights = np.outer(weights, weights).ravel()
    for p in (0.0, 0.4, 1.0):
        qs = sorted({0.0, p, min(p + 0.3, 1.0)}) if scenario.protected else [0.0]
        dist, _ = distribute(scenario, p)
        rows = _run_rows(dist, scenario, np.repeat(qs, len(pairs)), np.tile(pairs, (len(qs), 1)))
        joint = rows.totals()[1].reshape(len(qs), -1) @ pair_weights
        for q, want in zip(qs, joint):
            got = average_fidelity(scenario, p, q, quad)
            if math.isnan(want):
                assert math.isnan(got), f"p={p} q_w={q}"
            else:
                assert abs(got - want) <= 1e-13, f"p={p} q_w={q}"


def test_average_fidelity_degenerate_corner_is_nan():
    assert math.isnan(average_fidelity(Scenario.RECOVERY_ADC, 1.0, 1.0))


# -------------------------------------------------------------- entropy


def test_von_neumann_entropy_trivials():
    pure = QubitInput(0.3, 0.7).density()
    assert abs(von_neumann_entropy(pure)) < 1e-12
    maximal = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert abs(von_neumann_entropy(maximal) - 2.0) < 1e-12
    half = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert abs(von_neumann_entropy(half) - 1.0) < 1e-12


def test_entropy_bob_boundaries():
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        fresh, _ = distribute(scenario, 0.0)
        assert abs(entanglement_entropy_bob(fresh) - 2.0) < 1e-9
        dead, _ = distribute(scenario, 1.0)
        assert abs(entanglement_entropy_bob(dead)) < 1e-9


def test_entropy_bob_closed_forms_and_ordering():
    for p in np.linspace(0.0, 1.0, 21):
        p = float(p)
        s1 = entanglement_entropy_bob(distribute(Scenario.RECOVERY_ADC, p)[0])
        s2 = entanglement_entropy_bob(distribute(Scenario.ALL_ADC, p)[0])
        assert abs(s1 - 2 * binary_entropy(1 / (2 - p))) < 1e-9
        assert abs(s2 - 2 * binary_entropy(1 / (1 + (1 - p) ** 2))) < 1e-9
        assert s1 >= s2 - 1e-12
        if 0.05 < p < 0.95:
            assert s1 - s2 > 1e-9


def test_entropy_bob_rejects_wrong_dim():
    with pytest.raises(ValueError):
        entanglement_entropy_bob(QubitInput(0.5).density())


def test_entropy_bob_traces_the_kept_pair():
    # The reduced pair must be the two receiver-side qubits; tracing the
    # complementary pair of a fresh channel gives the same value, but a
    # mixed partner split does not.
    dist, _ = distribute(Scenario.RECOVERY_ADC, 0.4)
    kept = partial_trace(dist, [1, 3])
    assert abs(von_neumann_entropy(kept) - entanglement_entropy_bob(dist)) < 1e-12
    same_pair = partial_trace(dist, [0, 2])
    assert abs(von_neumann_entropy(same_pair) - entanglement_entropy_bob(dist)) < 1e-9
