"""The batched branch kernel behind run_protocol and average_fidelity,
held against the direct 6-qubit path: enumerate_branches on the composed
state, and a per-node loop over it for the input average."""
import math

import numpy as np
import pytest

from bqtsim.metrics import QuadRule, QuadratureSpec, average_fidelity
from bqtsim.protocol import (
    QubitInput,
    Scenario,
    compose_total,
    distribute,
    enumerate_branches,
    prepare_channel,
    run_protocol,
)

BRANCH_TOL = 1e-14
AVERAGE_TOL = 1e-13


def draws(scenario, rng):
    """Edge-biased (p, q_w, alice, bob): p, q_w and both populations at 0
    and 1, q_w = p, plus continuous draws; phases are always random."""
    def inp(pop0):
        return QubitInput(pop0, float(rng.uniform(0.0, 2.0 * math.pi)))

    out = []
    for p in (0.0, 1.0, float(rng.uniform()), float(rng.uniform())):
        qs = (0.0, 1.0, p, float(rng.uniform())) if scenario.protected else (0.0,)
        for q in qs:
            for pa, pb in ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (float(rng.uniform()), 1.0)):
                out.append((p, q, inp(pa), inp(pb)))
    for _ in range(40):
        p = float(rng.uniform())
        q = float(rng.uniform()) if scenario.protected else 0.0
        out.append((p, q, inp(float(rng.uniform())), inp(float(rng.uniform()))))
    return out


def reference_branches(scenario, p, q_w, alice, bob):
    dist, _ = distribute(prepare_channel(), scenario, p)
    return enumerate_branches(compose_total(alice, dist, bob), scenario, p, q_w, alice, bob)


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_kernel_matches_reference_branches(scenario):
    rng = np.random.default_rng(53 + list(Scenario).index(scenario))
    degenerate_seen = 0
    for p, q, alice, bob in draws(scenario, rng):
        got = run_protocol(scenario, p, q, alice, bob).branches
        want = reference_branches(scenario, p, q, alice, bob)
        for g, w in zip(got, want):
            where = f"{scenario.value} p={p} q_w={q} ({g.alice_index},{g.bob_index})"
            assert (g.alice_index, g.bob_index) == (w.alice_index, w.bob_index)
            assert g.degenerate == w.degenerate, where
            assert abs(g.joint_prob - w.joint_prob) <= BRANCH_TOL, where
            assert abs(g.success_weight - w.success_weight) <= BRANCH_TOL, where
            assert np.max(np.abs(g.recovered.mat - w.recovered.mat)) <= BRANCH_TOL, where
            if w.degenerate:
                degenerate_seen += 1
                assert g.corrected is None and g.branch_fidelity is None
                continue
            assert abs(g.branch_fidelity - w.branch_fidelity) <= BRANCH_TOL, where
            assert np.max(np.abs(g.corrected.mat - w.corrected.mat)) <= BRANCH_TOL, where
    if scenario.protected:
        # q_w = 1 draws must reach the degenerate rule, or it goes untested.
        assert degenerate_seen > 0


def reference_average_fidelity(scenario, p, q_w, quad):
    """The per-node loop over the direct path."""
    nodes, weights = quad.nodes_weights()
    dist, _ = distribute(prepare_channel(), scenario, p)
    acc = 0.0
    for a, w in zip(nodes, weights):
        inp = QubitInput(float(a))
        branches = enumerate_branches(compose_total(inp, dist, inp), scenario, p, q_w, inp, inp)
        live = [b for b in branches if not b.degenerate]
        if not live:
            return float("nan")
        tf = float(sum(b.joint_prob * b.branch_fidelity for b in live))
        acc += w * math.sqrt(max(tf, 0.0))
    return acc * acc


RULES = tuple(
    QuadratureSpec(points=n, rule=rule)
    for rule in (QuadRule.GAUSS_LEGENDRE, QuadRule.SIMPSON)
    for n in (8, 64, 128)
)


@pytest.mark.parametrize("quad", RULES, ids=lambda q: f"{q.rule.value}-{q.points}")
def test_average_fidelity_matches_per_node_loop(quad):
    points = [
        (Scenario.RECOVERY_ADC, 0.45, 0.2),
        (Scenario.RECOVERY_ADC, 0.7, 1.0),
        (Scenario.ALL_ADC, 0.3, 0.3),
        (Scenario.ALL_ADC, 1.0, 0.6),
        (Scenario.UNPROTECTED_RECOVERY, 0.8, 0.0),
        (Scenario.UNPROTECTED_ALL, 0.0, 0.0),
        (Scenario.UNPROTECTED_ALL, 1.0, 0.0),
    ]
    for scenario, p, q in points:
        got = average_fidelity(scenario, p, q, quad)
        want = reference_average_fidelity(scenario, p, q, quad)
        assert abs(got - want) <= AVERAGE_TOL, f"{scenario.value} p={p} q_w={q}"


@pytest.mark.parametrize("quad", RULES, ids=lambda q: f"{q.rule.value}-{q.points}")
def test_average_fidelity_nan_matches_per_node_loop(quad):
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        assert math.isnan(average_fidelity(scenario, 1.0, 1.0, quad))
        assert math.isnan(reference_average_fidelity(scenario, 1.0, 1.0, quad))
