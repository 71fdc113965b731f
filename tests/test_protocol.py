"""Pipeline checks against the closed-form branch references in
bqtsim.oracles plus the contract examples: resource preparation, noisy
distribution, Bell projection, correction, and the assembled run."""
import dataclasses
import itertools
import math
import re
import warnings
from functools import reduce

import numpy as np
import pytest

from bqtsim import oracles
from bqtsim.metrics import entanglement_entropy_bob, von_neumann_entropy
from bqtsim.channels import (
    DegenerateBranchError,
    adc_kraus,
    apply_channel,
    eam_postselect,
)
from bqtsim.linalg import SX, SZ, hermitian_eigenvalues, kron, partial_trace
from bqtsim.protocol import (
    _ADC_MONOMIALS,
    _BELL_KETS,
    RESOURCE,
    BranchOutcome,
    ProtocolResult,
    QubitInput,
    Scenario,
    apply_correction,
    compose_total,
    correction_ops,
    distribute,
    enumerate_branches,
    prepare_channel,
    run_protocol,
)

ALL_SCENARIOS = tuple(Scenario)
PROTECTED = tuple(s for s in Scenario if s.protected)
UNPROTECTED = tuple(s for s in Scenario if not s.protected)


def random_inputs(rng):
    return (
        QubitInput(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi))),
        QubitInput(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi))),
    )


def target_product(alice, bob):
    return kron(alice.density(), bob.density())


# ------------------------------------------------------------ resource


def test_prepare_channel_support_pattern():
    rho = prepare_channel()
    support = (0, 3, 12, 15)
    for r in range(16):
        for c in range(16):
            want = 0.25 if (r in support and c in support) else 0.0
            assert abs(rho[r, c] - want) < 1e-14


def test_prepare_channel_pairs_are_bell():
    rho = prepare_channel()
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    np.testing.assert_allclose(partial_trace(rho, [0, 1]), bell, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, [2, 3]), bell, atol=1e-14)


def test_resource_constant_is_read_only():
    # RESOURCE is the two pairs' states from the integer Bell table times
    # 1/2, exactly; prepare_channel builds their product from the circuit,
    # whose 1/sqrt(2) amplitudes round.
    pair = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2
    exact = np.array([pair, pair], dtype=complex).tobytes()
    assert RESOURCE.shape == (2, 4, 4)
    assert RESOURCE.tobytes() == exact
    assert np.max(np.abs(np.kron(*RESOURCE) - prepare_channel())) <= 1e-15
    assert not RESOURCE.flags.writeable
    with pytest.raises(ValueError):
        RESOURCE[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        np.multiply(RESOURCE, 2.0, out=RESOURCE)
    with pytest.raises(ValueError):
        RESOURCE.setflags(write=True)
    # Runs read it but never write through it.
    run_protocol(Scenario.UNPROTECTED_ALL, 0.4, 0.0, QubitInput(0.3), QubitInput(0.6))
    assert RESOURCE.tobytes() == exact


# -------------------------------------------------------- distribution


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_distribute_matches_closed_form(scenario):
    for p in np.linspace(0.0, 1.0, 21):
        p = float(p)
        got, _ = distribute(scenario, p)
        want = oracles.distributed_closed(scenario, p)
        assert got.shape == want.shape == (2, 4, 4)
        for pair, (got_pair, want_pair) in enumerate(zip(got, want)):
            np.testing.assert_allclose(got_pair, want_pair, atol=1e-12, err_msg=f"p={p!r} pair {pair}")


def test_distribute_success_probabilities():
    for p in np.linspace(0.0, 1.0, 21):
        p = float(p)
        _, g1 = distribute(Scenario.RECOVERY_ADC, p)
        assert abs(g1 - (2 - p) ** 2 / 4) < 1e-12
        _, g2 = distribute(Scenario.ALL_ADC, p)
        assert abs(g2 - (1 + (1 - p) ** 2) ** 2 / 4) < 1e-12
        for scenario in UNPROTECTED:
            _, g = distribute(scenario, p)
            assert g == 1.0


def test_distribute_specific_values():
    _, g1 = distribute(Scenario.RECOVERY_ADC, 0.5)
    assert abs(g1 - 0.5625) < 1e-14
    _, g2 = distribute(Scenario.ALL_ADC, 0.5)
    assert abs(g2 - 0.390625) < 1e-14


def test_distribute_protected_state_is_pure():
    for scenario in PROTECTED:
        got, _ = distribute(scenario, 0.6)
        for pair in got:
            purity = float(np.trace(pair @ pair).real)
            assert abs(purity - 1.0) < 1e-12


def kraus_lifts(scenario, p, qubits=range(4)):
    """Every lift of the damping Kraus operators to the register of the
    channel qubits `qubits` (all four by default), built with np.kron from
    adc_kraus, the first noisy qubit's choice varying slowest; the
    no-decay lift alone when protected."""
    k0, k1 = adc_kraus(p)
    noisy = (k0,) if scenario.protected else (k0, k1)
    per_qubit = [noisy if q in scenario.noisy_qubits else (np.eye(2, dtype=complex),) for q in qubits]
    return np.array([reduce(np.kron, ops) for ops in itertools.product(*per_qubit)])


REFERENCE_PS = sorted({0.0, 1e-12, 0.37, 1.0 - 1e-9, 1.0} | {float(p) for p in np.linspace(0.0, 1.0, 51)})


def kraus_reference(scenario, p, state, qubits):
    """The channel primitives on `state`, a state of the channel qubits
    `qubits`, through their kron-built lifts: the damped state and its
    success probability, 1.0 when bare."""
    lifts = kraus_lifts(scenario, p, qubits)
    if scenario.protected:
        return eam_postselect(state, lifts[0])
    return apply_channel(state, lifts), 1.0


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_distribute_equals_kraus_reference_bit_for_bit(scenario):
    # distribute applies each pair's lifts as monomial maps; the channel
    # primitives acting on that pair's kron-built 2-qubit lifts are its
    # reference, to the last bit of each pair, and the success probability
    # is the product of the two pairs'.
    for p in REFERENCE_PS:
        got, got_prob = distribute(scenario, p)
        (first, first_prob), (second, second_prob) = (
            kraus_reference(scenario, p, RESOURCE[k], (2 * k, 2 * k + 1)) for k in (0, 1)
        )
        assert got.shape == (2, 4, 4)
        assert got[0].tobytes() == first.tobytes(), f"{scenario.value} p={p!r}"
        assert got[1].tobytes() == second.tobytes(), f"{scenario.value} p={p!r}"
        want_prob = np.float64(first_prob * second_prob)
        assert np.float64(got_prob).tobytes() == want_prob.tobytes(), f"{scenario.value} p={p!r}"


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_distributed_state_is_the_product_of_its_pair_marginals(scenario):
    # The resource is two Bell pairs and every noise map acts on one qubit,
    # so carrying the two pairs loses nothing: their product matches the
    # channel primitives on the 16x16 resource through the 4-qubit lifts,
    # state and success probability, within 1e-15 (the largest seen is
    # 3.3e-16).
    for p in REFERENCE_PS:
        pairs, prob = distribute(scenario, p)
        whole, whole_prob = kraus_reference(scenario, p, np.kron(*RESOURCE), range(4))
        assert np.max(np.abs(np.kron(*pairs) - whole)) <= 1e-15, f"{scenario.value} p={p!r}"
        assert abs(prob - whole_prob) <= 1e-15, f"{scenario.value} p={p!r}"


# The grid of the stacked-distribute tests: the interior and the edges, p
# close below 1, a tiny normal p, the smallest subnormal one and -0.0, whose
# sqrt keeps its sign on the one-p path.
STACK_PS = [float(p) for p in np.linspace(0.0, 1.0, 51)] + [1.0 - 10.0**-k for k in range(1, 16)] + [1e-300, 5e-324, -0.0]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_distribute_of_a_sequence_has_the_bits_of_one_call_per_p(scenario):
    pairs, probs = distribute(scenario, STACK_PS)
    one = [distribute(scenario, p) for p in STACK_PS]
    assert pairs.shape == (len(STACK_PS), 2, 4, 4) and probs.shape == (len(STACK_PS),)
    assert probs.dtype == np.float64
    assert pairs.tobytes() == np.stack([state for state, _ in one]).tobytes()
    assert probs.tobytes() == np.array([prob for _, prob in one]).tobytes()
    # One p still gives one pair stack and a Python float.
    state, prob = distribute(scenario, 0.37)
    assert state.shape == (2, 4, 4) and type(prob) is float


@pytest.mark.parametrize(
    "ps, shown",
    [
        ([0.2, math.nan, 1.5, -0.3, -0.1], "-0.3"),
        ([0.2, math.nan, 1.5], "1.5"),
        ([0.5, math.nan], "nan"),
        ((0.1, -0.0, -1e-300), "-1e-300"),
    ],
)
def test_distribute_of_a_sequence_refuses_the_least_bad_p(ps, shown, monkeypatch):
    # Every p is checked before any arithmetic: the first step after the
    # range check, the square root of the factor table, must not run.
    monkeypatch.setattr(np, "sqrt", lambda *args: pytest.fail("arithmetic before the range check"))
    message = rf"^decay probability p={re.escape(shown)} outside \[0, 1\]$"
    for scenario in ALL_SCENARIOS:
        with pytest.raises(ValueError, match=message):
            distribute(scenario, ps)


def test_distribute_refuses_a_p_of_two_axes():
    with pytest.raises(ValueError, match=r"one p or a 1-D sequence of them, got shape \(2, 1\)$"):
        distribute(Scenario.ALL_ADC, [[0.1], [0.2]])


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_distribute_of_a_sequence_returns_fresh_arrays(scenario):
    ps = [0.0, 0.4, 1.0]
    pairs, probs = distribute(scenario, ps)
    want = distribute(scenario, ps)
    for array, other in zip((pairs, probs), want):
        assert array.flags.writeable
        assert not any(np.shares_memory(array, shared) for shared in (*_ADC_MONOMIALS[scenario], RESOURCE, other))
    # Writing to one result changes no later one.
    pairs[...] = 7.0
    probs[...] = 7.0
    again = distribute(scenario, ps)
    assert all(got.tobytes() == kept.tobytes() for got, kept in zip(again, want))


def test_empty_stacks_give_empty_results():
    # A stack of no states is a stack like any other: no eigenvalues, no
    # entropies, no distributed states.
    assert hermitian_eigenvalues(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3)
    assert entanglement_entropy_bob(np.zeros((0, 2, 4, 4), dtype=complex)).shape == (0,)
    for scenario in ALL_SCENARIOS:
        pairs, probs = distribute(scenario, [])
        assert pairs.shape == (0, 2, 4, 4) and probs.shape == (0,)


# --------------------------------------------------------- composition


def test_compose_total_product_structure():
    rng = np.random.default_rng(17)
    alice, bob = random_inputs(rng)
    pairs, _ = distribute(Scenario.RECOVERY_ADC, 0.3)
    total = compose_total(alice, pairs, bob)
    assert total.shape == (64, 64)
    assert abs(np.trace(total) - 1.0) < 1e-12
    purity = float(np.trace(total @ total).real)
    assert abs(purity - 1.0) < 1e-10
    np.testing.assert_allclose(partial_trace(total, [0]), alice.density(), atol=1e-12)
    np.testing.assert_allclose(partial_trace(total, [5]), bob.density(), atol=1e-12)
    np.testing.assert_allclose(partial_trace(total, [1, 2, 3, 4]), np.kron(*pairs), atol=1e-12)


def test_compose_total_rejects_wrong_dim():
    with pytest.raises(ValueError):
        compose_total(QubitInput(0.5), QubitInput(0.5).density(), QubitInput(0.5))


# Each state-taking function with a state of the right row count but too
# few columns, and the start of the error it must raise itself.
NON_SQUARE = {
    "compose_total": (
        lambda m: compose_total(QubitInput(0.5), m, QubitInput(0.5)), (16, 4), "compose_total expects"
    ),
    "enumerate_branches": (
        lambda m: enumerate_branches(m, Scenario.RECOVERY_ADC, 0.2, QubitInput(0.5), QubitInput(0.5)),
        (64, 4),
        "enumerate_branches expects",
    ),
    "entanglement_entropy_bob": (entanglement_entropy_bob, (2, 4, 2), r"expected the \(2, 4, 4\) pair stack"),
    "apply_channel": (
        lambda m: apply_channel(m, kraus_lifts(Scenario.UNPROTECTED_ALL, 0.3)), (16, 4), "Kraus operators of shape"
    ),
    "eam_postselect": (
        lambda m: eam_postselect(m, kraus_lifts(Scenario.RECOVERY_ADC, 0.3)[0]), (16, 4), "lifted operator shape"
    ),
    "partial_trace": (lambda m: partial_trace(m, [0]), (16, 4), "partial_trace expects a square"),
    "hermitian_eigenvalues": (hermitian_eigenvalues, (16, 4), "hermitian_eigenvalues expects a square"),
    "von_neumann_entropy": (von_neumann_entropy, (16, 4), "hermitian_eigenvalues expects a square"),
}


@pytest.mark.parametrize("name", NON_SQUARE)
def test_non_square_state_is_rejected(name):
    call, shape, message = NON_SQUARE[name]
    with pytest.raises(ValueError, match=message):
        call(np.zeros(shape, dtype=complex))


# ---------------------------------------------------- Bell projection


def bell_projectors():
    return [np.outer(v, v.conj()) for v in _BELL_KETS]


def test_bell_projectors_complete_orthogonal_idempotent():
    projs = bell_projectors()
    acc = sum(projs)
    np.testing.assert_allclose(acc, np.eye(4), atol=1e-14)
    for i, pi in enumerate(projs):
        assert abs(np.trace(pi).real - 1.0) < 1e-14
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-14)
        for j, pj in enumerate(projs):
            if i != j:
                np.testing.assert_allclose(pi @ pj, np.zeros((4, 4)), atol=1e-14)


def test_bell_projector_action_on_00():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    out = bell_projectors()[0] @ ket00
    np.testing.assert_allclose(out, np.array([0.5, 0, 0, 0.5]), atol=1e-14)


# ----------------------------------------------------------- correction


def test_correction_ops_trivials():
    m_a, m_b = correction_ops(1, 3, 0.0, "I")
    np.testing.assert_allclose(m_a, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(m_b, SX, atol=1e-15)
    m_a, _ = correction_ops(2, 1, 0.0, "II")
    np.testing.assert_allclose(m_a, SZ, atol=1e-15)


def test_correction_ops_hand_product():
    # index 4, q_w = 0.75, sqrt family: sigma_x sigma_z . diag(1/2, 1)
    _, m_b = correction_ops(1, 4, 0.75, "I")
    want = SX @ SZ @ np.diag([0.5, 1.0])
    np.testing.assert_allclose(m_b, want, atol=1e-15)
    np.testing.assert_allclose(m_b, np.array([[0.0, -1.0], [0.5, 0.0]]), atol=1e-15)


def test_correction_ops_weak_factor_acts_first():
    # U . m_w differs from m_w . U for index 3; pin the order.
    m_a, _ = correction_ops(3, 1, 0.5, "II")
    np.testing.assert_allclose(m_a, SX @ np.diag([0.5, 1.0]), atol=1e-15)
    assert np.max(np.abs(m_a - np.diag([0.5, 1.0]) @ SX)) > 0.1


def test_correction_ops_index_range():
    with pytest.raises(ValueError):
        correction_ops(0, 1, 0.0, "I")
    with pytest.raises(ValueError):
        correction_ops(1, 5, 0.0, "I")


def test_apply_correction_passthrough():
    rng = np.random.default_rng(23)
    alice, bob = random_inputs(rng)
    joint = 0.25 * target_product(alice, bob)
    m_a, m_b = correction_ops(1, 1, 0.0, "I")
    corrected, weight = apply_correction(joint, m_a, m_b)
    assert abs(weight - 0.25) < 1e-13
    np.testing.assert_allclose(corrected, target_product(alice, bob), atol=1e-12)


def test_apply_correction_degenerate_raises():
    dead = np.zeros((4, 4), dtype=complex)
    m_a, m_b = correction_ops(1, 1, 0.0, "I")
    with pytest.raises(DegenerateBranchError):
        apply_correction(dead, m_a, m_b)
    # Nonzero input annihilated by a maximal-strength weak measurement.
    excited = np.diag([0.25, 0, 0, 0]).astype(complex)
    m_a, m_b = correction_ops(1, 1, 1.0, "I")
    with pytest.raises(DegenerateBranchError):
        apply_correction(excited, m_a, m_b)


# ----------------------------------------------------------- branches


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_branch_probabilities_sum_to_one(scenario):
    rng = np.random.default_rng(29)
    # Bare runs apply no weak measurement, so none of their weight is lost
    # either: total success is 1 across the whole p range.
    grid = (0.0, 0.35, 0.8) if scenario.protected else np.linspace(0.0, 1.0, 51)
    for p in grid:
        p = float(p)
        alice, bob = random_inputs(rng)
        q = 0.0 if not scenario.protected else 0.25
        res = run_protocol(scenario, p, q, alice, bob)
        assert abs(sum(b.joint_prob for b in res.branches) - 1.0) < 1e-10
        if not scenario.protected:
            assert abs(res.total_success - 1.0) < 1e-10


def test_branch_prob_closed_form_corner():
    # pop0 = 1 on both sides: outcome (1,1) carries 1/(4-2p)^2.
    for p in (0.0, 0.4, 0.9):
        res = run_protocol(Scenario.RECOVERY_ADC, p, 0.0, QubitInput(1.0), QubitInput(1.0))
        b11 = res.branches[0]
        assert (b11.alice_index, b11.bob_index) == (1, 1)
        assert abs(b11.joint_prob - 1.0 / (4 - 2 * p) ** 2) < 1e-12
    res = run_protocol(Scenario.RECOVERY_ADC, 0.0, 0.0, QubitInput(1.0), QubitInput(1.0))
    assert abs(res.branches[0].joint_prob - 1 / 16) < 1e-14


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_noiseless_protocol_is_exact(scenario):
    rng = np.random.default_rng(31)
    alice, bob = random_inputs(rng)
    res = run_protocol(scenario, 0.0, 0.0, alice, bob)
    want = target_product(alice, bob)
    for b in res.branches:
        assert not b.degenerate
        np.testing.assert_allclose(b.corrected, want, atol=1e-12)
        assert abs(b.branch_fidelity - 1.0) < 1e-12
    assert abs(res.total_success - 1.0) < 1e-10
    assert abs(res.total_fidelity - 1.0) < 1e-10


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_branches_match_all_closed_forms(scenario):
    rng = np.random.default_rng(37)
    for p in (0.15, 0.5, 0.85):
        alice, bob = random_inputs(rng)
        q = 0.0 if not scenario.protected else float(rng.uniform(0.0, 0.9))
        res = run_protocol(scenario, p, q, alice, bob)
        row = np.array([[alice.pop0, alice.phase, bob.pop0, bob.phase]])
        rows = (
            oracles.branch_success_rows(scenario, p, q, row)[0],
            oracles.branch_fidelity_rows(scenario, p, q, row)[0],
            oracles.corrected_rows(scenario, p, q, row)[0],
        )
        for b, success, fid, corrected in zip(res.branches, *rows):
            i, j = b.alice_index, b.bob_index
            assert abs(b.joint_prob - oracles.joint_prob_closed(scenario, i, j, p, alice, bob)) < 1e-12
            assert abs(b.success_weight - success) < 1e-12
            assert abs(b.branch_fidelity - fid) < 1e-12
            np.testing.assert_allclose(
                b.recovered,
                oracles.recovered_closed(scenario, i, j, p, alice, bob),
                atol=1e-12,
            )
            np.testing.assert_allclose(b.corrected, corrected, atol=1e-12)


@pytest.mark.parametrize("oracle", (oracles.joint_prob_closed, oracles.recovered_closed))
def test_closed_branch_oracles_reject_outcome_index_out_of_range(oracle):
    inp = QubitInput(0.3, 0.4)
    for i, j, bad in ((0, 1, 0), (1, 0, 0), (5, 2, 5), (3, 5, 5)):
        with pytest.raises(ValueError, match=f"outcome index must be in 1..4, got {bad}"):
            oracle(Scenario.RECOVERY_ADC, i, j, 0.3, inp, inp)


def test_branch_quantities_phase_independent():
    rng = np.random.default_rng(41)
    pop_a, pop_b = 0.3, 0.65
    base = run_protocol(
        Scenario.ALL_ADC, 0.4, 0.2, QubitInput(pop_a, 0.0), QubitInput(pop_b, 0.0)
    )
    for _ in range(5):
        pha, phb = rng.uniform(0, 2 * math.pi, size=2)
        res = run_protocol(
            Scenario.ALL_ADC, 0.4, 0.2, QubitInput(pop_a, float(pha)), QubitInput(pop_b, float(phb))
        )
        for b0, b in zip(base.branches, res.branches):
            assert abs(b.joint_prob - b0.joint_prob) < 1e-12
            assert abs(b.success_weight - b0.success_weight) < 1e-12
            assert abs(b.branch_fidelity - b0.branch_fidelity) < 1e-12


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_corrected_outputs_factorize(scenario):
    rng = np.random.default_rng(43)
    alice, bob = random_inputs(rng)
    q = 0.0 if not scenario.protected else 0.35
    res = run_protocol(scenario, 0.45, q, alice, bob)
    for b in res.branches:
        left = partial_trace(b.corrected, [0])
        right = partial_trace(b.corrected, [1])
        np.testing.assert_allclose(b.corrected, kron(left, right), atol=1e-10)


def test_suppression_point_every_branch():
    rng = np.random.default_rng(47)
    for scenario in PROTECTED:
        for p in (0.2, 0.55, 0.9):
            alice, bob = random_inputs(rng)
            res = run_protocol(scenario, p, p, alice, bob)
            want = target_product(alice, bob)
            for b in res.branches:
                np.testing.assert_allclose(b.corrected, want, atol=1e-10)
                assert abs(b.branch_fidelity - 1.0) < 1e-10
            assert abs(res.total_fidelity - 1.0) < 1e-10


def test_branch_success_example_value():
    # First branch at p=0.5, q_w=0.2, balanced inputs.
    res = run_protocol(Scenario.RECOVERY_ADC, 0.5, 0.2, QubitInput(0.5), QubitInput(0.5))
    per_party = (0.5 * 0.8 + 0.5 * 0.5) / 3.0
    assert abs(res.branches[0].success_weight - per_party**2) < 1e-12


def test_unprotected_rejects_weak_measurement():
    for scenario in UNPROTECTED:
        with pytest.raises(ValueError):
            run_protocol(scenario, 0.3, 0.1, QubitInput(0.5), QubitInput(0.5))
        # The closed forms apply the same rule.
        for oracle in (oracles.branch_success_rows, oracles.corrected_rows):
            with pytest.raises(ValueError, match="q_w = 0"):
                oracle(scenario, 0.3, 0.1, np.array([[0.5, 0.0, 0.5, 0.0]]))
        inp = QubitInput(0.5)
        total = compose_total(inp, distribute(scenario, 0.3)[0], inp)
        with pytest.raises(ValueError):
            enumerate_branches(total, scenario, 0.1, inp, inp)


def test_bare_closed_forms_at_zero_probability_branches():
    # unprotected-all at p = 1 empties Alice's outcomes 1 and 2 when her
    # pop0 is 0, and 3 and 4 when it is 1. The pipeline marks those branches
    # degenerate; the closed forms follow the protected rule: a NaN
    # fidelity and a NaN corrected state. Nothing may warn on the way. At
    # pop0 = 1e-12 outcomes 1 and 2 live on a weight of about 1e-13, which
    # the closed forms must not lose to cancellation.
    scenario, bob = Scenario.UNPROTECTED_ALL, QubitInput(0.3, 0.7)
    for pop0, dead in ((0.0, (1, 2)), (1.0, (3, 4)), (1e-12, ())):
        alice = QubitInput(pop0, 0.4)
        row = np.array([[pop0, 0.4, bob.pop0, bob.phase]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_protocol(scenario, 1.0, 0.0, alice, bob)
            fidelity = oracles.branch_fidelity_rows(scenario, 1.0, 0.0, row)[0]
            corrected = oracles.corrected_rows(scenario, 1.0, 0.0, row)[0]
        for b, fid, want in zip(res.branches, fidelity, corrected):
            assert b.degenerate == (b.alice_index in dead)
            if b.degenerate:
                assert math.isnan(fid) and np.isnan(want).all()
                continue
            assert abs(b.branch_fidelity - fid) < 1e-12
            np.testing.assert_allclose(b.corrected, want, atol=1e-12)


def test_run_protocol_takes_one_q_w():
    """A sequence q_w raises run_protocol's own error, whatever its length;
    every kind of scalar runs and gives the float's branches, and a float
    or int is kept as given."""
    scenario, alice, bob = Scenario.RECOVERY_ADC, QubitInput(0.3, 0.4), QubitInput(0.8, 2.0)
    for q_w in ([0.2], np.array([0.2]), [0.2, 0.3], np.array([[0.2]]), ()):
        with pytest.raises(ValueError, match="run_protocol: q_w must be a single value"):
            run_protocol(scenario, 0.5, q_w, alice, bob)
    want = run_protocol(scenario, 0.5, 0.25, alice, bob)
    for q_w in (np.float64(0.25), np.array(0.25), np.float32(0.25)):
        res = run_protocol(scenario, 0.5, q_w, alice, bob)
        assert res.total_fidelity == want.total_fidelity
        assert all(a.corrected.tobytes() == b.corrected.tobytes() for a, b in zip(res.branches, want.branches))
    q_w = np.float64(0.25)
    assert run_protocol(scenario, 0.5, q_w, alice, bob).q_w is q_w
    res = run_protocol(scenario, 0.5, 1, alice, bob)
    assert type(res.q_w) is int
    assert res.total_success == run_protocol(scenario, 0.5, 1.0, alice, bob).total_success


@pytest.mark.parametrize("q_w", (np.array(0.2), np.float32(0.25)), ids=("0-d array", "float32"))
def test_run_protocol_stores_other_scalars_as_float(q_w):
    # ProtocolResult.q_w is documented as a float.
    res = run_protocol(Scenario.RECOVERY_ADC, 0.5, q_w, QubitInput(0.3, 0.4), QubitInput(0.8, 2.0))
    assert type(res.q_w) is float
    assert res.q_w == float(q_w)


def test_run_protocol_success_oracle_examples():
    res = run_protocol(Scenario.ALL_ADC, 0.4, 0.1, QubitInput(0.8, 0.3), QubitInput(0.2, 1.7))
    want = (1 - (2 * 0.1 - 0.01) / (1 + 0.36)) ** 2
    assert abs(res.total_success - want) < 1e-10
    for p in (0.1, 0.6):
        res = run_protocol(Scenario.RECOVERY_ADC, p, 0.0, QubitInput(0.4), QubitInput(0.9))
        assert abs(res.total_success - 1.0) < 1e-10
    assert abs(res.eam_success - (2 - 0.6) ** 2 / 4) < 1e-12


def test_fully_degenerate_corner():
    for scenario in PROTECTED:
        res = run_protocol(scenario, 1.0, 1.0, QubitInput(0.5), QubitInput(0.5))
        assert all(b.degenerate for b in res.branches)
        assert all(b.corrected is None for b in res.branches)
        assert res.total_success == 0.0
        assert math.isnan(res.total_fidelity)
        assert math.isnan(res.postselected_fidelity)
    # Partly degenerate: at p = 0.5, q_w = 1 with both inputs |0>, 12 of 16
    # branches die. They add 0 to total_fidelity, which is not renormalized,
    # so it equals the surviving success; the post-selected figure is 1.
    for scenario, survived in ((Scenario.RECOVERY_ADC, 1 / 9), (Scenario.ALL_ADC, 1 / 25)):
        res = run_protocol(scenario, 0.5, 1.0, QubitInput(1.0), QubitInput(1.0))
        assert sum(b.degenerate for b in res.branches) == 12
        assert abs(res.total_success - survived) <= 1e-15
        assert abs(res.total_fidelity - survived) <= 1e-15
        assert abs(res.postselected_fidelity - 1.0) <= 1e-15


def test_postselected_weighting_diagnostic():
    # Present alongside the probability weighting and generally different.
    res = run_protocol(Scenario.RECOVERY_ADC, 0.6, 0.2, QubitInput(0.3), QubitInput(0.8))
    assert 0.0 <= res.postselected_fidelity <= 1.0 + 1e-10
    assert 0.0 <= res.total_fidelity <= 1.0 + 1e-10
    assert abs(res.postselected_fidelity - res.total_fidelity) > 1e-6


def test_result_records_keep_their_fields_and_own_their_arrays():
    """The public result records keep their field names, in order, and
    stay mutable dataclasses that `dataclasses.replace` copies. No branch
    array of one run_protocol result shares memory with another result's,
    so writing into one result's corrected states leaves a fresh call's
    result as it was."""
    assert [f.name for f in dataclasses.fields(BranchOutcome)] == [
        "alice_index",
        "bob_index",
        "joint_prob",
        "recovered",
        "corrected",
        "success_weight",
        "branch_fidelity",
        "degenerate",
    ]
    assert [f.name for f in dataclasses.fields(ProtocolResult)] == [
        "scenario",
        "p",
        "q_w",
        "eam_success",
        "branches",
        "total_success",
        "total_fidelity",
        "postselected_fidelity",
    ]
    args = (Scenario.ALL_ADC, 0.37, 0.2, QubitInput(0.3, 1.1), QubitInput(0.6, 2.0))
    first, second = run_protocol(*args), run_protocol(*args)
    for record, field, value in ((first, "total_success", 0.5), (first.branches[0], "joint_prob", 0.25)):
        copy = dataclasses.replace(record, **{field: value})
        assert type(copy) is type(record) and getattr(copy, field) == value
        assert all(
            getattr(copy, f.name) is getattr(record, f.name) for f in dataclasses.fields(record) if f.name != field
        )
        setattr(record, field, value)
        assert getattr(record, field) == value
    arrays = [[a for b in res.branches for a in (b.recovered, b.corrected) if a is not None] for res in (first, second)]
    assert len(arrays[0]) == len(arrays[1]) == 32
    assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])
    want = [a.tobytes() for a in arrays[1]]
    for branch in first.branches:
        branch.corrected[...] = 7.0
    third = run_protocol(*args)
    assert [a.tobytes() for b in third.branches for a in (b.recovered, b.corrected)] == want


def test_qubit_input_validation():
    with pytest.raises(ValueError):
        QubitInput(-0.2)
    with pytest.raises(ValueError):
        QubitInput(1.2)
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            QubitInput(0.5, phase)
    rho = QubitInput(0.36, 0.5).density()
    assert abs(rho[0, 0] - 0.36) < 1e-15
    assert abs(rho[1, 1] - 0.64) < 1e-15
    assert abs(rho[1, 0] - 0.48 * np.exp(0.5j)) < 1e-15
