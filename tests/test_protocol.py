"""Pipeline checks against the closed-form branch references in
bqtsim.oracles plus the contract examples: resource preparation, noisy
distribution, Bell projection, correction, and the assembled run."""
import math
import warnings

import numpy as np
import pytest

from bqtsim import oracles
from bqtsim.channels import DegenerateBranchError, WeakVariant
from bqtsim.linalg import SX, SZ, DensityMatrix, kron, partial_trace
from bqtsim.protocol import (
    _BELL_KETS,
    RESOURCE,
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
    return kron(alice.density().mat, bob.density().mat)


# ------------------------------------------------------------ resource


def test_prepare_channel_support_pattern():
    rho = prepare_channel()
    support = (0, 3, 12, 15)
    for r in range(16):
        for c in range(16):
            want = 0.25 if (r in support and c in support) else 0.0
            assert abs(rho.mat[r, c] - want) < 1e-14


def test_prepare_channel_pairs_are_bell():
    rho = prepare_channel()
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    np.testing.assert_allclose(partial_trace(rho, [0, 1]).mat, bell, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, [2, 3]).mat, bell, atol=1e-14)


def test_resource_constant_is_read_only():
    np.testing.assert_array_equal(RESOURCE.mat, prepare_channel().mat)
    assert not RESOURCE.mat.flags.writeable
    with pytest.raises(ValueError):
        RESOURCE.mat[0, 0] = 1.0
    with pytest.raises(ValueError):
        RESOURCE.mat *= 2.0
    with pytest.raises(ValueError):
        RESOURCE.mat.setflags(write=True)
    # Runs read it but never write through it.
    run_protocol(Scenario.UNPROTECTED_ALL, 0.4, 0.0, QubitInput(0.3), QubitInput(0.6))
    np.testing.assert_array_equal(RESOURCE.mat, prepare_channel().mat)


# -------------------------------------------------------- distribution


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_distribute_matches_closed_form(scenario):
    for p in np.linspace(0.0, 1.0, 21):
        p = float(p)
        got, _ = distribute(scenario, p)
        want = oracles.distributed_closed(scenario, p)
        np.testing.assert_allclose(got.mat, want.mat, atol=1e-12)


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
        purity = float(np.trace(got.mat @ got.mat).real)
        assert abs(purity - 1.0) < 1e-12


# --------------------------------------------------------- composition


def test_compose_total_product_structure():
    rng = np.random.default_rng(17)
    alice, bob = random_inputs(rng)
    channel, _ = distribute(Scenario.RECOVERY_ADC, 0.3)
    total = compose_total(alice, channel, bob)
    assert total.dim == 64
    assert abs(total.trace() - 1.0) < 1e-12
    purity = float(np.trace(total.mat @ total.mat).real)
    assert abs(purity - 1.0) < 1e-10
    np.testing.assert_allclose(partial_trace(total, [0]).mat, alice.density().mat, atol=1e-12)
    np.testing.assert_allclose(partial_trace(total, [5]).mat, bob.density().mat, atol=1e-12)
    np.testing.assert_allclose(partial_trace(total, [1, 2, 3, 4]).mat, channel.mat, atol=1e-12)


def test_compose_total_rejects_wrong_dim():
    with pytest.raises(ValueError):
        compose_total(QubitInput(0.5), QubitInput(0.5).density(), QubitInput(0.5))


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
    m_a, m_b = correction_ops(1, 3, 0.0, WeakVariant.SQRT_DIAG)
    np.testing.assert_allclose(m_a, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(m_b, SX, atol=1e-15)
    m_a, _ = correction_ops(2, 1, 0.0, WeakVariant.LINEAR_DIAG)
    np.testing.assert_allclose(m_a, SZ, atol=1e-15)


def test_correction_ops_hand_product():
    # index 4, q_w = 0.75, sqrt family: sigma_x sigma_z . diag(1/2, 1)
    _, m_b = correction_ops(1, 4, 0.75, WeakVariant.SQRT_DIAG)
    want = SX @ SZ @ np.diag([0.5, 1.0])
    np.testing.assert_allclose(m_b, want, atol=1e-15)
    np.testing.assert_allclose(m_b, np.array([[0.0, -1.0], [0.5, 0.0]]), atol=1e-15)


def test_correction_ops_weak_factor_acts_first():
    # U . m_w differs from m_w . U for index 3; pin the order.
    m_a, _ = correction_ops(3, 1, 0.5, WeakVariant.LINEAR_DIAG)
    np.testing.assert_allclose(m_a, SX @ np.diag([0.5, 1.0]), atol=1e-15)
    assert np.max(np.abs(m_a - np.diag([0.5, 1.0]) @ SX)) > 0.1


def test_correction_ops_index_range():
    with pytest.raises(ValueError):
        correction_ops(0, 1, 0.0, WeakVariant.SQRT_DIAG)
    with pytest.raises(ValueError):
        correction_ops(1, 5, 0.0, WeakVariant.SQRT_DIAG)


def test_apply_correction_passthrough():
    rng = np.random.default_rng(23)
    alice, bob = random_inputs(rng)
    joint = DensityMatrix(0.25 * target_product(alice, bob), normalized=False)
    m_a, m_b = correction_ops(1, 1, 0.0, WeakVariant.SQRT_DIAG)
    corrected, weight = apply_correction(joint, m_a, m_b)
    assert abs(weight - 0.25) < 1e-13
    np.testing.assert_allclose(corrected.mat, target_product(alice, bob), atol=1e-12)


def test_apply_correction_degenerate_raises():
    dead = DensityMatrix(np.zeros((4, 4), dtype=complex), normalized=False)
    m_a, m_b = correction_ops(1, 1, 0.0, WeakVariant.SQRT_DIAG)
    with pytest.raises(DegenerateBranchError):
        apply_correction(dead, m_a, m_b)
    # Nonzero input annihilated by a maximal-strength weak measurement.
    excited = DensityMatrix(np.diag([0.25, 0, 0, 0]).astype(complex), normalized=False)
    m_a, m_b = correction_ops(1, 1, 1.0, WeakVariant.SQRT_DIAG)
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
        np.testing.assert_allclose(b.corrected.mat, want, atol=1e-12)
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
                b.recovered.mat,
                oracles.recovered_closed(scenario, i, j, p, alice, bob),
                atol=1e-12,
            )
            np.testing.assert_allclose(b.corrected.mat, corrected, atol=1e-12)


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
        left = partial_trace(b.corrected, [0]).mat
        right = partial_trace(b.corrected, [1]).mat
        np.testing.assert_allclose(b.corrected.mat, kron(left, right), atol=1e-10)


def test_suppression_point_every_branch():
    rng = np.random.default_rng(47)
    for scenario in PROTECTED:
        for p in (0.2, 0.55, 0.9):
            alice, bob = random_inputs(rng)
            res = run_protocol(scenario, p, p, alice, bob)
            want = target_product(alice, bob)
            for b in res.branches:
                np.testing.assert_allclose(b.corrected.mat, want, atol=1e-10)
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
            np.testing.assert_allclose(b.corrected.mat, want, atol=1e-12)


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


def test_qubit_input_validation():
    with pytest.raises(ValueError):
        QubitInput(-0.2)
    with pytest.raises(ValueError):
        QubitInput(1.2)
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            QubitInput(0.5, phase)
    rho = QubitInput(0.36, 0.5).density().mat
    assert abs(rho[0, 0] - 0.36) < 1e-15
    assert abs(rho[1, 1] - 0.64) < 1e-15
    assert abs(rho[1, 0] - 0.48 * np.exp(0.5j)) < 1e-15
