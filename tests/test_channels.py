"""Damping Kraus pair, channel application, no-decay post-selection, weak
measurement operators."""
import functools
import itertools
import math

import numpy as np
import pytest

from bqtsim.channels import (
    AdcParams,
    DegenerateBranchError,
    WeakMeasurementParams,
    WeakVariant,
    adc_kraus,
    apply_channel,
    eam_postselect,
    weak_measurement_op,
)
from bqtsim.linalg import DensityMatrix, embed_op, kron


def pure(ket):
    """The projector |ket><ket| as a density matrix."""
    return DensityMatrix(np.outer(ket, ket.conj()))


def plus_state():
    return pure(np.array([1, 1], dtype=complex) / math.sqrt(2))


def completeness_error(ops):
    """max |sum_k K_k^dag K_k - I| of an (m, d, d) Kraus stack."""
    acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0)
    return float(np.max(np.abs(acc - np.eye(ops.shape[-1]))))


def test_kraus_limits():
    ops = adc_kraus(AdcParams(0.0))
    assert ops.shape == (2, 2, 2) and ops.dtype == complex
    k0, k1 = ops
    np.testing.assert_array_equal(k0, np.eye(2))
    np.testing.assert_array_equal(k1, np.zeros((2, 2)))
    k0, k1 = adc_kraus(AdcParams(1.0))
    np.testing.assert_array_equal(k0, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(k1, np.array([[0, 1], [0, 0]]))


def test_kraus_completeness():
    assert completeness_error(adc_kraus(AdcParams(0.3))) <= 1e-15
    rng = np.random.default_rng(5)
    for p in rng.uniform(0, 1, size=100):
        assert completeness_error(adc_kraus(AdcParams(float(p)))) <= 1e-12


def test_kraus_incomplete_set_rejected():
    # k0 alone is the post-selection operator, not a channel: it fails the
    # completeness sum and loses the decayed weight.
    ops = adc_kraus(AdcParams(0.5))[:1]
    assert completeness_error(ops) > 1e-12
    out = apply_channel(pure(np.array([0, 1], dtype=complex)), ops)
    assert abs(out.trace() - 0.5) < 1e-15


def test_adc_params_range():
    with pytest.raises(ValueError):
        AdcParams(-0.01)
    with pytest.raises(ValueError):
        AdcParams(1.01)


def test_apply_channel_limits():
    rho1 = pure(np.array([0, 1], dtype=complex))
    out = apply_channel(rho1, adc_kraus(AdcParams(0.0)))
    np.testing.assert_allclose(out.mat, rho1.mat, atol=1e-15)
    out = apply_channel(rho1, adc_kraus(AdcParams(1.0)))
    np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-15)


def test_apply_channel_damps_coherence():
    # Off-diagonals scale by sqrt(1-p), excited population by (1-p).
    p = 0.5
    out = apply_channel(plus_state(), adc_kraus(AdcParams(p)))
    assert abs(out.mat[0, 1] - math.sqrt(1 - p) / 2) < 1e-14
    assert abs(out.mat[1, 1] - (1 - p) / 2) < 1e-14
    assert abs(out.mat[0, 0] - (1 + p) / 2) < 1e-14


def test_apply_channel_preserves_density_properties():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        out = apply_channel(rho, adc_kraus(AdcParams(float(rng.uniform()))))
        out.assert_valid(tol=1e-10)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


@pytest.mark.parametrize("dim", (2, 16))
def test_apply_channel_equals_kraus_sum_loop(dim):
    rng = np.random.default_rng(7 + dim)
    k0, k1 = adc_kraus(AdcParams(0.35))
    # One damped qubit, or all 16 decay combinations on four.
    ops = [
        functools.reduce(np.kron, combo)
        for combo in itertools.product((k0, k1), repeat=dim.bit_length() - 1)
    ]
    for _ in range(5):
        rho = random_density(rng, dim)
        want = np.zeros((dim, dim), dtype=complex)
        for k in ops:
            want += k @ rho.mat @ k.conj().T
        got = apply_channel(rho, np.stack(ops))
        np.testing.assert_allclose(got.mat, want, rtol=0, atol=1e-15)
        assert got.normalized


def test_apply_channel_dim_mismatch():
    rho = plus_state()
    with pytest.raises(ValueError):
        apply_channel(DensityMatrix(kron(rho.mat, rho.mat)), adc_kraus(AdcParams(0.2)))
    with pytest.raises(ValueError):
        apply_channel(rho, adc_kraus(AdcParams(0.2))[:, :1])


def test_eam_postselect_single_qubit():
    p = 0.7
    k0, _ = adc_kraus(AdcParams(p))
    state, prob = eam_postselect(pure(np.array([0, 1], dtype=complex)), k0)
    assert abs(prob - (1 - p)) < 1e-14
    np.testing.assert_allclose(state.mat, np.diag([0.0, 1.0]), atol=1e-14)


def test_eam_postselect_bell_pair_grid():
    # One damped qubit of a Bell pair: success (2-p)/2, kept state pure.
    bell = pure(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    for p in np.linspace(0.0, 1.0, 51):
        p = float(p)
        k0, _ = adc_kraus(AdcParams(p))
        state, prob = eam_postselect(bell, embed_op(k0, [1], 2))
        assert abs(prob - (2 - p) / 2) < 1e-12
        want = np.array([1, 0, 0, math.sqrt(1 - p)], dtype=complex)
        want = np.outer(want, want) / (2 - p)
        np.testing.assert_allclose(state.mat, want, atol=1e-12)


def test_eam_postselect_no_noise_is_identity():
    bell = pure(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    k0, _ = adc_kraus(AdcParams(0.0))
    state, prob = eam_postselect(bell, embed_op(k0, [0], 2))
    assert prob == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(state.mat, bell.mat, atol=1e-14)


def test_eam_postselect_annihilated_branch_raises():
    k0, _ = adc_kraus(AdcParams(1.0))
    excited = pure(np.array([0, 1], dtype=complex))
    with pytest.raises(DegenerateBranchError):
        eam_postselect(excited, k0)


def test_weak_measurement_op_values():
    m = weak_measurement_op(WeakMeasurementParams(0.75, WeakVariant.SQRT_DIAG))
    np.testing.assert_allclose(m, np.diag([0.5, 1.0]), atol=1e-15)
    m = weak_measurement_op(WeakMeasurementParams(0.75, WeakVariant.LINEAR_DIAG))
    np.testing.assert_allclose(m, np.diag([0.25, 1.0]), atol=1e-15)
    m = weak_measurement_op(WeakMeasurementParams(0.0, WeakVariant.SQRT_DIAG))
    np.testing.assert_array_equal(m, np.eye(2))


def test_weak_measurement_params_range():
    with pytest.raises(ValueError):
        WeakMeasurementParams(-0.1, WeakVariant.SQRT_DIAG)
    with pytest.raises(ValueError):
        WeakMeasurementParams(1.1, WeakVariant.LINEAR_DIAG)
