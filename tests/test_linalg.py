"""Tensor-product plumbing: kron, partial trace, operator embedding,
eigenvalues. Partial trace and embedding are checked against brute-force
index-loop oracles written only here."""
import math

import numpy as np
import pytest

from bqtsim.linalg import (
    CNOT,
    HADAMARD,
    I2,
    SX,
    SZ,
    DensityMatrix,
    embed_op,
    hermitian_eigenvalues,
    kron,
    partial_trace,
)


def random_density(rng, n_qubits, rank=2):
    d = 1 << n_qubits
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


# ---------------------------------------------------------------- kron


def test_kron_identities():
    np.testing.assert_array_equal(kron(I2, I2), np.eye(4))
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    out = kron(p0, SX)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 1] = want[1, 0] = 1.0
    np.testing.assert_array_equal(out, want)


def test_kron_index_formula():
    # (A (x) B)[2i+k, 2j+l] = A[i,j] B[k,l] for 2x2 blocks.
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(0.7)]], dtype=complex)
    out = kron(k0, I2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(out[2 * i + k, 2 * j + l] - k0[i, j] * I2[k, l]) < 1e-15


# ------------------------------------------------------- partial trace


def brute_partial_trace(mat, keep, n):
    """Direct index-loop reduction, independent of the einsum path."""
    rest = [q for q in range(n) if q not in keep]
    dk, dr = 1 << len(keep), 1 << len(rest)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(keep_bits, rest_bits):
        idx = 0
        for q, bit in zip(keep, keep_bits):
            idx |= bit << (n - 1 - q)
        for q, bit in zip(rest, rest_bits):
            idx |= bit << (n - 1 - q)
        return idx

    def bits(x, width):
        return [(x >> (width - 1 - i)) & 1 for i in range(width)]

    for r in range(dk):
        for c in range(dk):
            for e in range(dr):
                out[r, c] += mat[
                    full_index(bits(r, len(keep)), bits(e, len(rest))),
                    full_index(bits(c, len(keep)), bits(e, len(rest))),
                ]
    return out


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ra = random_density(rng, 1)
        rb = random_density(rng, 2)
        total = DensityMatrix(kron(ra.mat, rb.mat))
        np.testing.assert_allclose(partial_trace(total, [0]).mat, ra.mat, atol=1e-12)
        np.testing.assert_allclose(partial_trace(total, [1, 2]).mat, rb.mat, atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    bell = DensityMatrix(np.outer(v, v.conj()))
    np.testing.assert_allclose(partial_trace(bell, [0]).mat, I2 / 2, atol=1e-15)
    np.testing.assert_allclose(partial_trace(bell, [1]).mat, I2 / 2, atol=1e-15)


def test_partial_trace_matches_brute_force():
    rng = np.random.default_rng(12)
    for keep in ([0], [2], [0, 3], [3, 1], [1, 2, 0]):
        rho = random_density(rng, 4, rank=3)
        got = partial_trace(rho, keep).mat
        np.testing.assert_allclose(got, brute_partial_trace(rho.mat, keep, 4), atol=1e-13)


def test_partial_trace_keep_order_swaps_factors():
    rng = np.random.default_rng(13)
    ra, rb = random_density(rng, 1), random_density(rng, 1)
    total = DensityMatrix(kron(ra.mat, rb.mat))
    fwd = partial_trace(total, [0, 1]).mat
    rev = partial_trace(total, [1, 0]).mat
    np.testing.assert_allclose(fwd, kron(ra.mat, rb.mat), atol=1e-13)
    np.testing.assert_allclose(rev, kron(rb.mat, ra.mat), atol=1e-13)


def test_partial_trace_preserves_trace_and_flag():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 3)
    scaled = DensityMatrix(0.37 * rho.mat, normalized=False)
    red = partial_trace(scaled, [1])
    assert not red.normalized
    assert abs(red.trace() - 0.37) < 1e-12


def test_partial_trace_input_errors():
    rho = random_density(np.random.default_rng(0), 2)
    with pytest.raises(ValueError):
        partial_trace(rho, [2])
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 0])
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    # The qubit count comes from the state, so a dimension that is not a
    # power of two has none.
    with pytest.raises(ValueError):
        partial_trace(DensityMatrix(np.eye(3, dtype=complex) / 3), [0])


# ------------------------------------------------------------ embed_op


def brute_embed(op, targets, n):
    """Action on basis kets, assembled entry by entry."""
    d = 1 << n
    out = np.zeros((d, d), dtype=complex)
    k = len(targets)
    for col in range(d):
        col_bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for pos, q in enumerate(targets):
            sub_col |= col_bits[q] << (k - 1 - pos)
        for sub_row in range(1 << k):
            row_bits = list(col_bits)
            for pos, q in enumerate(targets):
                row_bits[q] = (sub_row >> (k - 1 - pos)) & 1
            row = 0
            for q in range(n):
                row |= row_bits[q] << (n - 1 - q)
            out[row, col] += op[sub_row, sub_col]
    return out


def test_embed_single_qubit_matches_kron_chain():
    k0 = np.array([[1.0, 0.0], [0.0, 0.6]], dtype=complex)
    np.testing.assert_allclose(embed_op(k0, [0], 2), kron(k0, I2), atol=0)
    np.testing.assert_allclose(embed_op(k0, [1], 2), kron(I2, k0), atol=0)
    np.testing.assert_allclose(embed_op(k0, [1], 3), kron(kron(I2, k0), I2), atol=0)


def test_embed_identity_is_identity():
    np.testing.assert_array_equal(embed_op(np.eye(4, dtype=complex), [1, 3], 4), np.eye(16))


def test_embed_sigma_x_flips_target():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0  # |00>
    out = embed_op(SX, [0], 2) @ ket
    want = np.zeros(4, dtype=complex)
    want[2] = 1.0  # |10>
    np.testing.assert_allclose(out, want, atol=0)


def test_embed_matches_brute_force_including_order():
    rng = np.random.default_rng(21)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for targets in ([0, 2], [2, 0], [3, 1], [1, 3]):
        np.testing.assert_allclose(
            embed_op(op, targets, 4), brute_embed(op, targets, 4), atol=1e-13
        )


def test_embed_cnot_convention():
    # Control is the first listed target: |10> -> |11>.
    ket = np.zeros(4, dtype=complex)
    ket[2] = 1.0
    out = embed_op(CNOT, [0, 1], 2) @ ket
    assert abs(out[3] - 1.0) < 1e-15


def test_embed_preserves_unitarity():
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    lifted = embed_op(q, [1, 2], 4)
    np.testing.assert_allclose(lifted @ lifted.conj().T, np.eye(16), atol=1e-12)


def test_embed_input_errors():
    with pytest.raises(ValueError):
        embed_op(SX, [2], 2)
    with pytest.raises(ValueError):
        embed_op(SX, [0, 1], 3)  # 2x2 op, two targets
    with pytest.raises(ValueError):
        embed_op(CNOT, [1, 1], 3)


# ------------------------------------------------- eigenvalues, records


def test_hermitian_eigenvalues_trivials():
    np.testing.assert_allclose(
        hermitian_eigenvalues(DensityMatrix(np.eye(4, dtype=complex) / 4)), [0.25] * 4, atol=1e-14
    )
    pure = DensityMatrix(np.diag([1, 0, 0, 0]).astype(complex))
    vals = hermitian_eigenvalues(pure)
    np.testing.assert_allclose(vals, [1, 0, 0, 0], atol=1e-14)


def test_hermitian_eigenvalues_descending_sum_trace():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = random_density(rng, 3, rank=5)
        vals = hermitian_eigenvalues(rho)
        assert np.all(np.diff(vals) <= 1e-14)
        assert abs(np.sum(vals) - rho.trace()) < 1e-10
        assert np.all(vals >= 0.0)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    bad = DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), normalized=False)
    with pytest.raises(ValueError):
        hermitian_eigenvalues(bad)


def test_density_validation():
    rng = np.random.default_rng(41)
    random_density(rng, 2).assert_valid()
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]], dtype=complex)).assert_valid()
    with pytest.raises(ValueError):
        DensityMatrix(2.0 * np.eye(2, dtype=complex)).assert_valid()  # trace 4, flagged normalized
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex)).assert_valid()


def test_hadamard_and_gates_are_unitary():
    for g in (HADAMARD, SX, SZ, CNOT):
        np.testing.assert_allclose(g @ g.conj().T, np.eye(g.shape[0]), atol=1e-15)
