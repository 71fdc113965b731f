"""Dense linear algebra for small multi-qubit density matrices.

Qubit convention is big endian throughout: qubit 0 is the leftmost tensor
factor, so basis index b of an n-qubit register carries qubit q's bit at
position n-1-q. Systems stay small (at most 6 qubits, 64x64), so everything
is stored dense.

A state is a plain complex 2^n x 2^n ndarray. All functions are pure and
write to no argument. The states the package returns are fresh arrays or
views of stacks the caller owns; the one state it shares,
`protocol.RESOURCE`, is read-only, so threads can share it safely.

`__all__` is what the product path uses. `kron`, `embed_op`, `HADAMARD`,
`CNOT` and `partial_trace` are kept for the test references only: the
circuit-built resource (`protocol.prepare_channel`), the explicit
operators the tests hold the kernel against, and the reduced states they
hold its entropy against. `assert_density` is the tests' check of a
state.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "hermitian_eigenvalues",
    "I2",
    "SX",
    "SZ",
]

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
# Control on the first (leftmost) qubit, target on the second.
CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)

# Eigenvalues in [-EIG_CLAMP, 0) are treated as numerically zero.
EIG_CLAMP = 1e-10


def assert_density(
    m: np.ndarray, unit_trace: bool = True, tol: float = 1e-12, psd_tol: float = EIG_CLAMP
) -> None:
    """Assert that `m` is a density matrix: Hermitian, of unit trace (with
    `unit_trace`; an unnormalized branch state carries its probability as
    the trace) and positive semidefinite. The tests' check, never run on
    the product path, so inner loops stay cheap."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if herm_err > tol:
        raise ValueError(f"not Hermitian: max |m - m^dag| = {herm_err:g}")
    tr = complex(np.trace(m))
    if unit_trace:
        if abs(tr.real - 1.0) > tol or abs(tr.imag) > tol:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {tol}")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
    if lo < -psd_tol:
        raise ValueError(f"not positive semidefinite: min eigenvalue {lo:g}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two operators (or kets given as 2-D columns)."""
    return np.kron(a, b)


def _check_targets(targets: Sequence[int], n_qubits: int) -> None:
    seen = set()
    for q in targets:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
        if q in seen:
            raise ValueError(f"duplicate qubit index {q}")
        seen.add(q)


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all qubits of the square state `rho` not listed in `keep`.

    The result's qubit order follows the keep list, so keep=[3, 1] returns
    the (3, 1) marginal with qubit 3 as the leftmost factor. Trace is
    preserved. The result is a fresh array, also when `keep` lists every
    qubit in order and nothing is traced out.
    """
    keep = list(keep)
    dim = rho.shape[0]
    n_qubits = dim.bit_length() - 1
    if dim <= 0 or rho.shape != (dim, dim) or (1 << n_qubits) != dim:
        raise ValueError(f"partial_trace expects a square 2^n x 2^n state, got shape {rho.shape}")
    _check_targets(keep, n_qubits)
    if not keep:
        raise ValueError("keep list must not be empty")
    keep_set = set(keep)
    t = rho.reshape((2,) * (2 * n_qubits))
    row = list(range(n_qubits))
    # Traced qubits share one label between row and column axes.
    col = [q + n_qubits if q in keep_set else q for q in range(n_qubits)]
    out = [q for q in keep] + [q + n_qubits for q in keep]
    # With no label summed, einsum returns a view of rho.
    red = np.einsum(t, row + col, out).copy()
    d = 1 << len(keep)
    return red.reshape(d, d)


def embed_op(op: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Lift `op` to the full register, acting on `targets` in listed order.

    op's own qubit 0 lands on targets[0], and so on; identity everywhere
    else. Returns a 2^n x 2^n matrix.
    """
    targets = list(targets)
    _check_targets(targets, n_qubits)
    k = len(targets)
    if op.shape != (1 << k, 1 << k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target qubits")
    rest = [q for q in range(n_qubits) if q not in targets]
    full = np.kron(np.asarray(op, dtype=complex), np.eye(1 << (n_qubits - k), dtype=complex))
    # Axes currently run (targets..., rest...); permute into natural order.
    order = targets + rest
    row_perm = [order.index(q) for q in range(n_qubits)]
    col_perm = [n_qubits + ax for ax in row_perm]
    t = full.reshape((2,) * (2 * n_qubits)).transpose(row_perm + col_perm)
    return np.ascontiguousarray(t.reshape(1 << n_qubits, 1 << n_qubits))


def hermitian_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Real eigenvalues in descending order, of one (n, n) matrix or of
    each matrix of an (..., n, n) stack, on the last axis.

    Raises ValueError when the matrices are not square, when any entry is
    NaN or infinite (refused before any arithmetic, so no warning comes
    first), or when any matrix is off Hermitian by more than 1e-10 in any
    entry. Values in [-EIG_CLAMP, 0) are clamped to exactly 0 so
    downstream logs and entropies never see spurious negatives. An empty
    (0, n, n) stack gives an empty (0, n) array.
    """
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"hermitian_eigenvalues expects a square matrix, got shape {rho.shape}")
    vals = np.linalg.eigvalsh(_hermitian_part(rho))[..., ::-1]
    vals = np.where((vals < 0.0) & (vals >= -EIG_CLAMP), 0.0, vals)
    return vals


def _refuse_nonfinite(a: np.ndarray) -> None:
    """Refuse with `hermitian_eigenvalues`' ValueError an array with any
    NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise ValueError("hermitian_eigenvalues expects finite entries, got NaN or infinity")


def _hermitian_part(rho: np.ndarray) -> np.ndarray:
    """(rho + rho^dagger) / 2 of each square matrix of a stack, after
    refusing with `hermitian_eigenvalues`' ValueError a stack with any NaN
    or infinite entry (before any arithmetic, so no warning comes first)
    and then one with any matrix off Hermitian by more than 1e-10 in any
    entry."""
    _refuse_nonfinite(rho)
    adjoint = rho.conj().swapaxes(-1, -2)
    herm_err = float(np.max(np.abs(rho - adjoint), initial=0.0))
    if herm_err > 1e-10:
        raise ValueError(f"not Hermitian within 1e-10: deviation {herm_err:g}")
    return 0.5 * (rho + adjoint)
