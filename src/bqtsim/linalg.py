"""Dense linear algebra for small multi-qubit density matrices.

Qubit convention is big endian throughout: qubit 0 is the leftmost tensor
factor, so basis index b of an n-qubit register carries qubit q's bit at
position n-1-q. Systems stay small (at most 6 qubits, 64x64), so everything
is stored dense.

All functions are pure; DensityMatrix instances are treated as immutable
after construction and are safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ComplexMatrix",
    "DensityMatrix",
    "kron",
    "partial_trace",
    "embed_op",
    "hermitian_eigenvalues",
    "I2",
    "SX",
    "SZ",
    "HADAMARD",
    "CNOT",
]

# Operators are plain numpy arrays with complex entries in row-major order.
ComplexMatrix = np.ndarray

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


def _n_qubits_of(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix with a normalization flag.

    `normalized` records whether the trace is meant to be 1. Projected,
    unnormalized branch states carry their probability as the trace and set
    the flag False. Hermiticity/trace/positivity checks are on demand via
    assert_valid, never on every operation, so inner loops stay cheap.
    """

    mat: np.ndarray
    normalized: bool = True

    @property
    def dim(self) -> int:
        return int(self.mat.shape[0])

    @property
    def n_qubits(self) -> int:
        return _n_qubits_of(self.dim)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def assert_valid(self, tol: float = 1e-12, psd_tol: float = EIG_CLAMP) -> None:
        """Assert Hermiticity, unit trace (if flagged) and positivity."""
        m = self.mat
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if herm_err > tol:
            raise ValueError(f"not Hermitian: max |m - m^dag| = {herm_err:g}")
        tr = complex(np.trace(m))
        if self.normalized:
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


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all qubits of `rho` not listed in `keep`.

    The result's qubit order follows the keep list, so keep=[3, 1] returns
    the (3, 1) marginal with qubit 3 as the leftmost factor. Trace is
    preserved; the normalization flag carries over from the input.
    """
    keep = list(keep)
    n_qubits = rho.n_qubits
    _check_targets(keep, n_qubits)
    if not keep:
        raise ValueError("keep list must not be empty")
    keep_set = set(keep)
    t = rho.mat.reshape((2,) * (2 * n_qubits))
    row = list(range(n_qubits))
    # Traced qubits share one label between row and column axes.
    col = [q + n_qubits if q in keep_set else q for q in range(n_qubits)]
    out = [q for q in keep] + [q + n_qubits for q in keep]
    red = np.einsum(t, row + col, out)
    d = 1 << len(keep)
    return DensityMatrix(red.reshape(d, d), rho.normalized)


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


def hermitian_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Real eigenvalues in descending order.

    Raises ValueError when rho is off Hermitian by more than 1e-10 in any
    entry. Values in [-EIG_CLAMP, 0) are clamped to exactly 0 so downstream
    logs and entropies never see spurious negatives.
    """
    m = rho.mat
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if herm_err > 1e-10:
        raise ValueError(f"not Hermitian within 1e-10: deviation {herm_err:g}")
    vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[::-1]
    vals = np.where((vals < 0.0) & (vals >= -EIG_CLAMP), 0.0, vals)
    return vals
