"""Dense complex matrices on truncated, composite Fock spaces.

Every operator is a plain (d, d) complex ndarray; the tensor structure is a
`dims` tuple of ints, passed only to the functions that read it. Kronecker
ordering is fixed left-to-right over the factor dimensions: a composite space
(d0, d1, d2) is d0 ⊗ d1 ⊗ d2, and operators on single factors are lifted with
:func:`embed`. All other modules build their composite operators through
``embed`` so the ordering lives here only. States are plain arrays too: a ket
is a (d,) vector, a density matrix a (d, d) matrix or its row-major vec, as
`dynamics.modes` takes them.
"""
from __future__ import annotations

import numpy as np


def parity(dims: tuple[int, ...]) -> np.ndarray:
    """Total occupation parity (n0 + n1 + ...) mod 2 of each basis index."""
    return np.indices(dims).sum(axis=0).reshape(-1) % 2


def annihilation_op(dim: int) -> np.ndarray:
    """Ladder operator with <n-1|b|n> = sqrt(n) on a dim-level factor."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def quadrature_op(dim: int) -> np.ndarray:
    """Normalized deflection (b + b†)/sqrt(2)."""
    b = annihilation_op(dim)
    return (b + b.conj().T) / np.sqrt(2.0)


def embed(op: np.ndarray, dims: tuple[int, ...], slot: int) -> np.ndarray:
    """Lift a single-factor operator to the composite space at the given slot."""
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} factors")
    if op.shape[0] != dims[slot]:
        raise ValueError(
            f"operator dimension {op.shape[0]} does not match dims[{slot}] = {dims[slot]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == slot else np.eye(d, dtype=complex))
    return out
