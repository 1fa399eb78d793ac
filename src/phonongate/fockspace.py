"""Dense complex operators on truncated, composite Fock spaces.

Kronecker ordering is fixed left-to-right over the factor dimensions:
a composite space [d0, d1, d2] is d0 ⊗ d1 ⊗ d2, and operators on single
factors are lifted with :func:`embed`. All other modules build their
composite operators through ``embed`` so the ordering lives here only.
States are plain arrays: a ket is a (d,) vector, a density matrix a (d, d)
matrix or its row-major vec, as `dynamics.propagate` takes them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

HERMITIAN_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ordered local dimensions of a composite Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("space needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return prod(self.dims)

    @property
    def parity(self) -> np.ndarray:
        """Total occupation parity (n0 + n1 + ...) mod 2 of each basis index."""
        return np.indices(self.dims).sum(axis=0).reshape(-1) % 2

    def __len__(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix tagged with its composite space."""

    space: SpaceDescriptor
    data: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        data = _readonly(self.data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"operator matrix must be square, got {data.shape}")
        if data.shape[0] != self.space.total:
            raise ValueError(
                f"matrix size {data.shape[0]} does not match space total {self.space.total}"
            )
        object.__setattr__(self, "data", data)
        if self.hermitian and not self.is_hermitian():
            raise ValueError("operator asserted Hermitian but is not")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def is_hermitian(self, rtol: float = HERMITIAN_RTOL) -> bool:
        scale = np.max(np.abs(self.data))
        if scale == 0.0:
            return True
        return np.max(np.abs(self.data - self.data.conj().T)) <= rtol * scale

    def dag(self) -> "Operator":
        return Operator(self.space, self.data.conj().T)

    def _same_space(self, other: "Operator") -> None:
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space.dims} vs {other.space.dims}")

    def __add__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.data + other.data)

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.data - other.data)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.data)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.data @ other.data)


def annihilation_op(dim: int) -> Operator:
    """Ladder operator with <n-1|b|n> = sqrt(n) on a dim-level factor."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    mat = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    return Operator(SpaceDescriptor((dim,)), mat)


def quadrature_op(dim: int) -> Operator:
    """Normalized deflection (b + b†)/sqrt(2)."""
    b = annihilation_op(dim)
    return Operator(b.space, (b.data + b.data.conj().T) / np.sqrt(2.0), hermitian=True)


def embed(op: Operator, space: SpaceDescriptor, slot: int) -> Operator:
    """Lift a single-factor operator to the composite space at the given slot."""
    if not 0 <= slot < len(space.dims):
        raise ValueError(f"slot {slot} out of range for {len(space.dims)} factors")
    if op.dim != space.dims[slot]:
        raise ValueError(
            f"operator dimension {op.dim} does not match dims[{slot}] = {space.dims[slot]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(space.dims):
        out = np.kron(out, op.data if k == slot else np.eye(d, dtype=complex))
    return Operator(space, out)
