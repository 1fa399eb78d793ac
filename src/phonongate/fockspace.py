"""Dense complex operator algebra on truncated, composite Fock spaces.

Kronecker ordering is fixed left-to-right over the factor dimensions:
a composite space [d0, d1, d2] is d0 ⊗ d1 ⊗ d2, and operators on single
factors are lifted with :func:`embed`. All other modules build their
composite operators through ``embed`` so the ordering lives here only.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12
KET_NORM_ATOL = 1e-10
DENSITY_HERM_ATOL = 1e-10
DENSITY_TRACE_ATOL = 1e-8
DENSITY_EIG_FLOOR = -1e-8


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


@dataclass(frozen=True)
class QuantumState:
    """Ket or density matrix on a composite space."""

    space: SpaceDescriptor
    kind: str
    data: np.ndarray

    def __post_init__(self):
        data = _readonly(self.data)
        n = self.space.total
        if self.kind == "ket":
            if data.shape != (n,):
                raise ValueError(f"ket shape {data.shape} does not match space total {n}")
            nrm = np.linalg.norm(data)
            if abs(nrm - 1.0) > KET_NORM_ATOL:
                raise ValueError(f"ket norm {nrm} deviates from 1 beyond {KET_NORM_ATOL}")
        elif self.kind == "density":
            if data.shape != (n, n):
                raise ValueError(f"density shape {data.shape} does not match space total {n}")
            if np.max(np.abs(data - data.conj().T)) > DENSITY_HERM_ATOL:
                raise ValueError("density matrix is not Hermitian")
            tr = np.trace(data).real
            if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
                raise ValueError(f"density trace {tr} deviates from 1 beyond {DENSITY_TRACE_ATOL}")
            if np.min(np.linalg.eigvalsh(data)) < DENSITY_EIG_FLOOR:
                raise ValueError("density matrix has eigenvalue below the positivity floor")
        else:
            raise ValueError(f"kind must be 'ket' or 'density', got {self.kind!r}")
        object.__setattr__(self, "data", data)

    @classmethod
    def ket(cls, space: SpaceDescriptor, amplitudes: Sequence[complex]) -> "QuantumState":
        v = np.asarray(amplitudes, dtype=complex)
        return cls(space, "ket", v / np.linalg.norm(v))

    @classmethod
    def fock(cls, space: SpaceDescriptor, occupations: Sequence[int]) -> "QuantumState":
        """Product Fock state |n0, n1, ...> with one occupation per factor."""
        if len(occupations) != len(space.dims):
            raise ValueError("need one occupation number per factor")
        v = np.zeros(space.total, dtype=complex)
        idx = 0
        for n, d in zip(occupations, space.dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {n} outside local dimension {d}")
            idx = idx * d + n
        v[idx] = 1.0
        return cls(space, "ket", v)

    @classmethod
    def density(cls, space: SpaceDescriptor, matrix: np.ndarray) -> "QuantumState":
        return cls(space, "density", matrix)

    def to_density(self) -> "QuantumState":
        if self.kind == "density":
            return self
        return QuantumState(self.space, "density", np.outer(self.data, self.data.conj()))


def annihilation_op(dim: int) -> Operator:
    """Ladder operator with <n-1|b|n> = sqrt(n) on a dim-level factor."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    mat = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    return Operator(SpaceDescriptor((dim,)), mat)


def creation_op(dim: int) -> Operator:
    return annihilation_op(dim).dag()


def number_op(dim: int) -> Operator:
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return Operator(SpaceDescriptor((dim,)), np.diag(np.arange(dim, dtype=float)), hermitian=True)


def quadrature_op(dim: int) -> Operator:
    """Normalized deflection (b + b†)/sqrt(2)."""
    b = annihilation_op(dim)
    return Operator(b.space, (b.data + b.data.conj().T) / np.sqrt(2.0), hermitian=True)


def identity_op(space: SpaceDescriptor) -> Operator:
    return Operator(space, np.eye(space.total), hermitian=True)


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


def expectation(op: Operator, state: QuantumState) -> complex:
    """<psi|A|psi> for kets, Tr(A rho) for density matrices."""
    if op.space != state.space:
        raise ValueError("operator and state live on different spaces")
    if state.kind == "ket":
        return complex(state.data.conj() @ op.data @ state.data)
    return complex(np.trace(op.data @ state.data))


def partial_trace(state: QuantumState, keep: Iterable[int]) -> QuantumState:
    """Trace out every factor not in `keep` (sorted, non-empty)."""
    keep = tuple(keep)
    dims = state.space.dims
    if not keep:
        raise ValueError("keep set must be non-empty")
    if list(keep) != sorted(set(keep)) or min(keep) < 0 or max(keep) >= len(dims):
        raise ValueError(f"invalid keep set {keep} for {len(dims)} factors")
    rho = state.to_density().data
    n = len(dims)
    t = rho.reshape(dims + dims)
    # contract traced-out factors pairwise, from the right to keep axes stable
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    kept_dims = tuple(dims[k] for k in keep)
    m = prod(kept_dims)
    return QuantumState(SpaceDescriptor(kept_dims), "density", t.reshape(m, m))
