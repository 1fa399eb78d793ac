"""Single-beam Duffing spectra: energies, transition frequencies and
position matrix elements in the energy eigenbasis.

hbar = 1 throughout; all energies are angular frequencies (rad/s). The
quartic term is kept in full — no rotating-wave reduction — so the top
few levels of any truncation are corrupted and `dim_trust` marks how many
low levels are taken seriously.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import annihilation_op, quadrature_op


class TruncationError(ValueError):
    """Fock truncation too small for the quartic term."""


@dataclass(frozen=True)
class DuffingSpectrum:
    """Eigendecomposition of one anharmonic beam.

    energies ascending (rad/s); eigvecs columns are the eigenstates of
    `eigenbasis` in the Fock basis; X is the normalized deflection
    (b+b†)/sqrt(2) in the eigenbasis, exactly zero between levels of one
    parity; delta[n, m] = E_n - E_m.
    """

    dim: int
    dim_trust: int
    omega_m: float
    lam: float
    energies: np.ndarray
    eigvecs: np.ndarray
    X: np.ndarray
    delta: np.ndarray


def duffing_hamiltonian(omega_m: float, lam: float, dim: int) -> np.ndarray:
    """H = omega_m b†b + (lam/2)(b† + b)^4 on a dim-level truncation: dim 2,
    where the truncated quartic term is the constant lam/2, or dim >= 4."""
    if dim == 3:
        raise TruncationError("quartic term needs dim 2 or >= 4, got 3")
    if not 0 <= omega_m < np.inf:
        raise ValueError(f"omega_m must be finite and nonnegative, got {omega_m}")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    b = annihilation_op(dim)
    x = b + b.conj().T
    return omega_m * (b.conj().T @ b) + 0.5 * lam * np.linalg.matrix_power(x, 4)


def eigenbasis(omega_m: float, lam: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The beam's energies, ascending, and its eigenstates as the columns of a
    (dim, dim) matrix in the Fock basis. The Duffing Hamiltonian keeps the
    Fock parity, so it is diagonalized on its even and its odd levels apart:
    each eigenstate is exactly zero off its parity. A column is negated where
    its same-index Fock amplitude has a negative real part."""
    h = duffing_hamiltonian(omega_m, lam, dim)
    energies, vecs = np.empty(dim), np.zeros((dim, dim), dtype=complex)
    for p in (0, 1):
        levels = np.arange(p, dim, 2)
        block = np.ix_(levels, levels)
        energies[levels], vecs[block] = np.linalg.eigh(h[block])
    order = np.argsort(energies, kind="stable")
    energies, vecs = energies[order], vecs[:, order]
    np.negative(vecs, out=vecs, where=np.diag(vecs).real < 0)  # `where` masks columns
    return energies, vecs


def duffing_spectrum(omega_m: float, lam: float, dim: int = 16, dim_trust: int = 4) -> DuffingSpectrum:
    """The eigenbasis tables of one beam, with its `dim_trust` lowest levels trusted."""
    energies, vecs = eigenbasis(omega_m, lam, dim)
    if dim_trust < 2 or dim_trust > dim - 4:
        raise ValueError(f"dim_trust must be in [2, dim-4], got {dim_trust} for dim {dim}")
    x_eig = vecs.conj().T @ quadrature_op(dim) @ vecs
    delta = energies[:, None] - energies[None, :]
    return DuffingSpectrum(dim, dim_trust, omega_m, lam, energies, vecs, x_eig, delta)
