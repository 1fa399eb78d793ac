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
from scipy.linalg import eigh

from .fockspace import Operator, SpaceDescriptor, annihilation_op, quadrature_op


class TruncationError(ValueError):
    """Fock truncation too small for the quartic term."""


@dataclass(frozen=True)
class DuffingSpectrum:
    """Eigendecomposition of one anharmonic beam.

    energies ascending (rad/s); eigvecs columns are eigenstates in the Fock
    basis with phases fixed so <n_fock=n|n_eig> is real and >= 0; X is the
    normalized deflection (b+b†)/sqrt(2) in the eigenbasis; delta[n, m] =
    E_n - E_m.
    """

    dim: int
    dim_trust: int
    omega_m: float
    lam: float
    energies: np.ndarray
    eigvecs: np.ndarray
    X: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True)
class QubitSubspace:
    """The three scalars (plus the 2x2 deflection block) the gate layer needs."""

    omega_q: float
    X10: float
    Z_coeff: float
    X_block: np.ndarray


def duffing_hamiltonian(omega_m: float, lam: float, dim: int) -> Operator:
    """H = omega_m b†b + (lam/2)(b† + b)^4 on a dim-level truncation."""
    if dim < 4:
        raise TruncationError(f"quartic term needs dim >= 4, got {dim}")
    if not 0 < omega_m < np.inf:
        raise ValueError(f"omega_m must be finite and positive, got {omega_m}")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    b = annihilation_op(dim).data
    x = b + b.conj().T
    h = omega_m * (b.conj().T @ b) + 0.5 * lam * np.linalg.matrix_power(x, 4)
    return Operator(SpaceDescriptor((dim,)), h, hermitian=True)


def spectrum(H: Operator, dim_trust: int, omega_m: float = np.nan, lam: float = np.nan) -> DuffingSpectrum:
    """Diagonalize a single-factor Hamiltonian and build the eigenbasis tables."""
    if len(H.space.dims) != 1:
        raise ValueError("spectrum expects a single-factor operator")
    if not H.is_hermitian(rtol=1e-10):
        raise ValueError("Hamiltonian must be Hermitian")
    dim = H.dim
    if dim_trust < 2 or dim_trust > dim - 4:
        raise ValueError(f"dim_trust must be in [2, dim-4], got {dim_trust} for dim {dim}")
    energies, vecs = eigh(H.data)
    # fix eigenvector phases: overlap with the same-index Fock state real, >= 0
    for n in range(dim):
        ov = vecs[n, n]
        if abs(ov) > 1e-14:
            vecs[:, n] *= np.conj(ov) / abs(ov)
    x_fock = quadrature_op(dim).data
    x_eig = vecs.conj().T @ x_fock @ vecs
    delta = energies[:, None] - energies[None, :]
    return DuffingSpectrum(dim, dim_trust, omega_m, lam, energies, vecs, x_eig, delta)


def duffing_spectrum(omega_m: float, lam: float, dim: int = 16, dim_trust: int = 4) -> DuffingSpectrum:
    return spectrum(duffing_hamiltonian(omega_m, lam, dim), dim_trust, omega_m, lam)


def qubit_subspace(s: DuffingSpectrum) -> QubitSubspace:
    """Extract the qubit transition frequency, X10 and the sigma_z coefficient.

    Z_coeff = ((X^2)_00 - (X^2)_11)/2, with X^2 the matrix square of the
    eigenbasis deflection.
    """
    if s.dim_trust < 2:
        raise ValueError("need at least two trusted levels")
    xsq = s.X @ s.X
    z_coeff = float((xsq[0, 0] - xsq[1, 1]).real / 2.0)
    block = np.array(s.X[:2, :2])
    return QubitSubspace(
        omega_q=float(s.delta[1, 0]),
        X10=float(abs(s.X[0, 1])),
        Z_coeff=z_coeff,
        X_block=block,
    )


def truncation_convergence(
    omega_m: float, lam: float, n_levels: int = 4, dim_lo: int = 16, dim_hi: int = 24
) -> float:
    """Max relative change of the lowest n_levels energies between two truncations."""
    lo = eigh(duffing_hamiltonian(omega_m, lam, dim_lo).data, eigvals_only=True)[:n_levels]
    hi = eigh(duffing_hamiltonian(omega_m, lam, dim_hi).data, eigvals_only=True)[:n_levels]
    ref = np.where(np.abs(hi) > 0, np.abs(hi), 1.0)
    return float(np.max(np.abs(lo - hi) / ref))
