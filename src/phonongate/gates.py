"""Single-qubit pulse gates, the two-qubit exchange unitary, and the CNOT
sequence built from it.

Every gate is a plain (2, 2) or (4, 4) complex ndarray. Two-qubit basis
order is {|00>, |01>, |10>, |11>} with the FIRST ket the control qubit,
fixed project-wide.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duffing import QubitSubspace
from .dynamics import HBAR_SI

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DarkTransitionError(ValueError):
    """Vanishing X10: the force pulse cannot drive the qubit transition."""


@dataclass(frozen=True)
class PulseSpec:
    """Time-integrated electrode pulse: kind "force" (area in N*s) or
    "gradient" (area in J*s/m^2), with the beam's zero-point motion."""

    kind: str
    area: float
    chi_zpm: float

    def __post_init__(self):
        if self.kind not in ("force", "gradient"):
            raise ValueError(f"pulse kind must be 'force' or 'gradient', got {self.kind!r}")
        if not np.isfinite(self.area):
            raise ValueError("pulse area must be finite")
        if self.chi_zpm <= 0:
            raise ValueError("chi_zpm must be positive")


def pauli_rotation(axis: str, angle: float) -> np.ndarray:
    """U[angle]_axis = exp(-i angle sigma_axis / 2), exactly."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * PAULI[axis]


def _expi_hermitian(M: np.ndarray) -> np.ndarray:
    """exp(-i M) for Hermitian 2x2 M via eigendecomposition."""
    evals, vecs = np.linalg.eigh(M)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def force_pulse_unitary(pulse: PulseSpec, qubit: QubitSubspace) -> np.ndarray:
    """exp(-i Phi X_qubit) with Phi = -(1/hbar) * area * chi_zpm.

    X_qubit is the deflection restricted to the two lowest eigenstates; its
    diagonals vanish by parity but are kept if nonzero.
    """
    if pulse.kind != "force":
        raise ValueError("force_pulse_unitary needs a force pulse")
    phi = -pulse.area * pulse.chi_zpm / HBAR_SI
    x_block = 0.5 * (qubit.X_block + qubit.X_block.conj().T)
    return _expi_hermitian(phi * x_block)


def sigma_x_area(qubit: QubitSubspace) -> float:
    """Smallest Phi > 0 for which the force pulse is sigma_x up to global phase.

    With vanishing diagonals the pulse is cos(Phi X10) I - i sin(Phi X10) sigma_x,
    so Phi* = pi / (2 X10).
    """
    if qubit.X10 == 0:
        raise DarkTransitionError("X10 = 0: the 0-1 transition is dark to the force pulse")
    return np.pi / (2.0 * qubit.X10)


def gradient_pulse_unitary(pulse: PulseSpec, qubit: QubitSubspace) -> np.ndarray:
    """diag(e^{-i phi}, e^{i phi}) with phi = area * chi_zpm^2 * Z_coeff / (2 hbar).

    The gradient Hamiltonian is (1/2) W00(t) chi^2, whose qubit restriction is
    chi_zpm^2 [Z_coeff sigma_z + const]; the identity part is dropped.
    """
    if pulse.kind != "gradient":
        raise ValueError("gradient_pulse_unitary needs a gradient pulse")
    if not np.isfinite(qubit.Z_coeff):
        raise ValueError("Z_coeff must be finite")
    phi = 0.5 * pulse.area * pulse.chi_zpm**2 * qubit.Z_coeff / HBAR_SI
    return np.diag([np.exp(-1j * phi), np.exp(1j * phi)])


def exchange_unitary(Omega: float, t: float) -> np.ndarray:
    """Cavity-mediated exchange U_G(t): identity outside the {01, 10} block,
    cos/isin inside, with angle Omega*t. ISWAP at Omega*t = pi/2."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    c, s = np.cos(Omega * t), 1j * np.sin(Omega * t)
    return np.array(
        [[1, 0, 0, 0],
         [0, c, s, 0],
         [0, s, c, 0],
         [0, 0, 0, 1]], dtype=complex)


def cnot_sequence(Omega: float, t: float) -> np.ndarray:
    """Two exchange evolutions interleaved with single-qubit rotations:

    e^{i pi/4} (U[-pi/2]_z (x) U[pi/2]_x U[pi/2]_z) U_G (U[pi/2]_x (x) I) U_G (I (x) U[pi/2]_z)

    Equals CNOT (control = first qubit) at Omega*t = pi/2 with no residual
    global phase.
    """
    u_g = exchange_unitary(Omega, t)
    pre = np.kron(np.eye(2), pauli_rotation("z", np.pi / 2))
    mid = np.kron(pauli_rotation("x", np.pi / 2), np.eye(2))
    post = np.kron(
        pauli_rotation("z", -np.pi / 2),
        pauli_rotation("x", np.pi / 2) @ pauli_rotation("z", np.pi / 2),
    )
    return np.exp(1j * np.pi / 4) * post @ u_g @ mid @ u_g @ pre


def ideal_cnot() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=complex)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-entry distance min_theta ||u - e^{i theta} v||, aligning the global
    phase on the overlap Tr(v†u)."""
    ov = np.trace(v.conj().T @ u)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))
