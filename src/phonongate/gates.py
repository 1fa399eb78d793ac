"""Single-qubit pulse gates, the two-qubit exchange unitary, and the CNOT
sequence built from it.

Two-qubit basis order is {|00>, |01>, |10>, |11>} with the FIRST ket the
control qubit, fixed project-wide.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar as HBAR_SI

from .duffing import QubitSubspace

UNITARY_ATOL = 1e-12

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


@dataclass(frozen=True)
class GateMatrix:
    """A 2x2 or 4x4 unitary."""

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=complex)
        if data.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate must be 2x2 or 4x4, got {data.shape}")
        dev = np.max(np.abs(data.conj().T @ data - np.eye(data.shape[0])))
        if not dev <= UNITARY_ATOL:  # a NaN deviation fails too
            raise ValueError(f"matrix is not unitary (deviation {dev})")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __matmul__(self, other: "GateMatrix") -> "GateMatrix":
        return GateMatrix(self.data @ other.data)


def pauli_rotation(axis: str, angle: float) -> GateMatrix:
    """U[angle]_axis = exp(-i angle sigma_axis / 2), exactly."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return GateMatrix(np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * PAULI[axis])


def _expi_hermitian(M: np.ndarray) -> np.ndarray:
    """exp(-i M) for Hermitian 2x2 M via eigendecomposition."""
    evals, vecs = np.linalg.eigh(M)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def force_pulse_unitary(pulse: PulseSpec, qubit: QubitSubspace) -> GateMatrix:
    """exp(-i Phi X_qubit) with Phi = -(1/hbar) * area * chi_zpm.

    X_qubit is the deflection restricted to the two lowest eigenstates; its
    diagonals vanish by parity but are kept if nonzero.
    """
    if pulse.kind != "force":
        raise ValueError("force_pulse_unitary needs a force pulse")
    phi = -pulse.area * pulse.chi_zpm / HBAR_SI
    x_block = 0.5 * (qubit.X_block + qubit.X_block.conj().T)
    return GateMatrix(_expi_hermitian(phi * x_block))


def sigma_x_area(qubit: QubitSubspace) -> float:
    """Smallest Phi > 0 for which the force pulse is sigma_x up to global phase.

    With vanishing diagonals the pulse is cos(Phi X10) I - i sin(Phi X10) sigma_x,
    so Phi* = pi / (2 X10).
    """
    if qubit.X10 == 0:
        raise DarkTransitionError("X10 = 0: the 0-1 transition is dark to the force pulse")
    return np.pi / (2.0 * qubit.X10)


def gradient_pulse_unitary(pulse: PulseSpec, qubit: QubitSubspace) -> GateMatrix:
    """diag(e^{-i phi}, e^{i phi}) with phi = area * chi_zpm^2 * Z_coeff / (2 hbar).

    The gradient Hamiltonian is (1/2) W00(t) chi^2, whose qubit restriction is
    chi_zpm^2 [Z_coeff sigma_z + const]; the identity part is dropped.
    """
    if pulse.kind != "gradient":
        raise ValueError("gradient_pulse_unitary needs a gradient pulse")
    if not np.isfinite(qubit.Z_coeff):
        raise ValueError("Z_coeff must be finite")
    phi = 0.5 * pulse.area * pulse.chi_zpm**2 * qubit.Z_coeff / HBAR_SI
    return GateMatrix(np.diag([np.exp(-1j * phi), np.exp(1j * phi)]))


def exchange_unitary(Omega: float, t: float) -> GateMatrix:
    """Cavity-mediated exchange U_G(t): identity outside the {01, 10} block,
    cos/isin inside, with angle Omega*t. ISWAP at Omega*t = pi/2."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _exchange_from_angle(Omega * t)


def _exchange_from_angle(theta: float) -> GateMatrix:
    c, s = np.cos(theta), 1j * np.sin(theta)
    return GateMatrix(np.array(
        [[1, 0, 0, 0],
         [0, c, s, 0],
         [0, s, c, 0],
         [0, 0, 0, 1]], dtype=complex))


def cnot_sequence(Omega: float, t: float) -> GateMatrix:
    """Two exchange evolutions interleaved with single-qubit rotations:

    e^{i pi/4} (U[-pi/2]_z (x) U[pi/2]_x U[pi/2]_z) U_G (U[pi/2]_x (x) I) U_G (I (x) U[pi/2]_z)

    Equals CNOT (control = first qubit) at Omega*t = pi/2 with no residual
    global phase.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    u_g = _exchange_from_angle(Omega * t).data
    pre = np.kron(np.eye(2), pauli_rotation("z", np.pi / 2).data)
    mid = np.kron(pauli_rotation("x", np.pi / 2).data, np.eye(2))
    post = np.kron(
        pauli_rotation("z", -np.pi / 2).data,
        pauli_rotation("x", np.pi / 2).data @ pauli_rotation("z", np.pi / 2).data,
    )
    return GateMatrix(np.exp(1j * np.pi / 4) * post @ u_g @ mid @ u_g @ pre)


def ideal_cnot() -> GateMatrix:
    return GateMatrix(np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=complex))


def phase_aligned_distance(U: GateMatrix | np.ndarray, V: GateMatrix | np.ndarray) -> float:
    """max-entry distance min_theta ||U - e^{i theta} V||, aligning the global
    phase on the overlap Tr(V†U)."""
    u = U.data if isinstance(U, GateMatrix) else np.asarray(U, dtype=complex)
    v = V.data if isinstance(V, GateMatrix) else np.asarray(V, dtype=complex)
    ov = np.trace(v.conj().T @ u)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))
