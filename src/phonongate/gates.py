"""Single-qubit rotations, the two-qubit exchange unitary, and the CNOT
sequence built from them.

Every gate is a plain (2, 2) or (4, 4) complex ndarray. Two-qubit basis
order is {|00>, |01>, |10>, |11>} with the FIRST ket the control qubit,
fixed project-wide.
"""
from __future__ import annotations

import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_rotation(axis: str, angle: float) -> np.ndarray:
    """U[angle]_axis = exp(-i angle sigma_axis / 2), exactly."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * PAULI[axis]


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
