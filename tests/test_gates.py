import numpy as np
import pytest
from scipy.linalg import expm

from phonongate.gates import (
    PAULI,
    cnot_sequence,
    exchange_unitary,
    ideal_cnot,
    pauli_rotation,
    phase_aligned_distance,
)

ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def test_pauli_rotation_z():
    u = pauli_rotation("z", np.pi / 2)
    assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]))


def test_pauli_rotation_x_pi():
    assert np.allclose(pauli_rotation("x", np.pi), -1j * PAULI["x"])


def test_pauli_rotation_group_property():
    half = pauli_rotation("x", np.pi / 2)
    assert np.allclose(half @ half, pauli_rotation("x", np.pi), atol=1e-15)


def test_pauli_rotation_bad_axis():
    with pytest.raises(ValueError):
        pauli_rotation("w", 1.0)


def test_exchange_unitary_identity_at_zero():
    assert np.allclose(exchange_unitary(30.0, 0.0), np.eye(4))


def test_exchange_unitary_iswap():
    omega = 30.0463
    u = exchange_unitary(omega, np.pi / (2 * omega))
    assert np.max(np.abs(u - ISWAP)) <= 1e-12


def test_exchange_unitary_matches_unitary_evolution():
    # cross-path: the published matrix equals exp(-iHt) for the exchange
    # Hamiltonian H = -Omega(|01><10| + h.c.)
    omega, t = 2.2, 0.71
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = h[2, 1] = -omega
    assert np.max(np.abs(exchange_unitary(omega, t) - expm(-1j * h * t))) <= 1e-10


def test_exchange_unitary_composition():
    omega = 1.3
    u = exchange_unitary(omega, 0.4) @ exchange_unitary(omega, 0.9)
    assert np.max(np.abs(u - exchange_unitary(omega, 1.3))) <= 1e-12


def test_exchange_unitary_negative_time():
    with pytest.raises(ValueError):
        exchange_unitary(1.0, -0.1)


def test_cnot_sequence_ideal_point():
    omega = 30.0463
    u = cnot_sequence(omega, np.pi / (2 * omega))
    assert phase_aligned_distance(u, ideal_cnot()) <= 1e-10
    # the sequence's global phase factor makes the match exact, unaligned
    assert np.max(np.abs(u - ideal_cnot())) <= 1e-10


def test_cnot_sequence_at_zero():
    u = cnot_sequence(1.0, 0.0)
    f00 = abs(np.conj(np.eye(4)[0]) @ ideal_cnot().conj().T @ u @ np.eye(4)[0]) ** 2
    assert f00 == pytest.approx(0.25, abs=1e-12)


def test_cnot_sequence_unitary_any_time():
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = cnot_sequence(1.0, rng.uniform(0, 10))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_cnot_sequence_periodic():
    omega = 1.7
    t = 0.9
    u1 = cnot_sequence(omega, t)
    u2 = cnot_sequence(omega, t + 2 * np.pi / omega)
    assert np.max(np.abs(u1 - u2)) <= 1e-12


def test_ideal_cnot_action():
    u = ideal_cnot()
    basis = np.eye(4)
    assert np.allclose(u @ basis[2], basis[3])  # |10> -> |11>
    assert np.allclose(u @ basis[0], basis[0])  # |00> -> |00>
    assert np.allclose(u @ u, np.eye(4))


# every gate builder, at several angles
GATES = {
    **{f"pauli_{axis}_{angle:g}": (lambda axis=axis, angle=angle: pauli_rotation(axis, angle))
       for axis in "xyz" for angle in (0.0, 0.3, np.pi / 2, np.pi, -2.1, 7.0)},
    "exchange": lambda: exchange_unitary(30.0463, 0.37),
    **{f"cnot_sequence_{ot:g}": (lambda ot=ot: cnot_sequence(1.0, ot))
       for ot in (0.0, 0.4, np.pi / 2, 2.5, 11.0)},
    "ideal_cnot": ideal_cnot,
}


@pytest.mark.parametrize("name", list(GATES))
def test_every_gate_builder_returns_a_unitary(name):
    u = GATES[name]()
    assert u.shape in ((2, 2), (4, 4))
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-12


def test_phase_aligned_distance_kills_global_phase():
    u = cnot_sequence(1.0, 0.3)
    assert phase_aligned_distance(u, np.exp(0.7j) * u) <= 1e-14

