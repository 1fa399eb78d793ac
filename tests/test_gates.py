import numpy as np
import pytest
from scipy.constants import hbar
from scipy.linalg import expm

from phonongate.duffing import QubitSubspace, duffing_spectrum, qubit_subspace
from phonongate.gates import (
    PAULI,
    DarkTransitionError,
    PulseSpec,
    cnot_sequence,
    exchange_unitary,
    force_pulse_unitary,
    gradient_pulse_unitary,
    ideal_cnot,
    pauli_rotation,
    phase_aligned_distance,
    sigma_x_area,
)

ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def harmonic_qubit():
    return qubit_subspace(duffing_spectrum(2 * np.pi * 28.6e6, 0.0, 16, 4))


def force_pulse_for_phi(phi, chi=1e-12):
    # invert Phi = -area * chi / hbar
    return PulseSpec("force", -phi * hbar / chi, chi)


def gradient_pulse_for_phase(phi, qubit, chi=1e-12):
    # invert phi = area * chi^2 * Z_coeff / (2 hbar)
    return PulseSpec("gradient", 2 * hbar * phi / (chi**2 * qubit.Z_coeff), chi)


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


def test_force_pulse_zero_area():
    u = force_pulse_unitary(PulseSpec("force", 0.0, 1e-12), harmonic_qubit())
    assert np.allclose(u, np.eye(2))


def test_force_pulse_matches_exponential_oracle():
    q = harmonic_qubit()
    for phi_x10 in (np.pi / 2, np.pi, 0.37):
        phi = phi_x10 / q.X10
        u = force_pulse_unitary(force_pulse_for_phi(phi), q)
        oracle = expm(-1j * phi * q.X_block)
        assert np.max(np.abs(u - oracle)) <= 1e-12


def test_force_pulse_sigma_x_and_minus_identity():
    q = harmonic_qubit()
    u_half = force_pulse_unitary(force_pulse_for_phi(np.pi / 2 / q.X10), q)
    assert np.max(np.abs(u_half - (-1j) * PAULI["x"])) <= 1e-12
    u_pi = force_pulse_unitary(force_pulse_for_phi(np.pi / q.X10), q)
    assert np.max(np.abs(u_pi + np.eye(2))) <= 1e-12


def test_force_pulse_kind_check():
    with pytest.raises(ValueError):
        force_pulse_unitary(PulseSpec("gradient", 1.0, 1e-12), harmonic_qubit())


def test_sigma_x_area_values():
    q = harmonic_qubit()
    assert sigma_x_area(q) == pytest.approx(np.pi / np.sqrt(2), rel=1e-12)
    custom = QubitSubspace(1.0, 1.0, -0.5, np.array([[0, 1], [1, 0]], dtype=complex))
    assert sigma_x_area(custom) == pytest.approx(np.pi / 2)
    dark = QubitSubspace(1.0, 0.0, -0.5, np.zeros((2, 2), dtype=complex))
    with pytest.raises(DarkTransitionError):
        sigma_x_area(dark)


def test_sigma_x_area_calibrates_the_pulse():
    q = harmonic_qubit()
    u = force_pulse_unitary(force_pulse_for_phi(sigma_x_area(q)), q)
    assert phase_aligned_distance(u, PAULI["x"]) <= 1e-12


def test_gradient_pulse_zero_area():
    u = gradient_pulse_unitary(PulseSpec("gradient", 0.0, 1e-12), harmonic_qubit())
    assert np.allclose(u, np.eye(2))


def test_gradient_pulse_phase_gate():
    q = harmonic_qubit()
    u = gradient_pulse_unitary(gradient_pulse_for_phase(np.pi / 4, q), q)
    s_gate = np.diag([1.0, 1j])
    assert phase_aligned_distance(u, s_gate) <= 1e-12


def test_sigma_y_composition():
    # i sigma_x sigma_z = sigma_y from the two calibrated pulses
    q = harmonic_qubit()
    ux = force_pulse_unitary(force_pulse_for_phi(sigma_x_area(q)), q)
    uz = gradient_pulse_unitary(gradient_pulse_for_phase(np.pi / 2, q), q)
    assert phase_aligned_distance(ux @ uz, PAULI["y"]) <= 1e-12


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


# every gate builder, at several angles and pulse areas
GATES = {
    **{f"pauli_{axis}_{angle:g}": (lambda axis=axis, angle=angle: pauli_rotation(axis, angle))
       for axis in "xyz" for angle in (0.0, 0.3, np.pi / 2, np.pi, -2.1, 7.0)},
    "exchange": lambda: exchange_unitary(30.0463, 0.37),
    **{f"cnot_sequence_{ot:g}": (lambda ot=ot: cnot_sequence(1.0, ot))
       for ot in (0.0, 0.4, np.pi / 2, 2.5, 11.0)},
    "ideal_cnot": ideal_cnot,
    **{f"force_{phi:g}": (lambda phi=phi: force_pulse_unitary(force_pulse_for_phi(phi),
                                                              harmonic_qubit()))
       for phi in (0.2, 1.7, 5.0)},
    **{f"gradient_{phi:g}": (lambda phi=phi: gradient_pulse_unitary(
        gradient_pulse_for_phase(phi, harmonic_qubit()), harmonic_qubit()))
       for phi in (0.2, 1.7, 5.0)},
}


@pytest.mark.parametrize("name", list(GATES))
def test_every_gate_builder_returns_a_unitary(name):
    u = GATES[name]()
    assert u.shape in ((2, 2), (4, 4))
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-12


def test_phase_aligned_distance_kills_global_phase():
    u = cnot_sequence(1.0, 0.3)
    assert phase_aligned_distance(u, np.exp(0.7j) * u) <= 1e-14


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec("kick", 1.0, 1e-12)
    with pytest.raises(ValueError):
        PulseSpec("force", np.inf, 1e-12)
    with pytest.raises(ValueError):
        PulseSpec("force", 1.0, -1e-12)
