import itertools

import numpy as np
import pytest
from dataclasses import replace
from scipy.constants import hbar, k as kB

from phonongate.duffing import duffing_hamiltonian, duffing_spectrum
from phonongate.dynamics import beam_swap, standard_channels
from phonongate.fockspace import embed
from phonongate.hamiltonians import (
    HBAR_SI,
    KB_SI,
    PhysicalParams,
    ResonanceProximityError,
    effective_gate_hamiltonian,
    exchange_rate,
    system_hamiltonian,
    thermal_occupation,
)
from phonongate.runner import PAPER_V1, PAPER_VA, _qubit_isometry

from oracles import full_space_system_hamiltonian

TWOPI = 2 * np.pi


def paper_va_spectrum():
    # harmonic beam so delta_10 equals the quoted transition frequency exactly
    # (a quartic term would dress it to omega + 6 lam)
    return duffing_spectrum(TWOPI * 36.6e6, 0.0, dim=16, dim_trust=4)


def default_params(**kw):
    base = dict(Delta=TWOPI * 28e6, g_G=TWOPI * 9e6, G_tilde=TWOPI * 2e6,
                omega_G=TWOPI * 28.6e6, lam=TWOPI * 209e3, kappa=TWOPI * 523.0)
    base.update(kw)
    return PhysicalParams(**base)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(TWOPI * 1e6, 0.0) == 0.0


def test_thermal_occupation_ln2_point():
    # hbar w = kB T ln 2  ->  n = 1/(2 - 1) = 1
    T = 1e-3
    w = kB * T * np.log(2) / hbar
    assert thermal_occupation(w, T) == pytest.approx(1.0, rel=1e-12)


def test_si_constants_are_scipys_exact_values():
    # the 2019 SI fixes h and kB; the rounded hbar 1.054571817e-34 differs
    assert HBAR_SI == hbar
    assert KB_SI == kB


def test_thermal_occupation_published_point():
    # Bose-Einstein at 28.6 MHz and 3 mK with CODATA constants
    assert thermal_occupation(TWOPI * 28.6e6, 3e-3) == pytest.approx(1.7237, rel=1e-3)
    # to the bit: every paper_v1 run reads n_th here, and e^-x / (1 - e^-x)
    # would read 1 ulp lower and move every paper_v1 CSV
    assert thermal_occupation(TWOPI * 28.6e6, 3e-3) == 1.7236543071490367


def test_thermal_occupation_errors():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -1.0)


@pytest.mark.parametrize("T", [1e-300, 1e-310, 1e-320])
def test_thermal_occupation_reads_its_limit_at_a_tiny_temperature(T):
    # hbar w / kB T overflows at 1e-300 and kB T underflows to 0 below it:
    # each reads 0, the T -> 0 limit, with no exception and no warning
    assert thermal_occupation(TWOPI * 28.6e6, T) == 0.0


def test_system_hamiltonian_decoupled():
    p = default_params(g_G=0.0, G_tilde=0.0, lam=0.0)
    dims = (3, 2, 2)
    h = system_hamiltonian(p, dims)
    expected = sorted(
        -p.Delta * nc + p.omega_G * (n1 + n2)
        for nc in range(3) for n1 in range(2) for n2 in range(2)
    )
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), expected, atol=1e-6)


@pytest.mark.parametrize("omega_G", [TWOPI * 28.6e6, 0.0])
@pytest.mark.parametrize("n_b", [2, 4, 5])
def test_system_hamiltonian_beams_are_the_embedded_duffing_hamiltonian(n_b, omega_G):
    # bit for bit: each beam's term is duffing_hamiltonian at its slot, the one
    # formula the qubit levels are also diagonalized from
    p = default_params(Delta=0.0, g_G=0.0, G_tilde=0.0, omega_G=omega_G)
    dims = (3, n_b, n_b)
    beam = duffing_hamiltonian(p.omega_G, p.lam, n_b)
    assert np.array_equal(system_hamiltonian(p, dims), embed(beam, dims, 1) + embed(beam, dims, 2))


@pytest.mark.parametrize("convention", ["symmetric", "bare"])
def test_system_hamiltonian_is_bit_identical_to_the_full_space_beam_formula(convention):
    # embedding duffing_hamiltonian at each beam's slot changes no bit of H
    # against the formula built from full-space operators, at every truncation
    # a scenario validates and at omega_G = 0
    for p in (default_params(), PhysicalParams.from_config(PAPER_V1), default_params(omega_G=0.0)):
        for dims in itertools.product((2, 3, 4), (2, 4, 5, 6)):
            dims = (dims[0], dims[1], dims[1])
            expected = full_space_system_hamiltonian(p, dims, convention)
            assert system_hamiltonian(p, dims, convention).tobytes() == expected.tobytes(), dims


def test_qubit_isometry_is_exactly_the_identity_at_two_levels():
    # at n_b = 2 the truncated quartic term is the constant lam/2, so the
    # eigenbasis is the Fock basis, in Fock order even where omega_G = 0
    for omega, lam in ((TWOPI * 28.6e6, TWOPI * 209e3), (0.0, TWOPI * 209e3), (0.0, 0.0)):
        iso = _qubit_isometry(2, omega, lam)
        assert iso.dtype == complex and np.array_equal(iso, np.eye(2))


def test_system_hamiltonian_hermitian():
    h = system_hamiltonian(default_params(), (3, 2, 2))
    assert np.max(np.abs(h - h.conj().T)) <= 1e-13 * np.max(np.abs(h))


def test_system_hamiltonian_coupling_element():
    # <0,0,0|H|1,1,0> = g_G * (1/sqrt2) * (1/sqrt2) with only X_c X_j active
    p = default_params(G_tilde=0.0, lam=0.0, omega_G=0.0, Delta=0.0)
    dims = (2, 2, 2)
    h = system_hamiltonian(p, dims)
    i000, i110 = 0, 0b110
    assert h[i000, i110] == pytest.approx(p.g_G / 2, rel=1e-12)


def test_system_hamiltonian_bare_convention():
    p = default_params(G_tilde=0.0, lam=0.0, omega_G=0.0, Delta=0.0)
    dims = (2, 2, 2)
    h = system_hamiltonian(p, dims, quadrature_convention="bare")
    assert h[0, 0b110] == pytest.approx(p.g_G / np.sqrt(2), rel=1e-12)
    with pytest.raises(ValueError):
        system_hamiltonian(p, dims, quadrature_convention="other")


def beam_swap_permutation(dims):
    return np.arange(np.prod(dims)).reshape(dims).swapaxes(1, 2).reshape(-1)


@pytest.mark.parametrize("convention", ["symmetric", "bare"])
@pytest.mark.parametrize("n_b", [2, 4])
def test_system_hamiltonian_is_exactly_beam_swap_symmetric(convention, n_b):
    # exact equality, not a tolerance: the spectral core splits L on it
    p = default_params()
    assert p.G_tilde != 0.0
    dims = (3, n_b, n_b)
    H = system_hamiltonian(p, dims, convention)
    perm = beam_swap_permutation(dims)
    assert np.array_equal(H[np.ix_(perm, perm)], H)


def test_standard_channels_map_onto_themselves_under_the_beam_swap():
    dims = (3, 4, 4)
    ops = standard_channels(dims, kappa=1.0, gamma_m=0.5, n_th=0.3)
    perm = beam_swap_permutation(dims)
    images = [op[np.ix_(perm, perm)] for op in ops]
    # a bijection: every image is one of the operators, and no two images coincide
    matches = [[i for i, op in enumerate(ops) if np.array_equal(img, op)] for img in images]
    assert all(len(m) == 1 for m in matches)
    assert sorted(m[0] for m in matches) == list(range(len(ops)))
    assert [m[0] for m in matches] != list(range(len(ops)))  # the beam channels swap
    assert beam_swap(system_hamiltonian(default_params(), dims), ops, dims) is not None


def test_system_hamiltonian_factor_count():
    with pytest.raises(ValueError):
        system_hamiltonian(default_params(), (3, 2))


def test_effective_gate_zero_coupling():
    eff = effective_gate_hamiltonian(paper_va_spectrum(), 0.0, TWOPI * 49.9e6)
    assert eff.Omega == 0.0


def test_effective_gate_published_rate():
    # X_G^2 = 0.25 reproduces the published 30.0463 value to 0.1%;
    # the spectrum path uses its own X10, so pin the formula via the ratio
    spec = paper_va_spectrum()
    g, delta = TWOPI * 21e3, TWOPI * 49.9e6
    eff = effective_gate_hamiltonian(spec, g, delta)
    omega_published = eff.Omega * 0.25 / eff.X_G**2
    assert omega_published == pytest.approx(30.0463, rel=1e-3)


def test_effective_gate_sign():
    spec = paper_va_spectrum()
    g = TWOPI * 21e3
    below = effective_gate_hamiltonian(spec, g, TWOPI * 20e6)  # Delta < omega_G
    assert below.Omega < 0
    above = effective_gate_hamiltonian(spec, g, TWOPI * 49.9e6)
    assert above.Omega > 0


def test_effective_gate_resonance_guard():
    spec = paper_va_spectrum()
    g = TWOPI * 21e3
    with pytest.raises(ResonanceProximityError):
        effective_gate_hamiltonian(spec, g, spec.delta[1, 0] + 5 * g)


def test_effective_gate_phase_invariance():
    spec = paper_va_spectrum()
    g, delta = TWOPI * 21e3, TWOPI * 49.9e6
    flip = np.diag([(-1.0) ** n for n in range(spec.dim)])
    flipped = replace(spec, X=flip @ spec.X @ flip)
    a = effective_gate_hamiltonian(spec, g, delta)
    b = effective_gate_hamiltonian(flipped, g, delta)
    assert a.Omega == pytest.approx(b.Omega, rel=1e-14)


def test_exchange_rate_two_paths_agree():
    spec = paper_va_spectrum()
    g, delta = TWOPI * 21e3, TWOPI * 49.9e6
    eff = effective_gate_hamiltonian(spec, g, delta)
    # the two second-order paths, (g^2 X_G^2 / 2)[1/(Delta + omega_G) + 1/(Delta - omega_G)]
    x10, omega_g = abs(spec.X[0, 1]), spec.delta[1, 0]
    paths = 0.5 * g**2 * x10**2 * (1.0 / (delta + omega_g) + 1.0 / (delta - omega_g))
    assert paths == pytest.approx(eff.Omega, rel=1e-12)


def test_exchange_rate_guards_the_resonance():
    assert exchange_rate(5.0, 2.0, 0.3, 0.36) == 5.0 * 0.36 * 0.3**2 / (5.0**2 - 2.0**2)
    for delta in (2.0, -2.0):
        with pytest.raises(ValueError, match="diverges"):
            exchange_rate(delta, 2.0, 0.3, 0.36)


def test_rabi_angle_linear_ramp_oracle():
    # the exchange angle of a time-dependent coupling is int Omega(g_G(t)) dt;
    # for g(t) = c t on [0, T]: angle = Delta X^2 c^2 T^3 / (3 (Delta^2 - w^2))
    delta, w, xg = 5.0, 2.0, 0.6
    c, T = 0.3, 2.0
    ts = np.linspace(0.0, T, 20001)
    rates = [exchange_rate(delta, w, c * t, xg**2) for t in ts]
    angle = float(np.trapezoid(rates, ts))
    expected = delta * xg**2 * c**2 * T**3 / (3 * (delta**2 - w**2))
    assert angle == pytest.approx(expected, rel=1e-7)


def test_exchange_rate_is_half_the_full_two_level_doublet_splitting():
    # cross-route oracle: paper_va, no direct beam coupling, two beam levels,
    # symmetric X_c (X_G^2 = 1/2); the two eigenstates of the full H mostly on
    # |0,0,1> and |0,1,0> split by 2 Omega, 2 x 60.09258 rad/s
    p = PhysicalParams.from_config({**PAPER_VA, "G_tilde_hz": 0.0})
    dims = (4, 2, 2)
    energies, vecs = np.linalg.eigh(system_hamiltonian(p, dims, "symmetric"))
    one_up = np.ravel_multi_index(([0, 0], [0, 1], [1, 0]), dims)
    doublet = np.argsort(np.sum(np.abs(vecs[one_up]) ** 2, axis=0))[-2:]
    half_splitting = abs(np.diff(energies[doublet])[0]) / 2
    omega = exchange_rate(p.Delta, p.omega_G, p.g_G, 0.5)
    assert omega == pytest.approx(60.09264, rel=1e-6)
    assert half_splitting == pytest.approx(omega, rel=1e-5)


def test_effective_exchange_rate_matches_the_full_doublet_at_six_beam_levels():
    # cross-route oracle: paper_va, lambda = 2 pi 209 kHz, no direct beam
    # coupling, symmetric X_c. The dressed |01>/|10> doublet of the full H,
    # picked by its weight on the cavity vacuum times the two lowest Duffing
    # eigenstates, splits by 2 x 63.00868 rad/s at n_b = 6; the dispersive
    # Omega of the 16-level beam spectrum is 63.01256, and the gap closes
    # from 2.5e-3 at n_b = 4 as the truncation of the beams grows
    p = PhysicalParams.from_config({**PAPER_VA, "G_tilde_hz": 0.0, "lambda_hz": 209e3})
    omega = effective_gate_hamiltonian(duffing_spectrum(p.omega_G, p.lam, 16, 4),
                                       p.g_G, p.Delta).Omega
    gaps = {}
    for n_b in (4, 6):
        dims = (4, n_b, n_b)
        energies, vecs = np.linalg.eigh(system_hamiltonian(p, dims, "symmetric"))
        iso = _qubit_isometry(n_b, p.omega_G, p.lam)
        vacuum = np.eye(4)[0]
        kets = [np.kron(vacuum, np.kron(iso[:, i], iso[:, 1 - i])) for i in (0, 1)]
        weight = sum(np.abs(ket.conj() @ vecs) ** 2 for ket in kets)
        doublet = np.argsort(weight)[-2:]
        assert np.min(weight[doublet]) > 0.999
        gaps[n_b] = abs(abs(np.diff(energies[doublet])[0]) / 2 - omega) / omega
    assert omega == pytest.approx(63.01256, rel=1e-6)
    assert gaps[6] <= 2e-4
    assert gaps[6] < gaps[4]


def test_stark_shifts_harmonic_oracle():
    # harmonic beam: X couples 0<->1, 1<->2 only, so the sums have one or two terms
    w = TWOPI * 10e6
    spec = duffing_spectrum(w, 0.0, dim=16, dim_trust=4)
    g, delta = TWOPI * 1e3, TWOPI * 35e6
    eff = effective_gate_hamiltonian(spec, g, delta)
    s0 = 0.5 * g**2 * (0.5 / (delta - w))
    s1 = 0.5 * g**2 * (0.5 / (delta + w) + 1.0 / (delta - w))
    assert eff.stark_shifts[0] == pytest.approx(s0, rel=1e-10)
    assert eff.stark_shifts[1] == pytest.approx(s1, rel=1e-10)


def test_params_from_config():
    p = PhysicalParams.from_config({"Delta_hz": 28e6, "g_G_hz": 9e6, "lambda_hz": 209e3,
                                    "omega_G_hz": 28.6e6, "kappa_hz": 523.0, "Q": 5e6, "T": 3e-3})
    assert p.Delta == pytest.approx(TWOPI * 28e6)
    assert p.lam == pytest.approx(TWOPI * 209e3)
    assert p.Q == 5e6


def test_params_unknown_key():
    with pytest.raises(ValueError):
        PhysicalParams.from_config({"Delta": 28e6})  # missing _hz suffix


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(kappa=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(omega_G=TWOPI * 28.6e6, Q=5e6, gamma_m=99.0)
    ok = PhysicalParams(omega_G=TWOPI * 28.6e6, Q=5e6, gamma_m=TWOPI * 28.6e6 / 5e6)
    assert ok.gamma_m > 0
