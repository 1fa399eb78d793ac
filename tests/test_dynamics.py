import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from phonongate import dynamics
from phonongate.dynamics import (
    EIG_TOL,
    IntegrationError,
    _rk4_rates,
    beam_swap,
    liouvillian,
    parity_blocks,
    sector_bound,
    sector_liouvillian,
    standard_channels,
    symmetry_sectors,
)
from phonongate.fockspace import annihilation_op, embed, parity
from phonongate.hamiltonians import PhysicalParams
from phonongate.runner import PAPER_V1, ScenarioConfig, open_system

from oracles import evolve_master, fock_density, ket_density, series

TWOPI = 2 * np.pi


def test_mech_damping():
    # the beam damping gamma_m = omega_G / Q that feeds the thermal channels
    w = TWOPI * 28.6e6
    assert PhysicalParams(omega_G=w, Q=5e6).beam_loss()[0] == pytest.approx(35.938, rel=1e-3)
    assert PhysicalParams(omega_G=w, Q=1.0).beam_loss()[0] == w
    assert PhysicalParams(omega_G=w, Q=1e30).beam_loss()[0] == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ValueError, match="Q must be positive"):
        PhysicalParams(omega_G=w, Q=0.0)


def cavity_decay_setup(dim=2, kappa=1.0):
    dims = (dim,)
    H = np.zeros((dim, dim))
    a = annihilation_op(dim)
    collapse = (np.sqrt(kappa) * a,)
    return dims, H, a, collapse


def lindblad_rhs(H, collapse, rho):
    """rho_dot as the Liouvillian applied to row-major vec(rho)."""
    return (liouvillian(H, collapse) @ rho.reshape(-1)).reshape(rho.shape)


def test_lindblad_rhs_free_evolution_is_zero():
    dims, H, _, _ = cavity_decay_setup()
    rho = fock_density(dims, [1])
    out = lindblad_rhs(H, (), rho)
    assert np.max(np.abs(out)) == 0.0


def test_lindblad_rhs_decay_rate():
    # d<a†a>/dt = -kappa on the one-photon state
    kappa = 0.7
    dims, H, a, collapse = cavity_decay_setup(kappa=kappa)
    rho = fock_density(dims, [1])
    out = lindblad_rhs(H, collapse, rho)
    n = a.conj().T @ a
    assert np.trace(n @ out).real == pytest.approx(-kappa, rel=1e-12)


def test_lindblad_rhs_traceless_hermitian():
    rng = np.random.default_rng(0)
    dims = (4,)
    hmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = hmat + hmat.conj().T
    collapse = (0.3 * annihilation_op(4),)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    out = lindblad_rhs(H, collapse, rho)
    assert abs(np.trace(out)) <= 1e-10 * np.linalg.norm(out)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(out)))


def thermal_channels(dims, gamma, n_th):
    b = annihilation_op(dims[0])
    return (np.sqrt(gamma * n_th) * b.conj().T, np.sqrt(gamma * (n_th + 1)) * b)


def test_lindblad_rhs_thermal_fixed_point():
    # geometric(n_th) diagonal state is stationary, truncation included
    dim, n_th, gamma = 10, 0.7, 2.0
    dims = (dim,)
    H = np.zeros((dim, dim))
    r = n_th / (n_th + 1.0)
    pops = r ** np.arange(dim)
    pops /= pops.sum()
    rho = np.diag(pops.astype(complex))
    out = lindblad_rhs(H, thermal_channels(dims, gamma, n_th), rho)
    assert np.max(np.abs(out)) <= 1e-14 * gamma
    # and it matches the Liouvillian nullspace (brute-force stationary solve)
    L = liouvillian(H, thermal_channels(dims, gamma, n_th))
    w, vecs = np.linalg.eig(L)
    ker = vecs[:, np.argmin(np.abs(w))].reshape(dim, dim)
    ker = ker / np.trace(ker)
    assert np.max(np.abs(ker - rho)) <= 1e-8


def test_lindblad_rhs_space_mismatch():
    # collapse operators on another space than H
    dims, H, _, _ = cavity_decay_setup()
    other = (annihilation_op(3),)
    with pytest.raises(ValueError, match="different spaces"):
        liouvillian(H, other)
    with pytest.raises(ValueError, match="different spaces"):
        parity_blocks(H, other, dims)


def test_evolve_master_space_mismatch():
    dims, H, _, collapse = cavity_decay_setup()
    rho0 = fock_density((3,), [0])
    with pytest.raises(ValueError, match="different spaces"):
        evolve_master(H, collapse, dims, rho0, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_evolve_master_cavity_decay(method):
    kappa = 1.0
    dims, H, a, collapse = cavity_decay_setup(kappa=kappa)
    rho0 = fock_density(dims, [1])
    t = np.linspace(0.0, 3.0 / kappa, 61)
    n = a.conj().T @ a
    states, stats = evolve_master(H, collapse, dims, rho0, t, method)
    occupation = np.einsum("ij,tji->t", n, states).real
    assert np.max(np.abs(occupation - np.exp(-kappa * t))) <= 1e-6
    assert stats["max_trace_drift"] <= 1e-6
    assert stats["min_eigenvalue"] >= -1e-6


def test_evolve_master_thermal_steady_state():
    dim, n_th, gamma = 25, 1.7237, 1.0
    dims = (dim,)
    H = np.zeros((dim, dim))
    collapse = thermal_channels(dims, gamma, n_th)
    rho0 = fock_density(dims, [0])
    t = np.linspace(0.0, 10.0 / gamma, 201)
    n = np.diag(np.arange(dim))
    states, _ = evolve_master(H, collapse, dims, rho0, t)
    assert np.trace(n @ states[-1]).real == pytest.approx(n_th, rel=0.01)


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_evolve_master_matches_unitary_without_dissipation(method):
    rng = np.random.default_rng(1)
    dims = (2, 3)
    hmat = rng.normal(size=(6, 6))
    H = (hmat + hmat.T) * 1.0
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 /= np.linalg.norm(psi0)
    t = np.linspace(0.0, 4.0, 41)
    states, _ = evolve_master(H, (), dims, np.outer(psi0, psi0.conj()), t, method)
    for k in (10, 25, 40):
        psi = expm(-1j * H * t[k]) @ psi0
        assert np.max(np.abs(states[k] - np.outer(psi, psi.conj()))) <= 1e-8


def test_evolve_master_grid_validation():
    dims, H, _, collapse = cavity_decay_setup()
    rho0 = fock_density(dims, [1])
    with pytest.raises(ValueError, match="time grid must start at 0"):
        evolve_master(H, collapse, dims, rho0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="uniform to rounding"):
        evolve_master(H, collapse, dims, rho0, np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_trace_gate_fails_at_once(monkeypatch, method):
    # the two-level decay keeps its trace exactly; |2> of three levels drifts by rounding
    dims, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    rho0 = fock_density(dims, [2])
    monkeypatch.setattr(dynamics, "TRACE_TOL", 1e-17)
    with pytest.raises(IntegrationError, match="trace drift") as err:
        evolve_master(H, collapse, dims, rho0, np.linspace(0.0, 1.0, 11), method)
    # the gate runs on a whole mode table, so its error carries the table's full stats
    assert err.value.stats["max_trace_drift"] > 1e-17
    assert {"max_phase_per_output", "final_min_eigenvalue", "timings_s"} <= set(err.value.stats)


def test_rk4_trace_drift_does_not_depend_on_substeps(monkeypatch):
    # the trace row is a left null vector of L: only the lambda = 0 modes
    # reach it and R(0) = 1, so more substeps cannot change its drift
    dims, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    cols = np.stack([fock_density(dims, [n]).reshape(-1)
                     for n in (1, 2)], axis=1)
    t = np.linspace(0.0, 1.0, 11)

    def drift(method):
        _, stats = series(H, collapse, dims, cols, np.eye(9), t, method)
        return stats["max_trace_drift"], stats.get("n_substeps_per_interval")

    coarse, m = drift("rk4")
    monkeypatch.setattr(dynamics, "SUBSTEP_PHASE", dynamics.SUBSTEP_PHASE / 4)
    fine, m_fine = drift("rk4")
    assert m_fine > m
    assert coarse == fine == drift("expm")[0]


def test_rk4_rates_keep_the_digits_of_small_steps():
    # log R(z) = z - z^5/120 + O(z^6) for the RK4 polynomial R, so at
    # |z| <= 1e-4 the rate is lam to rounding; log(1 + w) would lose eps/|z|
    lam = np.array([-3.0, 2.0e2j, -10.0 + 5.0e2j, -7.0e2 - 1.0j])
    h = 1e-6
    nu = _rk4_rates(lam, h, 10)
    assert np.max(np.abs(nu - lam) / np.abs(lam)) <= 1e-14


def test_propagate_needs_uniform_grid():
    dims, H, _, collapse = cavity_decay_setup()
    cols = fock_density(dims, [1]).reshape(-1, 1)
    with pytest.raises(ValueError, match="uniform to rounding"):
        series(H, collapse, dims, cols, np.eye(4), np.array([0.0, 0.1, 0.3]))


@pytest.mark.parametrize("method, t, cause", [
    ("euler", np.linspace(0.0, 1.0, 3), "modes runs expm or rk4, not 'euler'"),
    ("expm", np.linspace(0.0, 1.0, 4).reshape(2, 2), "time grid must be 1-D"),
], ids=["euler", "2-D grid"])
def test_propagate_refuses_an_unknown_method_and_a_2d_grid(method, t, cause):
    dims, H, _, collapse = cavity_decay_setup()
    cols = fock_density(dims, [1]).reshape(-1, 1)
    with pytest.raises(ValueError, match=cause):
        series(H, collapse, dims, cols, np.eye(4), t, method)


def test_propagate_rejects_bad_rows():
    dims, H, _, collapse = cavity_decay_setup()
    cols = fock_density(dims, [1]).reshape(-1, 1)
    for rows in (np.eye(3), np.ones((2, 1, 4)), np.ones(4)):
        with pytest.raises(ValueError, match=r"rows an \(r, 4\) set"):
            series(H, collapse, dims, cols, rows, np.linspace(0.0, 1.0, 3))


def test_propagate_rejects_nan_trace():
    dims, H, _, collapse = cavity_decay_setup()
    cols = np.full((4, 1), np.nan, dtype=complex)
    # a NaN cancellation bound fails before any trace is evaluated
    with pytest.raises(IntegrationError, match="eigendecomposition"):
        series(H, collapse, dims, cols, np.eye(4), np.linspace(0.0, 1.0, 3))


def test_propagate_refuses_a_defective_liouvillian():
    # |2> -> |1> -> |0> at equal rates: L has a Jordan block, so V is
    # singular. The residual and the reconstruction of rho0 both look clean;
    # only the cancellation bound sees the huge cancelling amplitudes.
    dims = (3,)
    H = np.zeros((3, 3))
    lower = np.zeros((2, 3, 3), dtype=complex)
    lower[0, 1, 2] = lower[1, 0, 1] = 1.0
    collapse = tuple(lower)
    rho0 = fock_density(dims, [2]).reshape(-1, 1)
    with pytest.raises(IntegrationError, match="eigendecomposition") as err:
        series(H, collapse, dims, rho0, np.eye(9), np.linspace(0.0, 5.0, 51))
    assert err.value.stats["eig_residual"] <= EIG_TOL
    assert err.value.stats["cancellation_bound"] > EIG_TOL


def test_propagate_refuses_a_non_hermitian_hamiltonian():
    # the standard form of L, K = H - (i/2) sum C†C, is the master equation's
    # only for a Hermitian H: the up-front check refuses the run
    dims, _, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    H = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    rho0 = fock_density(dims, [1]).reshape(-1, 1)
    with pytest.raises(IntegrationError, match="eigendecomposition") as err:
        series(H, collapse, dims, rho0, np.eye(9), np.linspace(0.0, 1.0, 11))
    assert err.value.stats["sector_imag"] > EIG_TOL


def test_evolve_master_hermiticity_and_positivity_stats():
    dims, H, a, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    rho0 = ket_density([0.6, 0.8j, 0.0])
    t = np.linspace(0.0, 5.0, 101)
    _, stats = evolve_master(H, collapse, dims, rho0, t)
    assert stats["max_herm_drift"] <= 1e-8
    assert stats["min_eigenvalue"] >= -1e-6


def random_densities(rng, d, k):
    """(d*d, k) batch of vec(rho) for k random full-rank density matrices."""
    m = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    rho = m @ m.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho.reshape(k, d * d).T


def test_propagate_batch_matches_per_column():
    dims, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.3)
    rng = np.random.default_rng(4)
    batch = random_densities(rng, 3, 3)
    rows = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    t = np.linspace(0.0, 2.0, 21)
    for method in ("expm", "rk4"):
        shared, _ = series(H, collapse, dims, batch, rows, t, method)
        # output 0 is the rows applied to the columns, not the mode sum at t = 0
        assert np.array_equal(shared[..., 0], (rows @ batch).real.T)
        for i in range(3):
            column = batch[:, i:i + 1]
            assert np.allclose(shared[i], series(H, collapse, dims, column, rows, t, method)[0][0],
                               rtol=0.0, atol=1e-14)
    # one row set for every column: a per-column stack is refused
    with pytest.raises(ValueError, match=r"rows an \(r, 9\) set"):
        series(H, collapse, dims, batch, np.stack([rows] * 3), t)



def test_propagate_refuses_a_non_hermitian_column():
    # the series are real parts: a column's anti-Hermitian part would be
    # dropped without a word, so it is refused by index
    dims, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    good = fock_density(dims, [1]).reshape(-1)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 0.25
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="column 1 is not vec of a Hermitian matrix"):
        series(H, collapse, dims, np.stack([good, good + skew.reshape(-1)], axis=1), np.eye(9), t)
    # rounding far below EIG_TOL of the largest entry is not refused
    jitter = good + 1e-13j * np.eye(3).reshape(-1)
    series(H, collapse, dims, np.stack([good, jitter], axis=1), np.eye(9), t)


def dense_series(H, collapse, columns, rows, t, substeps=None):
    """The (k, r, n_t) oracle Re(rows P_i columns), L dense: P_i = expm(L t_i),
    or with `substeps` m the i-th power of the RK4 step R(L h/m)^m."""
    L = kron_liouvillian(H, collapse)
    if substeps is None:
        states = [expm(L * ti) @ columns for ti in t]
    else:
        z, one = L * ((t[1] - t[0]) / substeps), np.eye(len(L))
        step = np.linalg.matrix_power(one + z @ (one + z @ (one / 2 + z @ (one / 6 + z / 24))),
                                      substeps)
        states = [columns]
        for _ in t[1:]:
            states.append(step @ states[-1])
    return np.stack([(rows @ v).real for v in states], axis=-1).swapaxes(0, 1)


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagate_with_a_real_spectrum_matches_a_dense_oracle(method):
    # H = 0 and one decay channel: every sector's eigenvalues are real, so the
    # real series has no conjugate pair and no sine column; rk4 against the
    # dense RK4 step, so that its discretization error is not measured
    dims, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.7)
    for block in parity_blocks(H, collapse, dims):
        for idx, coef in symmetry_sectors(H, collapse, dims, block):
            assert np.isrealobj(np.linalg.eigvals(sector_liouvillian(H, collapse, idx, coef)))
    rng = np.random.default_rng(11)
    columns = random_densities(rng, 3, 2)
    rows = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    t = np.linspace(0.0, 3.0, 31)
    out, stats = series(H, collapse, dims, columns, rows, t, method)
    oracle = dense_series(H, collapse, columns, rows, t, stats.get("n_substeps_per_interval"))
    assert np.max(np.abs(out - oracle)) <= 1e-12


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagate_with_non_hermitian_rows_matches_a_dense_oracle(method):
    # evolve_master's rows [I; -iI] and random complex rows are not Hermitian
    # functionals: each output is the real part of the row applied to rho(t)
    # (rk4 against the dense RK4 step)
    dims, H, collapse = parity_model()
    rng = np.random.default_rng(12)
    columns = random_densities(rng, 6, 2)
    eye = np.eye(36)
    rows = np.concatenate([eye, -1j * eye, rng.normal(size=(2, 36)) + 1j * rng.normal(size=(2, 36))])
    t = np.linspace(0.0, 1.0, 11)
    out, stats = series(H, collapse, dims, columns, rows, t, method)
    oracle = dense_series(H, collapse, columns, rows, t, stats.get("n_substeps_per_interval"))
    assert np.max(np.abs(out - oracle)) <= 1e-12


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagate_across_chunk_boundaries_matches_a_dense_oracle(method):
    # two whole chunks of outputs and a short third one: every chunk's mode
    # table is built from e^{nu t_s} times the first chunk's e^{nu t_j}
    dims, H, collapse = parity_model()
    rng = np.random.default_rng(13)
    columns = random_densities(rng, 6, 2)
    rows = rng.normal(size=(2, 36)) + 1j * rng.normal(size=(2, 36))
    t = np.linspace(0.0, 3.0, 2 * dynamics._CHUNK + 33)
    out, stats = series(H, collapse, dims, columns, rows, t, method)
    oracle = dense_series(H, collapse, columns, rows, t, stats.get("n_substeps_per_interval"))
    assert np.max(np.abs(out - oracle)) <= 1e-12


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_one_mode_table_evaluates_twice_to_the_same_blocks(method):
    # evaluate only reads its table: a second pass over the same modes gives
    # every block bit for bit, and leaves the coefficients, rates and output 0
    # as the first pass found them
    dims, H, collapse = parity_model()
    rng = np.random.default_rng(15)
    columns = random_densities(rng, 6, 2)
    rows = rng.normal(size=(3, 36)) + 1j * rng.normal(size=(3, 36))
    table = dynamics.modes(H, collapse, dims, columns, rows,
                           np.linspace(0.0, 3.0, dynamics._CHUNK + 17), method)
    kept = {key: table[key].copy() for key in ("coeffs", "rates", "first")}
    passes = [[(s, block.copy()) for s, block in dynamics.evaluate(table)] for _ in range(2)]
    assert [s for s, _ in passes[0]] == [s for s, _ in passes[1]] == [0, dynamics._CHUNK]
    for (_, one), (_, two) in zip(*passes):
        assert one.shape[:2] == (3, 2) and np.array_equal(one, two)
    for key, value in kept.items():
        assert np.array_equal(table[key], value)


def test_propagate_gates_each_column_against_its_own_initial_trace():
    # |0><0| - |1><1| is Hermitian and traceless: its trace stays 0, which a
    # gate on abs(tr rho - 1) would refuse; beside a density matrix it runs
    dims, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.7)
    traceless = np.diag([1.0, -1.0, 0.0]).astype(complex).reshape(-1)
    columns = np.stack([traceless, fock_density(dims, [2]).reshape(-1)],
                       axis=1)
    rows = np.random.default_rng(14).normal(size=(3, 9)) + 0j
    t = np.linspace(0.0, 2.0, 41)
    out, stats = series(H, collapse, dims, columns, rows, t)
    assert stats["max_trace_drift"] <= 1e-12
    assert np.max(np.abs(out - dense_series(H, collapse, columns, rows, t))) <= 1e-12


# closed-system (unitary) evolution: evolve_master with no collapse operators


def test_evolve_unitary_phase_only():
    w = 3.0
    dims = (2,)
    H = np.diag([w / 2, -w / 2]).astype(complex)
    rho0 = fock_density(dims, [0])
    t = np.linspace(0.0, np.pi / w, 5)
    final = evolve_master(H, (), dims, rho0, t)[0][-1]
    assert abs(final[0, 0] - 1.0) <= 1e-12
    assert np.max(np.abs(final[1])) <= 1e-12


def test_evolve_unitary_exchange_block():
    # H = -Omega (|01><10| + h.c.) sends |01> to +i|10> at Omega t = pi/2,
    # the phase convention of the published exchange matrix; |00> is the
    # phase reference that the coherence <10|rho|00> = i/2 shows it against
    omega = 2.0
    dims = (2, 2)
    hmat = np.zeros((4, 4), dtype=complex)
    hmat[1, 2] = hmat[2, 1] = -omega
    H = hmat
    rho0 = ket_density([1.0, 1.0, 0.0, 0.0])
    t = np.linspace(0.0, np.pi / (2 * omega), 9)
    final = evolve_master(H, (), dims, rho0, t)[0][-1]
    assert abs(final[2, 0] - 0.5j) <= 1e-12
    assert abs(final[1, 1]) <= 1e-12


def test_evolve_unitary_energy_conserved():
    rng = np.random.default_rng(2)
    dims = (5,)
    hmat = rng.normal(size=(5, 5))
    H = hmat + hmat.T
    rho0 = ket_density(rng.normal(size=5) + 1j * rng.normal(size=5))
    t = np.linspace(0.0, 10.0, 101)
    states, _ = evolve_master(H, (), dims, rho0, t)
    e = np.einsum("ij,tji->t", H, states).real
    assert np.max(np.abs(e - e[0])) <= 1e-10 * max(1.0, abs(e[0]))


def test_standard_channels_structure():
    dims = (3, 2, 2)
    cs = standard_channels(dims, kappa=1.0, gamma_m=0.5, n_th=0.3)
    assert len(cs) == 5  # cavity + 2 beams x (up, down)
    cs0 = standard_channels(dims, kappa=1.0, gamma_m=0.5, n_th=0.0)
    assert len(cs0) == 3  # thermal pumping drops out at n_th = 0


def kron_liouvillian(H, collapse):
    """The dense Kronecker-product Liouvillian on row-major vec(rho)."""
    d = len(H)
    eye = np.eye(d, dtype=complex)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for c in collapse:
        cdc = c.conj().T @ c
        L += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return L


def parity_model(mix=None, seed=7):
    """Cavity (2 levels) x beam (3 levels): a random parity-keeping H, cavity
    decay and thermal beam channels; mix="H" adds a parity-mixing term to H,
    mix="collapse" the parity-mixing channel a + a†a (a + a† would only flip
    the parity, which keeps the blocks)."""
    rng = np.random.default_rng(seed)
    dims = (2, 3)
    p = parity(dims)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = np.where(p[:, None] == p[None, :], m + m.conj().T, 0.0)
    if mix == "H":
        h[0, 1] = h[1, 0] = 0.3
    a = embed(annihilation_op(2), dims, 0)
    b = embed(annihilation_op(3), dims, 1)
    ops = [0.4 * a, 0.3 * b, 0.2 * b.conj().T]
    if mix == "collapse":
        ops.append(0.5 * (a + a.conj().T @ a))
    return dims, h, tuple(ops)


def k_form_liouvillian(H, collapse):
    """The dense standard form L = -i K⊗1 + i 1⊗conj(K) + sum_C C⊗conj(C),
    K = H - (i/2) sum_C C†C, through np.kron."""
    eye = np.eye(len(H), dtype=complex)
    K = H - 0.5j * sum(op.conj().T @ op for op in collapse)
    L = -1j * np.kron(K, eye) + 1j * np.kron(eye, K.conj())
    for op in collapse:
        L += np.kron(op, op.conj())
    return L


def test_block_liouvillian_is_the_kron_formula_on_the_block():
    dims, H, collapse = parity_model()
    L = k_form_liouvillian(H, collapse)
    assert np.array_equal(liouvillian(H, collapse), L)
    # the textbook commutator form, to rounding
    assert np.max(np.abs(L - kron_liouvillian(H, collapse))) <= 1e-15 * np.abs(L).max()
    blocks = parity_blocks(H, collapse, dims)
    assert [b.size for b in blocks] == [18, 18]
    rng = np.random.default_rng(3)
    for block in blocks + [np.sort(rng.choice(36, size=11, replace=False))]:
        assert np.array_equal(liouvillian(H, collapse, block)[:, block], L[np.ix_(block, block)])
    rows, cols = rng.choice(36, size=7, replace=False), rng.choice(36, size=13, replace=False)
    assert np.array_equal(liouvillian(H, collapse, rows)[:, cols], L[np.ix_(rows, cols)])
    # rows are full width
    assert np.array_equal(liouvillian(H, collapse, rows), L[rows])
    # and L couples no entry of a parity block to one outside it
    even = np.isin(np.arange(36), blocks[0])
    assert not np.any(L[np.ix_(even, ~even)]) and not np.any(L[np.ix_(~even, even)])


def _dense_outputs(H, collapse, columns, t):
    P = expm(kron_liouvillian(H, collapse) * (t[1] - t[0]))
    out = [columns]
    for _ in t[1:]:
        out.append(P @ out[-1])
    return out


def _states(H, collapse, dims, columns, t, method="expm"):
    """(n_t, d*d, k) vec(rho) outputs of propagate, read back through the
    rows [I; -iI], whose real parts are Re and Im of vec(rho); and the stats."""
    n = columns.shape[0]
    eye = np.eye(n)
    out, stats = series(H, collapse, dims, columns, np.concatenate([eye, -1j * eye]), t, method)
    return (out[:, :n] + 1j * out[:, n:]).transpose(2, 1, 0), stats


# (n_blocks, support) for a single-parity and a mixed-parity initial state
@pytest.mark.parametrize("mix, sizes", [(None, [(1, 18), (2, 36)]),
                                        ("H", [(1, 36), (1, 36)]),
                                        ("collapse", [(1, 36), (1, 36)])])
def test_propagate_on_parity_blocks_matches_dense_expm(mix, sizes):
    dims, H, collapse = parity_model(mix)
    t = np.linspace(0.0, 2.0, 41)
    one = ket_density([1, 0, 0.5j, 0, 0.3, 0])  # even kets only
    both = ket_density([1, 0.7, 0, 0, 0, 0.2j])  # both parities
    for rho, size in zip((one, both), sizes):
        columns = np.stack([rho.reshape(-1),
                            fock_density(dims, [1, 1]).reshape(-1)],
                           axis=1)
        seen, stats = _states(H, collapse, dims, columns, t)
        assert (stats["n_blocks"], stats["support"]) == size
        for vec, ref in zip(seen, _dense_outputs(H, collapse, columns, t), strict=True):
            assert np.max(np.abs(vec - ref)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mix=st.sampled_from([None, "collapse"]),
       k=st.integers(1, 3), t_max=st.floats(0.1, 4.0), method=st.sampled_from(["expm", "rk4"]))
def test_propagate_matches_dense_expm_property(seed, mix, k, t_max, method):
    # a parity-keeping and a parity-mixing random model, random rho0 batches:
    # every output equals expm(L t_i) v0 and is a density matrix
    dims, H, collapse = parity_model(mix, seed)
    columns = random_densities(np.random.default_rng([seed, 1]), 6, k)
    t = np.linspace(0.0, t_max, 9)
    seen, stats = _states(H, collapse, dims, columns, t, method)
    assert stats["n_blocks"] == (2 if mix is None else 1)
    assert_density_outputs_match_expm(H, collapse, columns, t, seen, method)


def assert_density_outputs_match_expm(H, collapse, columns, t, seen, method):
    """Every output equals expm(L t_i) v0 and is a density matrix."""
    d, k = len(H), columns.shape[1]
    # rk4 adds its discretization error, ~1e-12 here at the default substep phase
    tol = 1e-10 if method == "expm" else 1e-9
    for vec, ref in zip(seen, _dense_outputs(H, collapse, columns, t), strict=True):
        assert np.max(np.abs(vec - ref)) <= tol
        rho = vec.T.reshape(k, d, d)
        adj = rho.conj().swapaxes(1, 2)
        assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) <= 1e-10
        assert np.max(np.abs(rho - adj)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(0.5 * (rho + adj))) >= -1e-10


def swap_model(mix=None, seed=7, swap=True):
    """Cavity x beam x beam, two levels each: a random parity-keeping H made
    exactly invariant under the beam swap, cavity decay and thermal beam
    channels, the beams damped at one rate (two rates when swap=False);
    mix="collapse" adds the parity-mixing cavity channel a + a†a."""
    rng = np.random.default_rng(seed)
    dims = (2, 2, 2)
    p = parity(dims)
    perm = np.arange(8).reshape(2, 2, 2).swapaxes(1, 2).reshape(-1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = np.where(p[:, None] == p[None, :], m + m.conj().T, 0.0)
    a = embed(annihilation_op(2), dims, 0)
    b1, b2 = (embed(annihilation_op(2), dims, slot) for slot in (1, 2))
    g1, g2 = (float(g) for g in rng.uniform(0.1, 0.5, size=2))
    ops = [0.4 * a, g1 * b1, (g1 if swap else g2) * b2, 0.2 * b1.conj().T, 0.2 * b2.conj().T]
    if mix == "collapse":
        ops.append(0.5 * (a + a.conj().T @ a))
    return dims, m + m[np.ix_(perm, perm)], tuple(ops)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mix=st.sampled_from([None, "collapse"]),
       k=st.integers(1, 3), t_max=st.floats(0.1, 4.0), method=st.sampled_from(["expm", "rk4"]))
def test_propagate_on_swap_sectors_matches_dense_expm_property(seed, mix, k, t_max, method):
    # a beam-swap-symmetric model and random rho0, which are not: every block
    # splits into an even and an odd sector, and both are occupied
    dims, H, collapse = swap_model(mix, seed)
    assert beam_swap(H, collapse, dims) is not None
    columns = random_densities(np.random.default_rng([seed, 1]), 8, k)
    t = np.linspace(0.0, t_max, 9)
    seen, stats = _states(H, collapse, dims, columns, t, method)
    assert stats["n_blocks"] == (2 if mix is None else 1)
    assert len(stats["sectors"]) == 2 * stats["n_blocks"]
    assert sum(stats["sectors"]) == stats["support"]
    assert_density_outputs_match_expm(H, collapse, columns, t, seen, method)


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagate_without_the_swap_keeps_one_sector_per_block(method):
    # unequal beam damping breaks the swap: one real sector per parity block
    dims, H, collapse = swap_model(swap=False)
    assert beam_swap(H, collapse, dims) is None
    columns = random_densities(np.random.default_rng(5), 8, 2)
    t = np.linspace(0.0, 2.0, 9)
    seen, stats = _states(H, collapse, dims, columns, t, method)
    assert stats["sectors"] == [32, 32]
    assert_density_outputs_match_expm(H, collapse, columns, t, seen, method)


def sector_basis_matrix(D, block, sectors):
    """The dense matrix whose columns are the sectors' basis vectors, built
    on the D rows of vec(rho) and restricted to the rows of `block`."""
    Q = np.zeros((D, block.size), dtype=complex)
    start = 0
    for idx, coef in sectors:
        # every index a nonzero coefficient names lies in the parity block
        assert np.all(np.isin(idx[coef != 0], block))
        cols = start + np.arange(idx.shape[0])
        for t in range(idx.shape[1]):
            np.add.at(Q, (idx[:, t], cols), coef[:, t])
        start = cols[-1] + 1
    assert start == block.size
    return Q[block]


def test_sector_liouvillian_is_the_real_part_of_q_dagger_l_q():
    for mix, swap, sizes in ((None, True, [20, 12]), ("collapse", True, [40, 24]),
                             (None, False, [32])):
        dims, H, collapse = swap_model(mix, swap=swap)
        block = parity_blocks(H, collapse, dims)[0]
        sectors = symmetry_sectors(H, collapse, dims, block)
        assert [idx.shape[0] for idx, _ in sectors] == sizes
        L = kron_liouvillian(H, collapse)[np.ix_(block, block)]
        Q = sector_basis_matrix(H.size, block, sectors)
        assert np.allclose(Q.conj().T @ Q, np.eye(block.size), rtol=0.0, atol=1e-15)
        # L never couples two sectors
        full = Q.conj().T @ L @ Q
        start = 0
        for idx, coef in sectors:
            inside = slice(start, start + idx.shape[0])
            Ls = sector_liouvillian(H, collapse, idx, coef)
            assert Ls.dtype == np.float64
            assert np.allclose(Ls, full[inside, inside], rtol=0.0, atol=1e-13 * np.abs(L).max())
            full[inside, inside] = 0.0
            start += idx.shape[0]
        assert np.max(np.abs(full)) <= 1e-13 * np.abs(L).max()


@pytest.mark.parametrize("slab", [1, 4096])
def test_sector_liouvillian_does_not_depend_on_its_slab(monkeypatch, slab):
    # each row of L_s is built from its own rows of L alone, so the number of
    # rows of L built at once leaves every bit of it as it is
    cfg = ScenarioConfig.from_mapping({"params": PAPER_V1, "dims": {"n_cav": 2, "n_b": 4}})
    H, collapse, dims, _ = open_system(cfg)
    assert len(collapse) == 5  # cavity decay and both thermal channels of both beams
    block = parity_blocks(H, collapse, dims)[0]
    sectors = symmetry_sectors(H, collapse, dims, block)
    built = [sector_liouvillian(H, collapse, idx, coef) for idx, coef in sectors]
    assert dynamics._SLAB < max(np.unique(idx[:, 0]).size for idx, _ in sectors) <= 4096
    monkeypatch.setattr(dynamics, "_SLAB", slab)
    for (idx, coef), Ls in zip(sectors, built):
        assert np.array_equal(sector_liouvillian(H, collapse, idx, coef).view(np.uint64),
                              Ls.view(np.uint64))


@pytest.mark.parametrize("n_b", [2, 4, 5])
@pytest.mark.parametrize("n_cav", [2, 3, 4, 5])
def test_sector_bound_covers_the_sectors_built(n_cav, n_b):
    # the closed form a config is refused by against the sectors `propagate`
    # decomposes, on every truncation the config property draws: B is the
    # larger parity block and m at least its largest symmetry sector (26
    # against 20 at (2, 2), 666 against 616 at (3, 4), 5532 against 5328 at
    # (4, 6))
    cfg = ScenarioConfig.from_mapping({"params": PAPER_V1, "dims": {"n_cav": n_cav, "n_b": n_b}})
    H, collapse, dims, _ = open_system(cfg)
    blocks = parity_blocks(H, collapse, dims)
    B, m = sector_bound(dims)
    assert len(blocks) == 2 and B == max(b.size for b in blocks)
    largest = max(idx.shape[0] for b in blocks for idx, _ in symmetry_sectors(H, collapse, dims, b))
    assert largest <= m < B


def test_only_dynamics_reads_its_private_names():
    # what a propagation holds is counted beside it: no other module of the
    # package reads a `dynamics._*` name, as an attribute or an import
    package = Path(dynamics.__file__).parent
    found = []
    for source in sorted(package.glob("*.py")):
        if source.name == "dynamics.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "dynamics"
                    and node.attr.startswith("_")):
                found.append(f"{source.name}:{node.lineno} reads dynamics.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "dynamics":
                found += [f"{source.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_paper_v1_nb4_parity_block_splits_into_real_sectors(monkeypatch):
    # the n_b = 4 run's cost is the eigendecomposition of this block; a silent
    # fallback to one complex block would keep every output and lose the speed-up
    cfg = ScenarioConfig.from_mapping({"params": PAPER_V1, "dims": {"n_cav": 3, "n_b": 4}})
    H, collapse, dims, _ = open_system(cfg)
    block = parity_blocks(H, collapse, dims)[0]
    sectors = symmetry_sectors(H, collapse, dims, block)
    assert [idx.shape[0] for idx, _ in sectors] == [616, 536]
    Q = sector_basis_matrix(H.size, block, sectors)
    assert np.allclose(Q.conj().T @ Q, np.eye(block.size), rtol=0.0, atol=1e-15)
    # the real generators are Q^H L Q only for a Hermitian H; this one is exactly so
    assert np.array_equal(H, H.conj().T)
    # and propagate builds them from rows of L, never from the complex block
    asked = []

    def spy(H, collapse, rows=None):
        asked.append(H.size if rows is None else len(rows))
        return liouvillian(H, collapse, rows)

    monkeypatch.setattr(dynamics, "liouvillian", spy)
    rho0 = fock_density(dims, [1, 0, 1]).reshape(-1, 1)
    _, stats = series(H, collapse, dims, rho0, np.zeros((1, H.size)),
                         np.linspace(0.0, 1e-7, 3))
    assert stats["sectors"] == [616, 536] and stats["sector_imag"] == 0.0
    assert asked and max(asked) < block.size


def test_parity_blocks_fall_back_to_one_block():
    for mix in ("H", "collapse"):
        dims, H, collapse = parity_model(mix)
        assert [b.size for b in parity_blocks(H, collapse, dims)] == [36]
    # a quadrature channel flips the parity: still two blocks
    dims, H, collapse = parity_model()
    a = embed(annihilation_op(2), dims, 0)
    flipping = collapse + (a + a.conj().T,)
    assert [b.size for b in parity_blocks(H, flipping, dims)] == [18, 18]


def test_evolve_master_returns_distinct_states():
    # a Fock state occupies one parity block; each state is read back on its own
    dims, H, a, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    rho0 = fock_density(dims, [2])
    t = np.linspace(0.0, 2.0, 5)
    states, stats = evolve_master(H, collapse, dims, rho0, t)
    assert stats["support"] == 5
    assert states.shape == (5, 3, 3)
    assert np.array_equal(states[0], rho0)
    top = states[:, 2, 2].real
    assert np.all(np.diff(top) < 0)
    assert top[-1] == pytest.approx(np.exp(-2 * 0.5 * 2.0), abs=1e-12)
