import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar, k as kB
from scipy.linalg import expm

from phonongate import dynamics
from phonongate.dynamics import (
    EIG_TOL,
    CollapseSet,
    IntegrationError,
    Trajectory,
    _rk4_rates,
    beam_swap,
    evolve_master,
    evolve_unitary,
    liouvillian,
    mech_damping,
    parity_blocks,
    propagate,
    sector_liouvillian,
    symmetry_sectors,
    thermal_occupation,
)
from phonongate.fockspace import (
    Operator,
    QuantumState,
    SpaceDescriptor,
    annihilation_op,
    embed,
    number_op,
)
from phonongate.hamiltonians import system_hamiltonian
from phonongate.runner import PAPER_V1, ScenarioConfig, resolved_params

TWOPI = 2 * np.pi


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(TWOPI * 1e6, 0.0) == 0.0


def test_thermal_occupation_ln2_point():
    # hbar w = kB T ln 2  ->  n = 1/(2 - 1) = 1
    T = 1e-3
    w = kB * T * np.log(2) / hbar
    assert thermal_occupation(w, T) == pytest.approx(1.0, rel=1e-12)


def test_thermal_occupation_published_point():
    # Bose-Einstein at 28.6 MHz and 3 mK with CODATA constants
    assert thermal_occupation(TWOPI * 28.6e6, 3e-3) == pytest.approx(1.7237, rel=1e-3)


def test_thermal_occupation_errors():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -1.0)


def test_mech_damping():
    w = TWOPI * 28.6e6
    assert mech_damping(w, 5e6) == pytest.approx(35.938, rel=1e-3)
    assert mech_damping(w, 1.0) == w
    assert mech_damping(w, 1e30) == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ValueError):
        mech_damping(w, 0.0)


def cavity_decay_setup(dim=2, kappa=1.0):
    space = SpaceDescriptor((dim,))
    H = Operator(space, np.zeros((dim, dim)), hermitian=True)
    a = annihilation_op(dim)
    collapse = CollapseSet((np.sqrt(kappa) * a,))
    return space, H, a, collapse


def lindblad_rhs(H, collapse, rho):
    """rho_dot as the Liouvillian applied to row-major vec(rho)."""
    mat = rho.to_density().data
    return (liouvillian(H, collapse) @ mat.reshape(-1)).reshape(mat.shape)


def test_lindblad_rhs_free_evolution_is_zero():
    space, H, _, _ = cavity_decay_setup()
    rho = QuantumState.fock(space, [1]).to_density()
    out = lindblad_rhs(H, CollapseSet(()), rho)
    assert np.max(np.abs(out)) == 0.0


def test_lindblad_rhs_decay_rate():
    # d<a†a>/dt = -kappa on the one-photon state
    kappa = 0.7
    space, H, a, collapse = cavity_decay_setup(kappa=kappa)
    rho = QuantumState.fock(space, [1]).to_density()
    out = lindblad_rhs(H, collapse, rho)
    n = (a.dag() @ a).data
    assert np.trace(n @ out).real == pytest.approx(-kappa, rel=1e-12)


def test_lindblad_rhs_traceless_hermitian():
    rng = np.random.default_rng(0)
    space = SpaceDescriptor((4,))
    hmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = Operator(space, hmat + hmat.conj().T)
    collapse = CollapseSet((0.3 * annihilation_op(4),))
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    out = lindblad_rhs(H, collapse, QuantumState.density(space, rho))
    assert abs(np.trace(out)) <= 1e-10 * np.linalg.norm(out)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(out)))


def thermal_channels(space, gamma, n_th):
    b = annihilation_op(space.dims[0])
    return CollapseSet((np.sqrt(gamma * n_th) * b.dag(), np.sqrt(gamma * (n_th + 1)) * b))


def test_lindblad_rhs_thermal_fixed_point():
    # geometric(n_th) diagonal state is stationary, truncation included
    dim, n_th, gamma = 10, 0.7, 2.0
    space = SpaceDescriptor((dim,))
    H = Operator(space, np.zeros((dim, dim)), hermitian=True)
    r = n_th / (n_th + 1.0)
    pops = r ** np.arange(dim)
    pops /= pops.sum()
    rho = QuantumState.density(space, np.diag(pops).astype(complex))
    out = lindblad_rhs(H, thermal_channels(space, gamma, n_th), rho)
    assert np.max(np.abs(out)) <= 1e-14 * gamma
    # and it matches the Liouvillian nullspace (brute-force stationary solve)
    L = liouvillian(H, thermal_channels(space, gamma, n_th))
    w, vecs = np.linalg.eig(L)
    ker = vecs[:, np.argmin(np.abs(w))].reshape(dim, dim)
    ker = ker / np.trace(ker)
    assert np.max(np.abs(ker - rho.data)) <= 1e-8


def test_lindblad_rhs_space_mismatch():
    # collapse operators on another space than H
    _, H, _, _ = cavity_decay_setup()
    other = CollapseSet((annihilation_op(3),))
    for build in (liouvillian, parity_blocks):
        with pytest.raises(ValueError, match="different spaces"):
            build(H, other)


def test_evolve_master_space_mismatch():
    _, H, _, collapse = cavity_decay_setup()
    rho0 = QuantumState.fock(SpaceDescriptor((3,)), [0]).to_density()
    with pytest.raises(ValueError, match="different spaces"):
        evolve_master(H, collapse, rho0, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_evolve_master_cavity_decay(method):
    kappa = 1.0
    space, H, a, collapse = cavity_decay_setup(kappa=kappa)
    rho0 = QuantumState.fock(space, [1]).to_density()
    t = np.linspace(0.0, 3.0 / kappa, 61)
    n = (a.dag() @ a).data
    traj = evolve_master(H, collapse, rho0, t, method,
                         observables={"n": lambda r: np.trace(n @ r).real})
    assert np.max(np.abs(traj.observables["n"] - np.exp(-kappa * t))) <= 1e-6
    assert traj.stats["max_trace_drift"] <= 1e-6
    assert traj.stats["min_eigenvalue"] >= -1e-6


def test_evolve_master_thermal_steady_state():
    dim, n_th, gamma = 25, 1.7237, 1.0
    space = SpaceDescriptor((dim,))
    H = Operator(space, np.zeros((dim, dim)), hermitian=True)
    collapse = thermal_channels(space, gamma, n_th)
    rho0 = QuantumState.fock(space, [0]).to_density()
    t = np.linspace(0.0, 10.0 / gamma, 201)
    n = number_op(dim).data
    traj = evolve_master(H, collapse, rho0, t,
                         observables={"n": lambda r: np.trace(n @ r).real})
    assert traj.observables["n"][-1] == pytest.approx(n_th, rel=0.01)


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_evolve_master_matches_unitary_without_dissipation(method):
    rng = np.random.default_rng(1)
    space = SpaceDescriptor((2, 3))
    hmat = rng.normal(size=(6, 6))
    H = Operator(space, (hmat + hmat.T) * 1.0)
    psi0 = QuantumState.ket(space, rng.normal(size=6) + 1j * rng.normal(size=6))
    t = np.linspace(0.0, 4.0, 41)
    traj_u = evolve_unitary(H, psi0, t)
    traj_m = evolve_master(H, CollapseSet(()), psi0.to_density(), t, method)
    for k in (10, 25, 40):
        proj = np.outer(traj_u.states[k], traj_u.states[k].conj())
        assert np.max(np.abs(traj_m.states[k] - proj)) <= 1e-8


def test_evolve_master_grid_validation():
    space, H, _, collapse = cavity_decay_setup()
    rho0 = QuantumState.fock(space, [1]).to_density()
    with pytest.raises(ValueError):
        evolve_master(H, collapse, rho0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        evolve_master(H, collapse, rho0, np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_trace_gate_fails_at_once(monkeypatch, method):
    # the two-level decay keeps its trace exactly; |2> of three levels drifts by rounding
    space, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    rho0 = QuantumState.fock(space, [2]).to_density()
    monkeypatch.setattr(dynamics, "TRACE_TOL", 1e-17)
    with pytest.raises(IntegrationError, match="trace drift") as err:
        evolve_master(H, collapse, rho0, np.linspace(0.0, 1.0, 11), method)
    assert err.value.stats["max_trace_drift"] > 1e-17


def test_rk4_trace_drift_does_not_depend_on_substeps(monkeypatch):
    # the trace row is a left null vector of L: only the lambda = 0 modes
    # reach it and R(0) = 1, so more substeps cannot change its drift
    space, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    cols = np.stack([QuantumState.fock(space, [n]).to_density().data.reshape(-1)
                     for n in (1, 2)], axis=1)
    t = np.linspace(0.0, 1.0, 11)

    def drift(method):
        _, stats = propagate(H, collapse, cols, np.eye(9), t, method)
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
    space, H, _, collapse = cavity_decay_setup()
    cols = QuantumState.fock(space, [1]).to_density().data.reshape(-1, 1)
    with pytest.raises(ValueError):
        propagate(H, collapse, cols, np.eye(4), np.array([0.0, 0.1, 0.3]))


def test_propagate_rejects_bad_rows():
    space, H, _, collapse = cavity_decay_setup()
    cols = QuantumState.fock(space, [1]).to_density().data.reshape(-1, 1)
    for rows in (np.eye(3), np.ones((2, 1, 4)), np.ones(4)):
        with pytest.raises(ValueError):
            propagate(H, collapse, cols, rows, np.linspace(0.0, 1.0, 3))


def test_propagate_rejects_nan_trace():
    space, H, _, collapse = cavity_decay_setup()
    cols = np.full((4, 1), np.nan, dtype=complex)
    # a NaN cancellation bound fails before any trace is evaluated
    with pytest.raises(IntegrationError, match="eigendecomposition"):
        propagate(H, collapse, cols, np.eye(4), np.linspace(0.0, 1.0, 3))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_propagate_refuses_a_defective_liouvillian():
    # |2> -> |1> -> |0> at equal rates: L has a Jordan block, so V is
    # singular. The residual and the reconstruction of rho0 both look clean;
    # only the cancellation bound sees the huge cancelling amplitudes.
    space = SpaceDescriptor((3,))
    H = Operator(space, np.zeros((3, 3)), hermitian=True)
    lower = np.zeros((2, 3, 3), dtype=complex)
    lower[0, 1, 2] = lower[1, 0, 1] = 1.0
    collapse = CollapseSet(tuple(Operator(space, op) for op in lower))
    rho0 = QuantumState.fock(space, [2]).to_density().data.reshape(-1, 1)
    with pytest.raises(IntegrationError, match="eigendecomposition") as err:
        propagate(H, collapse, rho0, np.eye(9), np.linspace(0.0, 5.0, 51))
    assert err.value.stats["eig_residual"] <= EIG_TOL
    assert err.value.stats["cancellation_bound"] > EIG_TOL


def test_propagate_refuses_a_non_hermitian_hamiltonian():
    # the standard form of L, K = H - (i/2) sum C†C, is the master equation's
    # only for a Hermitian H: the up-front check refuses the run
    space, _, _, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    H = Operator(space, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
    rho0 = QuantumState.fock(space, [1]).to_density().data.reshape(-1, 1)
    with pytest.raises(IntegrationError, match="eigendecomposition") as err:
        propagate(H, collapse, rho0, np.eye(9), np.linspace(0.0, 1.0, 11))
    assert err.value.stats["sector_imag"] > EIG_TOL


def test_evolve_master_hermiticity_and_positivity_stats():
    space, H, a, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    rho0 = QuantumState.ket(space, [0.6, 0.8j, 0.0]).to_density()
    t = np.linspace(0.0, 5.0, 101)
    traj = evolve_master(H, collapse, rho0, t)
    assert traj.stats["max_herm_drift"] <= 1e-8
    assert traj.stats["min_eigenvalue"] >= -1e-6


def random_densities(rng, d, k):
    """(d*d, k) batch of vec(rho) for k random full-rank density matrices."""
    m = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    rho = m @ m.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho.reshape(k, d * d).T


def test_propagate_batch_matches_per_column():
    space, H, _, collapse = cavity_decay_setup(dim=3, kappa=0.3)
    rng = np.random.default_rng(4)
    batch = random_densities(rng, 3, 3)
    stack = rng.normal(size=(3, 2, 9)) + 1j * rng.normal(size=(3, 2, 9))
    t = np.linspace(0.0, 2.0, 21)
    for method in ("expm", "rk4"):
        shared, _ = propagate(H, collapse, batch, stack[0], t, method)
        own, _ = propagate(H, collapse, batch, stack, t, method)
        # output 0 is the rows applied to the columns, not the mode sum at t = 0
        assert np.array_equal(own[..., 0], (stack @ batch.T[:, :, None])[..., 0].real)
        for i in range(3):
            column = batch[:, i:i + 1]
            assert np.allclose(shared[i], propagate(H, collapse, column, stack[0], t, method)[0][0],
                               rtol=0.0, atol=1e-14)
            assert np.allclose(own[i], propagate(H, collapse, column, stack[i], t, method)[0][0],
                               rtol=0.0, atol=1e-14)


def test_evolve_unitary_phase_only():
    w = 3.0
    space = SpaceDescriptor((2,))
    H = Operator(space, np.diag([w / 2, -w / 2]).astype(complex), hermitian=True)
    psi0 = QuantumState.fock(space, [0])
    t = np.linspace(0.0, np.pi / w, 5)
    traj = evolve_unitary(H, psi0, t)
    final = traj.states[-1]
    assert abs(abs(final[0]) - 1.0) <= 1e-12
    assert abs(final[1]) <= 1e-12


def test_evolve_unitary_exchange_block():
    # H = -Omega (|01><10| + h.c.) sends |01> to +i|10> at Omega t = pi/2,
    # the phase convention of the published exchange matrix
    omega = 2.0
    space = SpaceDescriptor((2, 2))
    hmat = np.zeros((4, 4), dtype=complex)
    hmat[1, 2] = hmat[2, 1] = -omega
    H = Operator(space, hmat, hermitian=True)
    psi0 = QuantumState.fock(space, [0, 1])
    t = np.linspace(0.0, np.pi / (2 * omega), 9)
    traj = evolve_unitary(H, psi0, t)
    final = traj.states[-1]
    assert abs(final[2] - 1j) <= 1e-12
    assert abs(final[1]) <= 1e-12


def test_evolve_unitary_energy_conserved():
    rng = np.random.default_rng(2)
    space = SpaceDescriptor((5,))
    hmat = rng.normal(size=(5, 5))
    H = Operator(space, hmat + hmat.T)
    psi0 = QuantumState.ket(space, rng.normal(size=5) + 1j * rng.normal(size=5))
    t = np.linspace(0.0, 10.0, 101)
    traj = evolve_unitary(H, psi0, t,
                          observables={"E": lambda v: np.real(v.conj() @ H.data @ v)})
    e = traj.observables["E"]
    assert np.max(np.abs(e - e[0])) <= 1e-10 * max(1.0, abs(e[0]))


def test_evolve_unitary_validation():
    space = SpaceDescriptor((2,))
    bad = Operator(space, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        evolve_unitary(bad, QuantumState.fock(space, [0]), np.linspace(0, 1, 3))


def test_standard_channels_structure():
    space = SpaceDescriptor((3, 2, 2))
    cs = CollapseSet.standard_channels(space, kappa=1.0, gamma_m=0.5, n_th=0.3)
    assert len(cs.ops) == 5  # cavity + 2 beams x (up, down)
    cs0 = CollapseSet.standard_channels(space, kappa=1.0, gamma_m=0.5, n_th=0.0)
    assert len(cs0.ops) == 3  # thermal pumping drops out at n_th = 0


def test_trajectory_csv_format(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), None,
                      {"F": np.array([1.0, 1 / 3, -0.0]), "G": np.array([np.nan, np.inf, 2e-300])})
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    content = path.read_bytes().decode()
    assert content.split("\n") == ["t_s,F,G", "0,1,nan", "0.5,0.33333333333333331,inf",
                                   "1,-0,2.0000000000000001e-300", ""]


def kron_liouvillian(H, collapse):
    """The dense Kronecker-product Liouvillian on row-major vec(rho)."""
    d = H.dim
    eye = np.eye(d, dtype=complex)
    L = -1j * (np.kron(H.data, eye) - np.kron(eye, H.data.T))
    for op in collapse.ops:
        c = op.data
        cdc = c.conj().T @ c
        L += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return L


def parity_model(mix=None, seed=7):
    """Cavity (2 levels) x beam (3 levels): a random parity-keeping H, cavity
    decay and thermal beam channels; mix="H" adds a parity-mixing term to H,
    mix="collapse" the parity-mixing channel a + a†a (a + a† would only flip
    the parity, which keeps the blocks)."""
    rng = np.random.default_rng(seed)
    space = SpaceDescriptor((2, 3))
    p = space.parity
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = np.where(p[:, None] == p[None, :], m + m.conj().T, 0.0)
    if mix == "H":
        h[0, 1] = h[1, 0] = 0.3
    a = embed(annihilation_op(2), space, 0)
    b = embed(annihilation_op(3), space, 1)
    ops = [0.4 * a, 0.3 * b, 0.2 * b.dag()]
    if mix == "collapse":
        ops.append(0.5 * (a + a.dag() @ a))
    return space, Operator(space, h), CollapseSet(tuple(ops))


def k_form_liouvillian(H, collapse):
    """The dense standard form L = -i K⊗1 + i 1⊗conj(K) + sum_C C⊗conj(C),
    K = H - (i/2) sum_C C†C, through np.kron."""
    eye = np.eye(H.dim, dtype=complex)
    K = H.data - 0.5j * sum(op.data.conj().T @ op.data for op in collapse.ops)
    L = -1j * np.kron(K, eye) + 1j * np.kron(eye, K.conj())
    for op in collapse.ops:
        L += np.kron(op.data, op.data.conj())
    return L


def test_block_liouvillian_is_the_kron_formula_on_the_block():
    space, H, collapse = parity_model()
    L = k_form_liouvillian(H, collapse)
    assert np.array_equal(liouvillian(H, collapse), L)
    # the textbook commutator form, to rounding
    assert np.max(np.abs(L - kron_liouvillian(H, collapse))) <= 1e-15 * np.abs(L).max()
    blocks = parity_blocks(H, collapse)
    assert [b.size for b in blocks] == [18, 18]
    rng = np.random.default_rng(3)
    for block in blocks + [np.sort(rng.choice(36, size=11, replace=False))]:
        assert np.array_equal(liouvillian(H, collapse, block), L[np.ix_(block, block)])
    rows, cols = rng.choice(36, size=7, replace=False), rng.choice(36, size=13, replace=False)
    assert np.array_equal(liouvillian(H, collapse, rows, cols), L[np.ix_(rows, cols)])
    # and L couples no entry of a parity block to one outside it
    even = np.isin(np.arange(36), blocks[0])
    assert not np.any(L[np.ix_(even, ~even)]) and not np.any(L[np.ix_(~even, even)])


def _dense_outputs(H, collapse, columns, t):
    P = expm(kron_liouvillian(H, collapse) * (t[1] - t[0]))
    out = [columns]
    for _ in t[1:]:
        out.append(P @ out[-1])
    return out


def _states(H, collapse, columns, t, method="expm"):
    """(n_t, d*d, k) vec(rho) outputs of propagate, read back through the
    rows [I; -iI], whose real parts are Re and Im of vec(rho); and the stats."""
    n = columns.shape[0]
    eye = np.eye(n)
    series, stats = propagate(H, collapse, columns, np.concatenate([eye, -1j * eye]), t, method)
    return (series[:, :n] + 1j * series[:, n:]).transpose(2, 1, 0), stats


# (n_blocks, support) for a single-parity and a mixed-parity initial state
@pytest.mark.parametrize("mix, sizes", [(None, [(1, 18), (2, 36)]),
                                        ("H", [(1, 36), (1, 36)]),
                                        ("collapse", [(1, 36), (1, 36)])])
def test_propagate_on_parity_blocks_matches_dense_expm(mix, sizes):
    space, H, collapse = parity_model(mix)
    t = np.linspace(0.0, 2.0, 41)
    one = QuantumState.ket(space, [1, 0, 0.5j, 0, 0.3, 0])  # even kets only
    both = QuantumState.ket(space, [1, 0.7, 0, 0, 0, 0.2j])  # both parities
    for ket, size in zip((one, both), sizes):
        columns = np.stack([ket.to_density().data.reshape(-1),
                            QuantumState.fock(space, [1, 1]).to_density().data.reshape(-1)],
                           axis=1)
        seen, stats = _states(H, collapse, columns, t)
        assert (stats["n_blocks"], stats["support"]) == size
        for vec, ref in zip(seen, _dense_outputs(H, collapse, columns, t), strict=True):
            assert np.max(np.abs(vec - ref)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mix=st.sampled_from([None, "collapse"]),
       k=st.integers(1, 3), t_max=st.floats(0.1, 4.0), method=st.sampled_from(["expm", "rk4"]))
def test_propagate_matches_dense_expm_property(seed, mix, k, t_max, method):
    # a parity-keeping and a parity-mixing random model, random rho0 batches:
    # every output equals expm(L t_i) v0 and is a density matrix
    _, H, collapse = parity_model(mix, seed)
    columns = random_densities(np.random.default_rng([seed, 1]), 6, k)
    t = np.linspace(0.0, t_max, 9)
    seen, stats = _states(H, collapse, columns, t, method)
    assert stats["n_blocks"] == (2 if mix is None else 1)
    assert_density_outputs_match_expm(H, collapse, columns, t, seen, method)


def assert_density_outputs_match_expm(H, collapse, columns, t, seen, method):
    """Every output equals expm(L t_i) v0 and is a density matrix."""
    d, k = H.dim, columns.shape[1]
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
    space = SpaceDescriptor((2, 2, 2))
    p = space.parity
    perm = np.arange(8).reshape(2, 2, 2).swapaxes(1, 2).reshape(-1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = np.where(p[:, None] == p[None, :], m + m.conj().T, 0.0)
    a = embed(annihilation_op(2), space, 0)
    b1, b2 = (embed(annihilation_op(2), space, slot) for slot in (1, 2))
    g1, g2 = (float(g) for g in rng.uniform(0.1, 0.5, size=2))
    ops = [0.4 * a, g1 * b1, (g1 if swap else g2) * b2, 0.2 * b1.dag(), 0.2 * b2.dag()]
    if mix == "collapse":
        ops.append(0.5 * (a + a.dag() @ a))
    return space, Operator(space, m + m[np.ix_(perm, perm)]), CollapseSet(tuple(ops))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mix=st.sampled_from([None, "collapse"]),
       k=st.integers(1, 3), t_max=st.floats(0.1, 4.0), method=st.sampled_from(["expm", "rk4"]))
def test_propagate_on_swap_sectors_matches_dense_expm_property(seed, mix, k, t_max, method):
    # a beam-swap-symmetric model and random rho0, which are not: every block
    # splits into an even and an odd sector, and both are occupied
    _, H, collapse = swap_model(mix, seed)
    assert beam_swap(H, collapse) is not None
    columns = random_densities(np.random.default_rng([seed, 1]), 8, k)
    t = np.linspace(0.0, t_max, 9)
    seen, stats = _states(H, collapse, columns, t, method)
    assert stats["n_blocks"] == (2 if mix is None else 1)
    assert len(stats["sectors"]) == 2 * stats["n_blocks"]
    assert sum(stats["sectors"]) == stats["support"]
    assert_density_outputs_match_expm(H, collapse, columns, t, seen, method)


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagate_without_the_swap_keeps_one_sector_per_block(method):
    # unequal beam damping breaks the swap: one real sector per parity block
    _, H, collapse = swap_model(swap=False)
    assert beam_swap(H, collapse) is None
    columns = random_densities(np.random.default_rng(5), 8, 2)
    t = np.linspace(0.0, 2.0, 9)
    seen, stats = _states(H, collapse, columns, t, method)
    assert stats["sectors"] == [32, 32]
    assert_density_outputs_match_expm(H, collapse, columns, t, seen, method)


def sector_basis_matrix(n, sectors):
    """The dense (n, n) matrix whose columns are the sectors' basis vectors."""
    Q = np.zeros((n, n), dtype=complex)
    start = 0
    for idx, coef in sectors:
        cols = start + np.arange(idx.shape[0])
        for t in range(idx.shape[1]):
            np.add.at(Q, (idx[:, t], cols), coef[:, t])
        start = cols[-1] + 1
    assert start == n
    return Q


def test_sector_liouvillian_is_the_real_part_of_q_dagger_l_q():
    for mix, swap, sizes in ((None, True, [20, 12]), ("collapse", True, [40, 24]),
                             (None, False, [32])):
        _, H, collapse = swap_model(mix, swap=swap)
        block = parity_blocks(H, collapse)[0]
        sectors = symmetry_sectors(H, collapse, block)
        assert [idx.shape[0] for idx, _ in sectors] == sizes
        L = kron_liouvillian(H, collapse)[np.ix_(block, block)]
        Q = sector_basis_matrix(block.size, sectors)
        assert np.allclose(Q.conj().T @ Q, np.eye(block.size), rtol=0.0, atol=1e-15)
        # L never couples two sectors
        full = Q.conj().T @ L @ Q
        start = 0
        for idx, coef in sectors:
            inside = slice(start, start + idx.shape[0])
            Ls = sector_liouvillian(H, collapse, block, idx, coef)
            assert Ls.dtype == np.float64
            assert np.allclose(Ls, full[inside, inside], rtol=0.0, atol=1e-13 * np.abs(L).max())
            full[inside, inside] = 0.0
            start += idx.shape[0]
        assert np.max(np.abs(full)) <= 1e-13 * np.abs(L).max()


def test_paper_v1_nb4_parity_block_splits_into_real_sectors(monkeypatch):
    # the n_b = 4 run's cost is the eigendecomposition of this block; a silent
    # fallback to one complex block would keep every output and lose the speed-up
    cfg = ScenarioConfig.from_mapping({"params": PAPER_V1, "dims": {"n_cav": 3, "n_b": 4}})
    p = resolved_params(cfg)
    space = SpaceDescriptor((3, 4, 4))
    H = system_hamiltonian(p, space, cfg.quadrature_convention)
    collapse = CollapseSet.standard_channels(space, p.kappa, p.gamma_m, p.n_th)
    block = parity_blocks(H, collapse)[0]
    sectors = symmetry_sectors(H, collapse, block)
    assert [idx.shape[0] for idx, _ in sectors] == [616, 536]
    Q = sector_basis_matrix(block.size, sectors)
    assert np.allclose(Q.conj().T @ Q, np.eye(block.size), rtol=0.0, atol=1e-15)
    # the real generators are Q^H L Q only for a Hermitian H; this one is exactly so
    assert np.array_equal(H.data, H.data.conj().T)
    # and propagate builds them from rows of L, never from the complex block
    asked = []

    def spy(H, collapse, rows=None, cols=None):
        asked.append(H.dim ** 2 if rows is None else len(rows))
        return liouvillian(H, collapse, rows, cols)

    monkeypatch.setattr(dynamics, "liouvillian", spy)
    rho0 = QuantumState.fock(space, [1, 0, 1]).to_density().data.reshape(-1, 1)
    _, stats = propagate(H, collapse, rho0, np.zeros((1, H.dim ** 2)),
                         np.linspace(0.0, 1e-7, 3))
    assert stats["sectors"] == [616, 536] and stats["sector_imag"] == 0.0
    assert asked and max(asked) < block.size


def test_parity_blocks_fall_back_to_one_block():
    for mix in ("H", "collapse"):
        _, H, collapse = parity_model(mix)
        assert [b.size for b in parity_blocks(H, collapse)] == [36]
    # a quadrature channel flips the parity: still two blocks
    space, H, collapse = parity_model()
    a = embed(annihilation_op(2), space, 0)
    flipping = CollapseSet(collapse.ops + (a + a.dag(),))
    assert [b.size for b in parity_blocks(H, flipping)] == [18, 18]


def test_evolve_master_returns_distinct_states():
    # a Fock state occupies one parity block; each state is read back on its own
    space, H, a, collapse = cavity_decay_setup(dim=3, kappa=0.5)
    rho0 = QuantumState.fock(space, [2]).to_density()
    t = np.linspace(0.0, 2.0, 5)
    traj = evolve_master(H, collapse, rho0, t)
    assert traj.stats["support"] == 5
    assert np.array_equal(traj.states[0], rho0.data)
    top = [rho[2, 2].real for rho in traj.states]
    assert np.all(np.diff(top) < 0)
    assert top[-1] == pytest.approx(np.exp(-2 * 0.5 * 2.0), abs=1e-12)
