"""Reference computations that only the tests use, on plain NumPy arrays.

A ket is a (d,) vector and a density matrix a (d, d) array, as
`dynamics.propagate` takes them. `series` and `evolve_master` read the whole
output series of `propagate` back through its `reduce` argument, so the
package itself never holds it. An oracle that evolves a scenario takes its
H, collapse set, dims and qubit isometry from `runner.open_system`, as the
runner does; only its columns, rows and readout are its own.
"""
from math import prod

import numpy as np

from phonongate import dynamics, runner
from phonongate.duffing import duffing_hamiltonian
from phonongate.gates import cnot_sequence, ideal_cnot

CNOT = ideal_cnot()


def series(H, collapse, dims, columns, rows, t_grid, method="expm"):
    """The whole real (k, r, n_t) series of `propagate`, and its stats."""
    chunks = []
    stats = dynamics.propagate(H, collapse, dims, columns, rows, t_grid, method,
                               lambda s, block: chunks.append(block.copy()))
    return np.concatenate(chunks, axis=-1), stats


def evolve_master(H, collapse, dims, rho0, t_grid, method="expm"):
    """The (n_t, d, d) states of `propagate` from the (d, d) rho0 at every
    time of the grid, and its stats, which also carry the Hermiticity drift
    (max_herm_drift) and minimum eigenvalue (min_eigenvalue) over all outputs."""
    d = len(H)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise ValueError(f"initial state {rho0.shape} and Hamiltonian ({d}, {d}) "
                         "live on different spaces")
    eye = np.eye(d * d)  # the real parts of the rows [I; -iI] are Re and Im of vec(rho)
    out, stats = series(H, collapse, dims, rho0.reshape(-1, 1),
                        np.concatenate([eye, -1j * eye]), t_grid, method)
    states = (out[0, :d * d] + 1j * out[0, d * d:]).T.reshape(-1, d, d)
    stats["max_herm_drift"], stats["min_eigenvalue"] = dynamics._health(states)
    return states, stats


def per_ket_fidelity_series(cfg, kets, weights=None, group=32):
    """The series of `runner.master_fidelity_series` by the per-ket route:
    one column vec(psi psi†) per ket, psi = |cavity_fock> (x) kk v, read by
    its own 2 rows, the numerator tr((1 (x) conj(u) u^T) rho) with
    u = kk CNOT v and the weight tr((1 (x) P^T) rho), on row-major vec(rho).
    `propagate` reads one row set from all of its columns, so the kets go
    through in groups of `group`, each group's columns against all of the
    group's rows, and each ket keeps its own 2. Returns (times, fidelity,
    leakage) as master_fidelity_series does."""
    H, collapse, dims, kk = runner.open_system(cfg)
    times = cfg.time_grid()
    m = kk.shape[0]
    cav = np.zeros((cfg.n_cav, 1, 1), dtype=complex)
    cav[cfg.cavity_fock] = 1.0
    cav_eye = np.eye(cfg.n_cav)[:, None, :, None]
    num, weight = np.empty((2, len(kets), times.size))
    for s in range(0, len(kets), group):
        v = kets[s:s + group]
        g = len(v)
        psi = (cav * (v @ kk.T).T).reshape(-1, g)
        columns = (psi[:, None] * psi.conj()).reshape(-1, g)
        u = v @ CNOT.T @ kk.T
        blocks = np.empty((g, 2, m, m), dtype=complex)
        blocks[:, 0] = u.conj()[:, :, None] * u[:, None, :]
        blocks[:, 1] = kk.conj() @ kk.T
        rows = (cav_eye * blocks[:, :, None, :, None, :]).reshape(2 * g, -1)
        out, _ = series(H, collapse, dims, columns, rows, times, cfg.integrator)
        own = out.reshape(g, g, 2, -1)[np.arange(g), np.arange(g)]  # column i, rows 2i, 2i + 1
        num[s:s + g], weight[s:s + g] = own[:, 0], own[:, 1]
    fid = np.maximum(num / weight, 0.0)
    if cfg.fidelity_convention == "amplitude":
        fid = np.sqrt(fid)
    if weights is None:
        return times, fid, 1.0 - weight
    return times, weights @ fid / weights.sum(), weights @ (1.0 - weight) / weights.sum()


def ket_density(v):
    """|v><v| of the ket v normalized."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def fock_density(dims, occupations):
    """|n0, n1, ...><n0, n1, ...| on the factors `dims`, the first outermost."""
    i = np.ravel_multi_index(tuple(occupations), tuple(dims))
    rho = np.zeros((prod(dims), prod(dims)), dtype=complex)
    rho[i, i] = 1.0
    return rho


def partial_trace(rho, dims, keep):
    """The (d, d) density matrix on the factors `dims` with every factor not
    in `keep` (sorted, non-empty) traced out."""
    keep = tuple(keep)
    if not keep or list(keep) != sorted(set(keep)) or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"invalid keep set {keep} for {len(dims)} factors")
    t = np.asarray(rho).reshape(tuple(dims) * 2)
    # contract traced-out factors pairwise, from the right to keep axes stable
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    m = prod(dims[k] for k in keep)
    return t.reshape(m, m)


def gate_fidelity_matrix(psi_in, Omega_t):
    """F_G = |<v| CNOT† U_Gate(Omega t) |v>|^2 through the composed gate
    sequence; the matrix-path partner of `fidelity.gate_fidelity_closed`."""
    v = np.asarray(psi_in, dtype=complex)
    return float(abs(v.conj() @ CNOT.conj().T @ cnot_sequence(Omega_t, 1.0) @ v) ** 2)


def truncation_convergence(omega_m, lam, n_levels=4, dim_lo=16, dim_hi=24):
    """Max relative change of the lowest n_levels Duffing energies between two
    truncations."""
    lo = np.linalg.eigvalsh(duffing_hamiltonian(omega_m, lam, dim_lo))[:n_levels]
    hi = np.linalg.eigvalsh(duffing_hamiltonian(omega_m, lam, dim_hi))[:n_levels]
    ref = np.where(np.abs(hi) > 0, np.abs(hi), 1.0)
    return float(np.max(np.abs(lo - hi) / ref))
