"""Open-system (Lindblad) and closed-system propagation on a time grid.

The generator here is always time-independent. `propagate` is the one
stepping core: it advances a batch of vec(rho) columns over a uniform grid
through a `Propagator`, whose one-interval step matrix is either

* ``expm`` (default): the exact propagator e^{L dt}; deterministic and
  unconditionally stable, or
* ``rk4``: fixed-step classic Runge-Kutta. For a linear autonomous system a
  fixed-step RK4 sweep is exactly multiplication by the stability polynomial
  I + hL + ... + (hL)^4/24, so the substeps of one output interval are
  applied as a matrix power; identical to sequential stepping up to rounding
  and byte-deterministic across runs.

Both need a uniform grid. When H keeps the total occupation parity and
every collapse operator keeps or flips it, the Liouvillian never changes the
relative parity of an entry (i, j) of rho, so it splits exactly into two
blocks (`parity_blocks`); the step matrix is built only over the blocks the
initial columns occupy (the support).

`propagate` gates the trace drift at every output (rk4 doubles its substeps
and restarts; after the retry budget every method raises IntegrationError)
and reports the Hermiticity drift and minimum eigenvalue of the final
output. States are not symmetrized or diagonalized per step.

``rk45``, adaptive embedded Dormand-Prince 4(5) with per-step max-norm error
control, is reachable only through `evolve_master`, as the adaptive
cross-check of the other two.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.constants import hbar as HBAR_SI, k as KB_SI
from scipy.linalg import eigh, expm

from .files import atomic_write
from .fockspace import Operator, QuantumState, SpaceDescriptor, annihilation_op, embed


class IntegrationError(RuntimeError):
    """Step control failed; carries the integrator diagnostics."""

    def __init__(self, message: str, stats: dict):
        super().__init__(f"{message} (diagnostics: {stats})")
        self.stats = stats


def thermal_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar omega / kB T) - 1); 0 at T = 0."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0.0:
        return 0.0
    return float(1.0 / np.expm1(HBAR_SI * omega / (KB_SI * T)))


def mech_damping(omega: float, Q: float) -> float:
    """Mechanical damping rate gamma_m = omega / Q."""
    if Q <= 0:
        raise ValueError("Q must be positive")
    return omega / Q


@dataclass(frozen=True)
class CollapseSet:
    """Collapse operators with their rates already folded in as sqrt(rate)*C."""

    ops: tuple[Operator, ...]

    def __post_init__(self):
        ops = tuple(self.ops)
        if ops:
            space = ops[0].space
            for op in ops:
                if op.space != space:
                    raise ValueError("all collapse operators must share one space")
        object.__setattr__(self, "ops", ops)

    @property
    def space(self) -> SpaceDescriptor | None:
        return self.ops[0].space if self.ops else None

    @classmethod
    def standard_channels(
        cls,
        space: SpaceDescriptor,
        kappa: float,
        gamma_m: float,
        n_th: float,
        cavity_slot: int = 0,
        beam_slots: Sequence[int] = (1, 2),
    ) -> "CollapseSet":
        """Cavity decay sqrt(kappa) a plus thermal beam channels
        sqrt(gamma_m n_th) b_j† and sqrt(gamma_m (n_th+1)) b_j."""
        ops = []
        if kappa > 0:
            a = embed(annihilation_op(space.dims[cavity_slot]), space, cavity_slot)
            ops.append(np.sqrt(kappa) * a)
        for slot in beam_slots:
            b = embed(annihilation_op(space.dims[slot]), space, slot)
            if gamma_m * n_th > 0:
                ops.append(np.sqrt(gamma_m * n_th) * b.dag())
            if gamma_m * (n_th + 1.0) > 0:
                ops.append(np.sqrt(gamma_m * (n_th + 1.0)) * b)
        return cls(tuple(ops))


def _check_spaces(H: Operator, collapse: CollapseSet) -> None:
    if collapse.ops and collapse.space != H.space:
        raise ValueError("collapse operators and Hamiltonian live on different spaces")


def lindblad_rhs(H: Operator, collapse: CollapseSet, rho: QuantumState | np.ndarray) -> np.ndarray:
    """rho_dot = -i[H, rho] + sum_k (C rho C† - (C†C rho + rho C†C)/2)."""
    mat = rho.to_density().data if isinstance(rho, QuantumState) else np.asarray(rho, dtype=complex)
    if mat.shape != H.data.shape:
        raise ValueError("state and Hamiltonian live on different spaces")
    _check_spaces(H, collapse)
    out = -1j * (H.data @ mat - mat @ H.data)
    for op in collapse.ops:
        c = op.data
        cdc = c.conj().T @ c
        out += c @ mat @ c.conj().T - 0.5 * (cdc @ mat + mat @ cdc)
    return out


def liouvillian(H: Operator, collapse: CollapseSet, block: np.ndarray | None = None) -> np.ndarray:
    """Dense superoperator acting on row-major vec(rho), or only its rows and
    columns `block` (vec indices i*d + j) when given: the Kronecker formula
    evaluated entry by entry on the block, so the full d^2 x d^2 matrix is
    never formed."""
    _check_spaces(H, collapse)
    d = H.dim
    left, right = np.divmod(np.arange(d * d) if block is None else np.asarray(block), d)
    rows, cols = np.ix_(left, left), np.ix_(right, right)
    eye = np.eye(d, dtype=complex)

    def kron(a, b):  # np.kron(a, b)[block][:, block]
        return a[rows] * b[cols]

    L = -1j * (kron(H.data, eye) - kron(eye, H.data.T))
    for op in collapse.ops:
        c = op.data
        cdc = c.conj().T @ c
        L += kron(c, c.conj()) - 0.5 * (kron(cdc, eye) + kron(eye, cdc.T))
    return L


def parity_blocks(H: Operator, collapse: CollapseSet) -> list[np.ndarray]:
    """Sets of vec(rho) indices that the Liouvillian never couples.

    If H has no entry between basis states of opposite occupation parity and
    each collapse operator either keeps or flips the parity, L keeps the
    relative parity p_i xor p_j of every entry (i, j): two blocks, the
    parity-diagonal and the parity-off-diagonal entries. Otherwise one block
    of every entry. Entries are tested for exact zeros.
    """
    _check_spaces(H, collapse)
    p = H.space.parity
    cross = p[:, None] != p[None, :]
    if np.any(H.data[cross]) or any(np.any(op.data[cross]) and np.any(op.data[~cross])
                                    for op in collapse.ops):
        return [np.arange(H.dim * H.dim)]
    return [np.flatnonzero(~cross), np.flatnonzero(cross)]


@dataclass(frozen=True)
class EvolveOptions:
    method: str = "expm"  # expm | rk4 | rk45 (rk45: evolve_master only)
    rtol: float = 1e-9
    atol: float = 1e-12
    trace_tol: float = 1e-6
    max_retries: int = 8
    substep_phase: float = 3e-3  # rk4: fastest phase advanced per substep


class Propagator:
    """One-interval step matrix for one generator and one step size: e^{L dt}
    (expm), or the RK4 stability polynomial of L dt/m raised to the m-th
    power (rk4), with m set by options.substep_phase and doubled once per
    refinement.

    The matrix acts on the support: the ascending vec(rho) indices of the
    parity blocks in which `columns` has a nonzero entry (every block when
    columns is None). It is built and exponentiated over the support at
    once, so off-support entries of L are never formed; `advance` takes and
    returns vec(rho)[support].
    """

    def __init__(self, H: Operator, collapse: CollapseSet, dt: float,
                 options: EvolveOptions | None = None, refinements: int = 0,
                 columns: np.ndarray | None = None):
        opts = options or EvolveOptions()
        if opts.method not in ("expm", "rk4"):
            raise ValueError(f"no one-interval step matrix for method {opts.method!r}; "
                             "use expm or rk4")
        self.dim = H.dim
        self.dt = dt
        self.substeps = 1
        if opts.method == "rk4":
            m = max(1, int(np.ceil(dt * _spectral_scale(H, collapse) / opts.substep_phase)))
            self.substeps = m * 2**refinements
        blocks = [b for b in parity_blocks(H, collapse) if columns is None or np.any(columns[b])]
        self.n_blocks = len(blocks)
        self.support = np.sort(np.concatenate(blocks)) if blocks else np.arange(0)
        self.matrix = self._step(liouvillian(H, collapse, self.support), opts)

    def _step(self, L: np.ndarray, opts: EvolveOptions) -> np.ndarray:
        if opts.method == "expm":
            return expm(L * self.dt)
        step = _rk4_polynomial(L * (self.dt / self.substeps))
        return np.linalg.matrix_power(step, self.substeps)

    def advance(self, vec: np.ndarray) -> np.ndarray:
        """One step for a vec(rho)[support] column, or a (support, k) batch of them."""
        return self.matrix @ vec


@dataclass
class Trajectory:
    """Time grid plus per-time states and named real observable series."""

    times: np.ndarray
    states: list | None
    observables: dict[str, np.ndarray]
    stats: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """t_s column followed by one column per observable; 17 significant
        digits, comma separator, LF line endings; written atomically."""
        names = list(self.observables)
        cols = [self.observables[n] for n in names]
        with atomic_write(path) as fh:
            fh.write(",".join(["t_s"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [format(t, ".17g")] + [format(c[i], ".17g") for c in cols]
                fh.write(",".join(row) + "\n")


def _check_grid(t_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid must be 1-D with at least two points")
    if t[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly ascending")
    return t


def _spectral_scale(H: Operator, collapse: CollapseSet) -> float:
    evals = np.linalg.eigvalsh(H.data)
    scale = float(evals[-1] - evals[0])
    for op in collapse.ops:
        scale += float(np.linalg.norm(op.data, 2) ** 2)
    return max(scale, 1e-300)


def _rk4_polynomial(A: np.ndarray) -> np.ndarray:
    eye = np.eye(A.shape[0], dtype=complex)
    A2 = A @ A
    return eye + A + A2 / 2.0 + (A2 @ A) / 6.0 + (A2 @ A2) / 24.0


def _trace_drift(vecs: np.ndarray, d: int) -> float:
    """max |tr rho - 1| over the vec(rho) columns of a (d*d, k) array."""
    return float(np.max(np.abs(vecs[::d + 1].sum(axis=0).real - 1.0)))


def _health(rho: np.ndarray) -> tuple[float, float]:
    """(max |rho - rho^dagger|, min eigenvalue of the Hermitian part) over a
    (k, d, d) stack, through one batched eigvalsh."""
    adj = rho.conj().swapaxes(-1, -2)
    herm_drift = float(np.max(np.abs(rho - adj)))
    return herm_drift, float(np.min(np.linalg.eigvalsh(0.5 * (rho + adj))))


def propagate(
    H: Operator,
    collapse: CollapseSet,
    columns: np.ndarray,
    t_grid: np.ndarray,
    options: EvolveOptions | None = None,
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> dict:
    """Step a (d*d, k) batch of vec(rho) columns over a uniform time grid.

    The state is stepped on the support of the columns (see `Propagator`)
    and scattered into one reused (d*d, k) buffer at each output (no scatter
    when the support is every entry). Output i (i = 0 is the columns
    themselves) is handed to observe(i, rho) as a (k, d, d) view that the
    next output may overwrite; it is not stored. The trace drift is gated at
    every output: beyond options.trace_tol, rk4 doubles its substeps and
    restarts (observe then sees the outputs again from i = 0), up to
    options.max_retries; after that, and at once for expm, IntegrationError
    carries the stats. Returns the stats: method, sizes, retries,
    max_trace_drift, the parity blocks stepped (n_blocks) and the vec(rho)
    entries propagated (support), and the Hermiticity drift and minimum
    eigenvalue of the final output.
    """
    opts = options or EvolveOptions()
    t = _check_grid(t_grid)
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{opts.method} stepping needs a uniform time grid")
    d = H.dim
    if columns.ndim != 2 or columns.shape[0] != d * d:
        raise ValueError(f"columns must be a ({d * d}, k) batch of vec(rho)")
    k = columns.shape[1]
    stats: dict = {"method": opts.method, "n_steps": len(t) - 1, "n_columns": k}
    out = np.zeros((d * d, k), dtype=complex)  # each output, scattered from the support
    attempts = opts.max_retries + 1 if opts.method == "rk4" else 1
    for retry in range(attempts):
        prop = Propagator(H, collapse, float(dts[0]), opts, refinements=retry, columns=columns)
        stats.update(n_blocks=prop.n_blocks, support=prop.support.size)
        if opts.method == "rk4":
            stats["n_substeps_per_interval"] = prop.substeps
        full = prop.support.size == d * d
        v, worst = columns[prop.support], 0.0
        for i in range(len(t)):
            if i:
                v = prop.advance(v)
            if not full:
                out[prop.support] = v
            vec = v if full else out
            rho = np.moveaxis(vec.reshape(d, d, k), 2, 0)
            drift = _trace_drift(vec, d)
            if not drift <= opts.trace_tol:  # a NaN trace fails too
                worst = drift
                break
            worst = max(worst, drift)
            if observe is not None:
                observe(i, rho)
        stats.update(retries=retry, max_trace_drift=worst)
        if drift <= opts.trace_tol:
            herm, min_eig = _health(rho)
            stats.update(final_herm_drift=herm, final_min_eigenvalue=min_eig)
            return stats
    raise IntegrationError("trace drift above tolerance after all retries", stats)


# Dormand-Prince 5(4) tableau
_DP_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4


def _rk45_sweep(L, v0, t_grid, rtol, atol):
    """One adaptive pass over the grid; returns (outputs, n_steps, n_rejected)."""
    h = (t_grid[1] - t_grid[0]) / 10.0
    t = 0.0
    v = v0
    outputs = [v0]
    n_steps = n_rejected = 0
    k = [None] * 7
    k[0] = L @ v
    for t_next in t_grid[1:]:
        while t < t_next - 1e-18 * max(1.0, t_next):
            h = min(h, t_next - t)
            for i in range(1, 7):
                vi = v + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]) if a != 0.0)
                k[i] = L @ vi
            v5 = v + h * sum(b * k[j] for j, b in enumerate(_DP_B5) if b != 0.0)
            err_vec = h * sum(e * k[j] for j, e in enumerate(_DP_ERR) if e != 0.0)
            tol = atol + rtol * max(np.max(np.abs(v)), np.max(np.abs(v5)))
            err = np.max(np.abs(err_vec)) / tol
            if err <= 1.0:
                t += h
                v = v5
                k[0] = k[6]  # first same as last: the seventh stage is evaluated at v5
                n_steps += 1
            else:
                n_rejected += 1
            h *= float(np.clip(0.9 * (max(err, 1e-10)) ** (-0.2), 0.2, 5.0))
        outputs.append(v)
    return outputs, n_steps, n_rejected


def _rk45_sweep_retrying(H, collapse, v0, t, opts, stats):
    """Adaptive sweeps, tightening rtol and atol tenfold until the trace
    drift is within options.trace_tol."""
    L = liouvillian(H, collapse)
    rtol, atol = opts.rtol, opts.atol
    for retry in range(opts.max_retries + 1):
        outputs, n_steps, n_rejected = _rk45_sweep(L, v0, t, rtol, atol)
        drift = _trace_drift(np.stack(outputs, axis=1), H.dim)
        stats.update(n_steps=n_steps, n_rejected=n_rejected, retries=retry,
                     rtol_used=rtol, atol_used=atol, max_trace_drift=drift)
        if drift <= opts.trace_tol:
            return outputs
        rtol /= 10.0
        atol /= 10.0
    raise IntegrationError("tolerance tightening exhausted", stats)


def evolve_master(
    H: Operator,
    collapse: CollapseSet,
    rho0: QuantumState,
    t_grid: np.ndarray,
    options: EvolveOptions | None = None,
    observables: Mapping[str, Callable[[np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate the master equation over the grid and record every state
    and observable.

    expm and rk4 run through `propagate`; rk45 is the adaptive cross-check,
    retried with tenfold tighter tolerances while the trace drift exceeds
    options.trace_tol, then IntegrationError. Stats also carry the
    Hermiticity drift and minimum eigenvalue over all outputs.
    """
    opts = options or EvolveOptions()
    t = _check_grid(t_grid)
    if rho0.space != H.space:
        raise ValueError("initial state and Hamiltonian live on different spaces")
    d = H.dim
    v0 = rho0.to_density().data.reshape(-1)
    if opts.method == "rk45":
        stats: dict = {"method": opts.method}
        outputs = _rk45_sweep_retrying(H, collapse, v0, t, opts, stats)
        states = [v.reshape(d, d) for v in outputs]
    else:
        states = [None] * len(t)

        def keep(i, rho):
            states[i] = rho[0].copy()  # rho is a buffer that propagate reuses

        stats = propagate(H, collapse, v0[:, None], t, opts, keep)
    stats["max_herm_drift"], stats["min_eigenvalue"] = _health(np.stack(states))
    obs_series = {name: np.array([fn(rho) for rho in states], dtype=float)
                  for name, fn in (observables or {}).items()}
    return Trajectory(t, states, obs_series, stats)


def evolve_unitary(
    H: Operator,
    psi0: QuantumState,
    t_grid: np.ndarray,
    observables: Mapping[str, Callable[[np.ndarray], float]] | None = None,
) -> Trajectory:
    """Closed-system |psi(t)> = e^{-iHt}|psi0> through one eigendecomposition."""
    if not H.is_hermitian(rtol=1e-10):
        raise ValueError("Hamiltonian must be Hermitian")
    if psi0.kind != "ket":
        raise ValueError("evolve_unitary needs a ket initial state")
    if psi0.space != H.space:
        raise ValueError("initial state and Hamiltonian live on different spaces")
    t = _check_grid(t_grid)
    energies, vecs = eigh(H.data)
    coeff = vecs.conj().T @ psi0.data
    phases = np.exp(-1j * np.outer(t, energies))
    kets = (vecs @ (phases * coeff).T).T  # shape (n_t, d)
    norms = np.linalg.norm(kets, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise IntegrationError("norm drift in unitary evolution", {"max_drift": float(np.max(np.abs(norms - 1.0)))})
    obs_series = {name: np.empty(len(t)) for name in (observables or {})}
    for i in range(len(t)):
        for name, fn in (observables or {}).items():
            obs_series[name][i] = fn(kets[i])
    states = [kets[i] for i in range(len(t))]
    return Trajectory(t, states, obs_series, {"method": "eig", "max_norm_drift": float(np.max(np.abs(norms - 1.0)))})
