"""Open-system (Lindblad) and closed-system propagation on a time grid.

The generator here is always time-independent. `propagate` is the one
propagation core, and it does not step. Every output is a linear functional
f of vec(rho) (a row); with L = V diag(lambda) V^-1 on a parity block, the
series from a column v0 is f(t) = sum_k A_k exp(nu_k t), A = (f V) * (V^-1 v0),
evaluated as chunks of exp(t nu^T) @ A. The rates nu set the integrator:

* ``expm`` (default): nu = lambda, the exact propagator, or
* ``rk4``: fixed-step classic Runge-Kutta. m substeps per output interval h
  multiply each mode by R(lambda h/m)^m, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
  the stability polynomial, so nu = m log R(lambda h/m) / h.

Both need a uniform grid. When H keeps the total occupation parity and
every collapse operator keeps or flips it, L splits exactly into two blocks
(`parity_blocks`); each block the initial columns occupy is eigendecomposed
once. The decomposition is gated (Moler & Van Loan, SIAM Rev. 45, 3 (2003),
method 14, and its caveat on an ill-conditioned V): ||LV - V Lambda|| / ||L||
and the cancellation bound eps max_j sum_k |A_jk| must both be at most
EIG_TOL; a defective L passes the first and fails the second. The trace is
one more row, gated at every output (rk4 doubles m and retries), and the
final output's Hermiticity and positivity come from V (exp(nu t_N) * V^-1 v0).

``rk45``, adaptive embedded Dormand-Prince 4(5) with per-step max-norm error
control, is reachable only through `evolve_master`, as the adaptive
cross-check of the other two.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.constants import hbar as HBAR_SI, k as KB_SI
from scipy.linalg import eig, eigh, solve

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


EIG_TOL = 1e-10  # bound on the eigendecomposition's residual and cancellation
_CHUNK = 256  # output times per matrix product: small next to the series


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


def _log1p(w: np.ndarray) -> np.ndarray:
    """log(1 + w) for complex w, keeping the digits of a small w (NumPy's
    complex log1p evaluates log(1 + w) and loses them)."""
    return (0.5 * np.log1p(2.0 * w.real + w.real**2 + w.imag**2)
            + 1j * np.arctan2(w.imag, 1.0 + w.real))


def _rk4_rates(lam: np.ndarray, h: float, substeps: int) -> np.ndarray:
    """Rates nu with exp(nu h) = R(lam h/m)^m: m RK4 substeps per interval h."""
    z = lam * (h / substeps)
    return substeps * _log1p(z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))) / h


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
    rows: np.ndarray,
    t_grid: np.ndarray,
    options: EvolveOptions | None = None,
) -> tuple[np.ndarray, dict]:
    """Series of linear functionals `rows` of vec(rho) from a (d*d, k) batch
    of vec(rho) columns over a uniform time grid.

    `rows` is one (r, d*d) set for every column or a (k, r, d*d) stack, one
    set per column. Returns the real (k, r, n_t) series, whose output 0 is
    exactly rows @ columns, and the stats: sizes, the parity blocks
    eigendecomposed (n_blocks) and their vec(rho) entries (support), the gate
    (eig_residual, cancellation_bound), the largest |Im nu| dt over the modes
    the rows see (max_phase_per_output), retries, max_trace_drift, and the
    Hermiticity drift and minimum eigenvalue of the final output. Raises
    IntegrationError when the gate fails or the trace drifts beyond
    options.trace_tol (rk4 first doubles its substeps up to max_retries).
    """
    opts = options or EvolveOptions()
    if opts.method not in ("expm", "rk4"):
        raise ValueError(f"propagate runs expm or rk4, not {opts.method!r}")
    t = _check_grid(t_grid)
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{opts.method} needs a uniform time grid")
    d = H.dim
    if columns.ndim != 2 or columns.shape[0] != d * d:
        raise ValueError(f"columns must be a ({d * d}, k) batch of vec(rho)")
    k = columns.shape[1]
    if rows.ndim not in (2, 3) or rows.shape[-1] != d * d or rows.shape[:-2] not in ((), (k,)):
        raise ValueError(f"rows must be an (r, {d * d}) set or a ({k}, r, {d * d}) stack")
    trace = np.zeros(d * d)
    trace[::d + 1] = 1.0
    rows = np.concatenate([rows, np.broadcast_to(trace, rows.shape[:-2] + (1, d * d))], axis=-2)
    r = rows.shape[-2]

    blocks = [b for b in parity_blocks(H, collapse) if np.any(columns[b])]
    stats: dict = {"method": opts.method, "n_steps": len(t) - 1, "n_columns": k,
                   "n_blocks": len(blocks), "support": sum(b.size for b in blocks)}
    lam, amps, modes, residual = [], [], [], 0.0
    for b in blocks:
        L = liouvillian(H, collapse, b)
        w, V = eig(L)
        res = L @ V
        res -= V * w
        residual = max(residual, float(np.linalg.norm(res) / (np.linalg.norm(L) or 1.0)))
        c = solve(V, columns[b], check_finite=False)  # (m, k)
        lam.append(w)
        amps.append((rows[..., b] @ V) * c.T[:, None, :])  # (k, r, m)
        modes.append((b, V, c))
    lam, amps = np.concatenate(lam), np.concatenate(amps, axis=-1)
    magnitude = np.abs(amps)
    stats.update(eig_residual=residual, cancellation_bound=float(
        np.finfo(float).eps * np.max(magnitude.sum(axis=-1))))
    if not (residual <= EIG_TOL and stats["cancellation_bound"] <= EIG_TOL):
        raise IntegrationError(f"eigendecomposition of L beyond {EIG_TOL:g} "
                               "(defective or ill-conditioned)", stats)
    seen = np.max(magnitude, axis=(0, 1)) > 1e-12 * np.max(magnitude)
    coeffs = np.ascontiguousarray(amps.reshape(k * r, -1).T)  # (m, k r)
    first = (rows @ columns.T[:, :, None])[..., 0].real  # (k, r)

    rk4 = opts.method == "rk4"
    if rk4:  # substeps per output interval
        m = max(1, int(np.ceil(dts[0] * _spectral_scale(H, collapse) / opts.substep_phase)))
    out = np.empty((k, r - 1, len(t)))
    for retry in range(opts.max_retries + 1 if rk4 else 1):
        nu = _rk4_rates(lam, float(dts[0]), m << retry) if rk4 else lam
        drifts = []
        with np.errstate(over="ignore", invalid="ignore"):  # an unstable rk4 mode
            for s in range(0, len(t), _CHUNK):
                f = (np.exp(np.outer(t[s:s + _CHUNK], nu)) @ coeffs).real.reshape(-1, k, r)
                if s == 0:
                    f[0] = first
                drifts.append(np.max(np.abs(f[..., -1] - 1.0)))
                out[..., s:s + _CHUNK] = f[..., :-1].transpose(1, 2, 0)
        stats.update(retries=retry, max_trace_drift=float(np.max(drifts)))
        if rk4:
            stats["n_substeps_per_interval"] = m << retry
        if stats["max_trace_drift"] <= opts.trace_tol:  # a NaN trace fails too
            break
    else:
        raise IntegrationError("trace drift above tolerance after all retries", stats)

    stats["max_phase_per_output"] = float(np.max(np.abs(nu[seen].imag)) * dts[0])
    final = np.zeros((d * d, k), dtype=complex)
    grow = np.split(np.exp(nu * t[-1]), np.cumsum([b.size for b, _, _ in modes])[:-1])
    for (b, V, c), e in zip(modes, grow):
        final[b] = V @ (e[:, None] * c)
    stats["final_herm_drift"], stats["final_min_eigenvalue"] = _health(final.T.reshape(k, d, d))
    return out, stats


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
    else:  # the real parts of the rows [I; -iI] are Re and Im of vec(rho)
        eye = np.eye(d * d)
        series, stats = propagate(H, collapse, v0[:, None], np.concatenate([eye, -1j * eye]),
                                  t, opts)
        vecs = series[0, :d * d] + 1j * series[0, d * d:]
        states = [vecs[:, i].reshape(d, d) for i in range(len(t))]
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
