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
(`parity_blocks`). Each block the initial columns occupy splits further into
real symmetry sectors (`symmetry_sectors`): in a basis of Hermitian matrices
L is real, and when H and the collapse set are exactly invariant under the
beam swap, its even and odd halves are uncoupled. Each occupied sector is
eigendecomposed once, as the real matrix L_s = Q^H L Q read off rows of L
(`sector_liouvillian`), for an H Hermitian to EIG_TOL (sector_imag). It is
gated (Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 14, and its caveat on
an ill-conditioned V): ||L_s V - V Lambda|| / ||L_s|| and the cancellation
bound eps max_j sum_k |A_jk| must be at most EIG_TOL; a defective L fails only
the second. The trace is one more row, gated at every output, in one pass, to
TRACE_TOL. Its row is a left null vector of L, so only the lambda = 0 modes
reach it and R(0) = 1: rk4 drifts exactly as expm does at any substep count,
and a drift is refused at once. The final output's Hermiticity and positivity
come from the sum over sectors of Q V (exp(nu t_N) * V^-1 Q^H v0).
`evolve_master` is `propagate` with the states read back.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.constants import hbar as HBAR_SI, k as KB_SI
from scipy.linalg import eig, eigh, solve

from .files import atomic_write
from .fockspace import Operator, QuantumState, SpaceDescriptor, annihilation_op, embed


class IntegrationError(RuntimeError):
    """A propagation gate failed (the Hermiticity of H, the eigendecomposition
    or the trace); carries the integrator diagnostics."""

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
    def standard_channels(cls, space: SpaceDescriptor, kappa: float, gamma_m: float,
                          n_th: float) -> "CollapseSet":
        """Cavity decay sqrt(kappa) a (factor 0) plus thermal beam channels
        sqrt(gamma_m n_th) b_j† and sqrt(gamma_m (n_th+1)) b_j (factors 1, 2)."""
        ops = []
        if kappa > 0:
            ops.append(np.sqrt(kappa) * embed(annihilation_op(space.dims[0]), space, 0))
        for slot in (1, 2):
            b = embed(annihilation_op(space.dims[slot]), space, slot)
            if gamma_m * n_th > 0:
                ops.append(np.sqrt(gamma_m * n_th) * b.dag())
            if gamma_m * (n_th + 1.0) > 0:
                ops.append(np.sqrt(gamma_m * (n_th + 1.0)) * b)
        return cls(tuple(ops))


def _check_spaces(H: Operator, collapse: CollapseSet) -> None:
    if collapse.ops and collapse.space != H.space:
        raise ValueError("collapse operators and Hamiltonian live on different spaces")


def liouvillian(H: Operator, collapse: CollapseSet, rows: np.ndarray | None = None,
                cols: np.ndarray | None = None) -> np.ndarray:
    """Superoperator L of rho_dot = -i[H, rho] + sum_C (C rho C† - (C†C rho +
    rho C†C)/2) on row-major vec(rho), for a Hermitian H, in the standard form
    -i K⊗1 + i 1⊗conj(K) + sum_C C⊗conj(C), K = H - (i/2) sum_C C†C: whole, or
    the block of `rows` (vec indices i*d + j) and `cols` (default `rows`),
    evaluated entry by entry so the full d^2 x d^2 matrix is never formed."""
    _check_spaces(H, collapse)
    d = H.dim
    rows = np.arange(d * d) if rows is None else np.asarray(rows)
    cols = rows if cols is None else np.asarray(cols)
    (ri, rj), (ci, cj) = np.divmod(rows, d), np.divmod(cols, d)
    left, right = np.ix_(ri, ci), np.ix_(rj, cj)
    K = H.data - 0.5j * sum(op.data.conj().T @ op.data for op in collapse.ops)
    L = (np.where(rj[:, None] == cj, -1j * K[left], 0.0)
         + np.where(ri[:, None] == ci, 1j * K.conj()[right], 0.0))
    for op in collapse.ops:
        L += op.data[left] * op.data.conj()[right]
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


def beam_swap(H: Operator, collapse: CollapseSet) -> np.ndarray | None:
    """The basis permutation that exchanges the last two tensor factors (the
    two beams) if H and the collapse operators, as a multiset, are exactly
    invariant under it; None otherwise. Entries are compared exactly."""
    _check_spaces(H, collapse)
    dims = H.space.dims
    if len(dims) < 2 or dims[-1] != dims[-2]:
        return None
    perm = np.arange(H.dim).reshape(dims).swapaxes(-1, -2).reshape(-1)
    ops = [op.data for op in collapse.ops]

    def swap(a):
        return a[np.ix_(perm, perm)]

    def count(a):
        return sum(np.array_equal(a, o) for o in ops)

    if np.array_equal(swap(H.data), H.data) and all(count(swap(c)) == count(c) for c in ops):
        return perm
    return None


def symmetry_sectors(H: Operator, collapse: CollapseSet,
                     block: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Orthonormal bases Q of the real symmetry sectors of a parity block.

    The block's entries (i, j) are closed under (i, j) -> (j, i), so the
    Hermitian matrices E_ii, (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2
    (i < j) span it, and Q^H L Q is real: L maps Hermitian rho to Hermitian
    rho. When `beam_swap` holds, each such h is paired with its signed swap
    image s h' as (h + s h')/sqrt2 and (h - s h')/sqrt2, an even and an odd
    sector that L never couples (a weak symmetry, Albert & Jiang, Phys. Rev.
    A 89, 022118 (2014)); otherwise the block is one sector. A sector is
    (idx, coef), (m, 2) or (m, 4) arrays: column q of Q holds coef[q, t] at
    block position idx[q, t], its nonzero terms share one magnitude (a zero
    coefficient pads a shorter column), and coef[q, 0] is never 0, which
    `sector_liouvillian` relies on.
    """
    d = H.dim
    block = np.asarray(block)
    pos = np.full(d * d, -1)
    pos[block] = np.arange(block.size)
    i, j = np.divmod(block[block // d <= block % d], d)
    off = i < j
    # Hermitian basis: kind 0 is E_ii or the real part, kind 1 the imaginary part
    hi, hj = np.concatenate([i, i[off]]), np.concatenate([j, j[off]])
    kind = np.repeat([0, 1], [i.size, np.count_nonzero(off)])
    idx = np.stack([pos[hi * d + hj], pos[hj * d + hi]], axis=1)
    if np.any(idx < 0):
        raise ValueError("a sector block must hold (j, i) with every entry (i, j)")
    phase = np.where(kind[:, None] == 1, [1j, -1j], [1.0, 1.0])
    phase[hi == hj, 1] = 0.0
    sectors = [(idx, phase)]
    perm = beam_swap(H, collapse)
    if perm is not None:
        si, sj = perm[hi], perm[hj]
        sign = np.where((kind == 1) & (si > sj), -1.0, 1.0)
        table = np.full((2, d * d), -1)
        table[kind, hi * d + hj] = np.arange(kind.size)
        image = table[kind, np.minimum(si, sj) * d + np.maximum(si, sj)]
        if np.all(image >= 0):
            n = np.arange(kind.size)
            pair = n < image
            twin = phase[image[pair]] * sign[pair, None]
            sectors = []
            for s in (1.0, -1.0):
                own = (n == image) & (sign == s)
                sectors.append((
                    np.concatenate([np.hstack([idx[pair], idx[image[pair]]]),
                                    np.hstack([idx[own], idx[own]])]),
                    np.concatenate([np.hstack([phase[pair], s * twin]),
                                    np.hstack([phase[own], np.zeros_like(phase[own])])])))
    return [(ix, c / np.sqrt(np.sum(np.abs(c) ** 2, axis=1, keepdims=True)))
            for ix, c in sectors if len(ix)]


def _apply_basis(x: np.ndarray, idx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """out[q] = sum_t coef[q, t] x[idx[q, t]] along axis 0 of x: Q^T x for a
    sector basis (coef.conj() gives Q^H x)."""
    c = coef.reshape(coef.shape + (1,) * (x.ndim - 1))
    return sum(x[idx[:, t]] * c[:, t] for t in range(idx.shape[1]))


def sector_liouvillian(H: Operator, collapse: CollapseSet, block: np.ndarray,
                       idx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The real generator L_s = Q^H L Q of a sector basis (idx, coef) of `block`.
    L commutes with rho -> rho† and the beam swap, so every term of a row q of
    Q^H L Q contributes alike: row q is Re((L Q)[e_q] / coef[q, 0]), e_q the
    first entry of basis matrix q. Only those rows of L are built."""
    first, row = np.unique(block[idx[:, 0]], return_inverse=True)
    LQ = _apply_basis(liouvillian(H, collapse, first, block).T, idx, coef).T
    return (LQ[row] / coef[:, :1]).real


EIG_TOL = 1e-10  # bound on the eigendecomposition's residual and cancellation
TRACE_TOL = 1e-6  # bound on abs(tr rho - 1) at every output
SUBSTEP_PHASE = 3e-3  # rk4: fastest phase advanced per substep
_CHUNK = 256  # output times per matrix product or CSV write: small next to the series


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
        cols = [self.times] + [self.observables[n] for n in names]
        template = ",".join(["%.17g"] * len(cols)) + "\n"
        with atomic_write(path) as fh:
            fh.write(",".join(["t_s"] + names) + "\n")
            for s in range(0, len(self.times), _CHUNK):  # whole, Python floats take 32 B a value
                rows = zip(*(c[s:s + _CHUNK].tolist() for c in cols))
                fh.writelines(template % row for row in rows)


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
    method: str = "expm",
) -> tuple[np.ndarray, dict]:
    """Series of linear functionals `rows` of vec(rho) from a (d*d, k) batch
    of vec(rho) columns over a uniform time grid, integrated by `method`
    (expm or rk4).

    `rows` is one (r, d*d) set for every column or a (k, r, d*d) stack, one
    set per column. Returns the real (k, r, n_t) series, whose output 0 is
    exactly rows @ columns, and the stats: sizes, the parity blocks the
    columns occupy (n_blocks) and their vec(rho) entries (support), the sizes
    of the sectors eigendecomposed (sectors), the gate (sector_imag, the
    Hermiticity of H; eig_residual, cancellation_bound), the largest
    |Im nu| dt over the modes the rows see (max_phase_per_output),
    max_trace_drift, rk4's n_substeps_per_interval, and the Hermiticity drift
    and minimum eigenvalue of the final output. Raises IntegrationError when
    the gate fails or, in the one pass over the outputs, the trace drifts
    beyond TRACE_TOL (NaN included) at any of them.
    """
    if method not in ("expm", "rk4"):
        raise ValueError(f"propagate runs expm or rk4, not {method!r}")
    t = _check_grid(t_grid)
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{method} needs a uniform time grid")
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
    stats: dict = {"method": method, "n_steps": len(t) - 1, "n_columns": k,
                   "n_blocks": len(blocks), "support": sum(b.size for b in blocks),
                   "sectors": []}
    herm = np.max(np.abs(H.data - H.data.conj().T)) / (np.max(np.abs(H.data)) or 1.0)
    stats["sector_imag"] = float(herm)
    if not herm <= EIG_TOL:  # the standard form of L is the master equation's only then
        raise IntegrationError(f"H is not Hermitian to {EIG_TOL:g}: the real sector "
                               "eigendecomposition of L needs it", stats)
    lam, amps, modes, residual = [], [], [], 0.0
    for b in blocks:
        for idx, coef in symmetry_sectors(H, collapse, b):
            v0 = _apply_basis(columns[b], idx, coef.conj())  # Q^H columns, (m, k)
            if not np.any(v0):
                continue
            Ls = sector_liouvillian(H, collapse, b, idx, coef)
            scale = np.linalg.norm(Ls) or 1.0
            w, V = eig(Ls)
            res = V * w  # V is real when every eigenvalue is
            res -= Ls @ V
            residual = max(residual, float(np.linalg.norm(res) / scale))
            c = solve(V, v0, check_finite=False)  # (m, k)
            rows_q = _apply_basis(rows[..., b].T, idx, coef).T  # rows Q
            lam.append(w)
            amps.append((rows_q @ V) * c.T[:, None, :])  # (k, r, m)
            modes.append((b[idx], coef, V, c))
            stats["sectors"].append(idx.shape[0])
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

    nu = lam
    if method == "rk4":  # substeps per output interval
        m = max(1, int(np.ceil(dts[0] * _spectral_scale(H, collapse) / SUBSTEP_PHASE)))
        nu = _rk4_rates(lam, float(dts[0]), m)
    out = np.empty((k, r - 1, len(t)))
    drifts = []
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable rk4 mode
        for s in range(0, len(t), _CHUNK):
            f = (np.exp(np.outer(t[s:s + _CHUNK], nu)) @ coeffs).real.reshape(-1, k, r)
            if s == 0:
                f[0] = first
            drifts.append(np.max(np.abs(f[..., -1] - 1.0)))
            out[..., s:s + _CHUNK] = f[..., :-1].transpose(1, 2, 0)
    stats["max_trace_drift"] = float(np.max(drifts))
    if method == "rk4":
        stats["n_substeps_per_interval"] = m
    if not stats["max_trace_drift"] <= TRACE_TOL:  # a NaN trace fails too
        raise IntegrationError(f"trace drift above {TRACE_TOL:g}", stats)

    stats["max_phase_per_output"] = float(np.max(np.abs(nu[seen].imag)) * dts[0])
    final = np.zeros((d * d, k), dtype=complex)
    grow = np.split(np.exp(nu * t[-1]), np.cumsum(stats["sectors"])[:-1])
    for (where, coef, V, c), e in zip(modes, grow):  # Q V (e c), summed over the sectors
        np.add.at(final, where, coef[..., None] * (V @ (e[:, None] * c))[:, None, :])
    stats["final_herm_drift"], stats["final_min_eigenvalue"] = _health(final.T.reshape(k, d, d))
    return out, stats


def evolve_master(
    H: Operator,
    collapse: CollapseSet,
    rho0: QuantumState,
    t_grid: np.ndarray,
    method: str = "expm",
    observables: Mapping[str, Callable[[np.ndarray], float]] | None = None,
) -> Trajectory:
    """The states and observables of `propagate` from rho0 at every time of
    the grid. Stats also carry the Hermiticity drift and minimum eigenvalue
    over all outputs.
    """
    t = _check_grid(t_grid)
    if rho0.space != H.space:
        raise ValueError("initial state and Hamiltonian live on different spaces")
    d = H.dim
    v0 = rho0.to_density().data.reshape(-1)
    eye = np.eye(d * d)  # the real parts of the rows [I; -iI] are Re and Im of vec(rho)
    series, stats = propagate(H, collapse, v0[:, None], np.concatenate([eye, -1j * eye]),
                              t, method)
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
