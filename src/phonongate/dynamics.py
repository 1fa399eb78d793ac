"""Open-system (Lindblad) propagation on a time grid.

H and every collapse operator are plain (d, d) complex arrays, and a
collapse set is any sequence of them (`standard_channels` builds the
system's); the functions that read the tensor structure (`parity_blocks`,
`beam_swap`, `symmetry_sectors`, `propagate` and its memory count
`held_bytes`) take it as a tuple of factor dimensions, dims.

The generator here is always time-independent. `propagate` is the one
propagation core, and it does not step. Every output is a linear functional
f of vec(rho) (a row); with L = V diag(lambda) V^-1 on a parity block, the
series from a column v0 is f(t) = sum_k A_k exp(nu_k t), A = (f V) * (V^-1 v0).
The rates nu set the integrator:

* ``expm`` (default): nu = lambda, the exact propagator, or
* ``rk4``: fixed-step classic Runge-Kutta. m substeps per output interval h
  multiply each mode by R(lambda h/m)^m, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
  the stability polynomial, so nu = m log R(lambda h/m) / h.

Both need a grid uniform to rounding, as numpy.linspace gives (below). When H
keeps the total occupation parity and every collapse operator keeps or flips
it, L splits exactly into two blocks (`parity_blocks`). Each block the initial
columns occupy splits further into real symmetry sectors (`symmetry_sectors`):
in a basis of Hermitian matrices L is real, and when H and the collapse set
are exactly invariant under the beam swap, its even and odd halves are
uncoupled. Each occupied sector is eigendecomposed once, as the real matrix
L_s = Q^H L Q read off rows of L (`sector_liouvillian`, _SLAB rows of L at a
time), for an H Hermitian to EIG_TOL (sector_imag). It is gated (Moler & Van
Loan, SIAM Rev. 45, 3 (2003), method 14, and its caveat on an ill-conditioned
V): ||L_s V - V Lambda|| / ||L_s||, from real products over _SLAB columns at a
time, and the cancellation bound eps max_j sum_k |A_jk| must be at most
EIG_TOL; a defective L fails only the second. An eigenvalue within the
rounding floor m eps ||L_s|| of 0 is the steady state's, and is set to
exactly 0. The sectors are done one at a time: a sector's L_s, V and residual
are freed before the next sector's generator is built, and only its modes'
rates and amplitudes are kept, so one sector's working set is held at a time.

The series are evaluated in real arithmetic. The columns are vec of Hermitian
matrices, so each sector state Q^H vec rho(t) is real, and Re(f Q y) =
Re(f Q) y: the rows enter as Re(f Q). Conjugate eigenpairs of the real L_s
then carry conjugate amplitudes, so only the modes with Im lambda >= 0 are kept
(rk4's rates keep the pairing) and a pair counts twice: 2 Re(A e^{nu t}) =
2 (Re A Re e^{nu t} - Im A Im e^{nu t}). Each chunk of _CHUNK outputs from
t_s is one real product of those coefficients with the real and imaginary
parts of a complex table e^{nu (t_s + t_j)}, filled as e^{nu t_s} times a
table of e^{nu t_j} over the first chunk's times built once: one exp per mode
per chunk and one complex product per entry. That is e^{nu t_{s+j}} to the
rounding of nu t only where t_s + t_j = t_{s+j} to rounding, so `propagate`
refuses a grid whose times lie more than 4 eps t_max off i t_max / (n - 1).
The rows are one set, read from every column, so the amplitudes, the chunk
coefficients and the outputs grow as k r, for k columns and r rows. The
table and the output block are buffers refilled per chunk, and each chunk is
handed to the caller's reduction before the next is evaluated: that
reduction is the only way out for the outputs, so no (k, r, n_t) series is
held unless the caller keeps one. The trace vec(I) is one more row, and
every column's |tr rho(t) - tr rho(0)| is gated at every output, in the same
pass, to TRACE_TOL, so a traceless column is gated as any other. The
trace row is a left null vector of L, so only the lambda = 0 modes reach it
and R(0) = 1: rk4 drifts exactly as expm does at any substep count, and a
drift is refused at once. The final output's Hermiticity and positivity come
from the sum over sectors of Q V (exp(nu t_N) * V^-1 Q^H v0), each sector's
share added as soon as that sector is decomposed.
"""
from __future__ import annotations

import time

import numpy as np

from .fockspace import annihilation_op, embed, parity


class IntegrationError(RuntimeError):
    """A propagation gate failed (the Hermiticity of H, the eigendecomposition
    or the trace); carries the integrator diagnostics."""

    def __init__(self, message: str, stats: dict):
        super().__init__(f"{message} (diagnostics: {stats})")
        self.stats = stats


def standard_channels(dims: tuple[int, ...], kappa: float, gamma_m: float,
                      n_th: float) -> tuple[np.ndarray, ...]:
    """Collapse operators with their rates folded in as sqrt(rate) C: cavity
    decay sqrt(kappa) a (factor 0) plus thermal beam channels
    sqrt(gamma_m n_th) b_j† and sqrt(gamma_m (n_th+1)) b_j (factors 1, 2)."""
    ops = []
    if kappa > 0:
        ops.append(np.sqrt(kappa) * embed(annihilation_op(dims[0]), dims, 0))
    for slot in (1, 2):
        b = embed(annihilation_op(dims[slot]), dims, slot)
        if gamma_m * n_th > 0:
            ops.append(np.sqrt(gamma_m * n_th) * b.conj().T)
        if gamma_m * (n_th + 1.0) > 0:
            ops.append(np.sqrt(gamma_m * (n_th + 1.0)) * b)
    return tuple(ops)


def _check_spaces(H: np.ndarray, collapse, dims: tuple[int, ...] | None = None) -> None:
    """H and every collapse operator (d, d), and d the product of dims if given."""
    d = H.shape[0]
    if (H.shape != (d, d) or any(op.shape != H.shape for op in collapse)
            or dims is not None and int(np.prod(dims)) != d):
        raise ValueError("collapse operators and Hamiltonian live on different spaces")


def _row_nonzeros(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row's nonzeros of a (d, d) M, as (d, w)
    arrays for w the most any row holds; a shorter row is padded with index d^2."""
    nz = M != 0
    col = np.argsort(np.where(nz, 0, 1), axis=1)[:, :max(1, int(nz.sum(axis=1).max()))]
    return np.where(np.take_along_axis(nz, col, 1), col, M.size), np.take_along_axis(M, col, 1)


def liouvillian(H: np.ndarray, collapse, rows: np.ndarray | None = None) -> np.ndarray:
    """Superoperator L of rho_dot = -i[H, rho] + sum_C (C rho C† - (C†C rho +
    rho C†C)/2) on row-major vec(rho), for a Hermitian H, in the standard form
    -i K⊗1 + i 1⊗conj(K) + sum_C C⊗conj(C), K = H - (i/2) sum_C C†C: whole, or
    the full-width rows `rows` (vec indices i*d + j), a (len(rows), d^2) array.
    A term A⊗B puts A[i, k] B[j, l] in row (i, j) at column (k, l), so only
    the products of the nonzeros of A's row i and B's row j are written, the
    terms added in the order above; no d^2 x d^2 matrix or gather of K and the
    collapse operators is formed. `collapse` is any sequence of (d, d)
    collapse operators."""
    _check_spaces(H, collapse)
    d = H.shape[0]
    rows = np.arange(d * d) if rows is None else np.asarray(rows)
    (ri, rj), n = np.divmod(rows, d), np.arange(rows.size)[:, None, None]
    K = H - 0.5j * sum(op.conj().T @ op for op in collapse)
    eye = (np.arange(d)[:, None], np.ones((d, 1)))
    L = np.zeros((rows.size, d * d + 1), dtype=complex)  # column d^2 takes the padding
    for (kc, kv), (lc, lv) in [(_row_nonzeros(-1j * K), eye), (eye, _row_nonzeros(1j * K.conj())),
                               *((_row_nonzeros(op), _row_nonzeros(op.conj())) for op in collapse)]:
        L[n, np.minimum(kc[ri][:, :, None] * d + lc[rj][:, None, :], d * d)] += (
            kv[ri][:, :, None] * lv[rj][:, None, :])
    return L[:, :-1]


def parity_blocks(H: np.ndarray, collapse, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Sets of vec(rho) indices that the Liouvillian never couples.

    If H has no entry between basis states of opposite occupation parity and
    each collapse operator either keeps or flips the parity, L keeps the
    relative parity p_i xor p_j of every entry (i, j): two blocks, the
    parity-diagonal and the parity-off-diagonal entries. Otherwise one block
    of every entry. Entries are tested for exact zeros.
    """
    _check_spaces(H, collapse, dims)
    p = parity(dims)
    cross = p[:, None] != p[None, :]
    if np.any(H[cross]) or any(np.any(op[cross]) and np.any(op[~cross]) for op in collapse):
        return [np.arange(H.size)]
    return [np.flatnonzero(~cross), np.flatnonzero(cross)]


def beam_swap(H: np.ndarray, collapse, dims: tuple[int, ...]) -> np.ndarray | None:
    """The basis permutation that exchanges the last two tensor factors (the
    two beams) if H and the collapse operators, as a multiset, are exactly
    invariant under it; None otherwise. Entries are compared exactly."""
    _check_spaces(H, collapse, dims)
    if len(dims) < 2 or dims[-1] != dims[-2]:
        return None
    perm = np.arange(H.shape[0]).reshape(dims).swapaxes(-1, -2).reshape(-1)

    def swap(a):
        return a[np.ix_(perm, perm)]

    def count(a):
        return sum(np.array_equal(a, o) for o in collapse)

    if np.array_equal(swap(H), H) and all(count(swap(c)) == count(c) for c in collapse):
        return perm
    return None


def symmetry_sectors(H: np.ndarray, collapse, dims: tuple[int, ...],
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
    vec(rho) index idx[q, t], its nonzero terms share one magnitude (a zero
    coefficient pads a shorter column), and coef[q, 0] is never 0, which
    `sector_liouvillian` relies on. The swap keeps each basis state's total
    occupation, so every basis matrix's swap image lies in the block too.
    """
    d = H.shape[0]
    block = np.asarray(block)
    i, j = np.divmod(block[block // d <= block % d], d)
    off = i < j
    # Hermitian basis: kind 0 is E_ii or the real part, kind 1 the imaginary part
    hi, hj = np.concatenate([i, i[off]]), np.concatenate([j, j[off]])
    kind = np.repeat([0, 1], [i.size, np.count_nonzero(off)])
    idx = np.stack([hi * d + hj, hj * d + hi], axis=1)
    phase = np.where(kind[:, None] == 1, [1j, -1j], [1.0, 1.0])
    phase[hi == hj, 1] = 0.0
    sectors = [(idx, phase)]
    perm = beam_swap(H, collapse, dims)
    if perm is not None:
        si, sj = perm[hi], perm[hj]
        sign = np.where((kind == 1) & (si > sj), -1.0, 1.0)
        table = np.full((2, d * d), -1)
        table[kind, hi * d + hj] = np.arange(kind.size)
        image = table[kind, np.minimum(si, sj) * d + np.maximum(si, sj)]
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


def sector_liouvillian(H: np.ndarray, collapse, idx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The real generator L_s = Q^H L Q of a sector basis (idx, coef).
    L commutes with rho -> rho† and the beam swap, so every term of a row q of
    Q^H L Q contributes alike: row q is Re((L Q)[e_q] / coef[q, 0]), e_q the
    first entry of basis matrix q. Only those rows of L are built, _SLAB first
    entries at a time, and each slab's rows of L_s written into one real array.
    L maps a parity block into itself, so a full-width row of L read at the
    block's vec(rho) indices loses nothing."""
    first, row = np.unique(idx[:, 0], return_inverse=True)
    Ls = np.empty((idx.shape[0],) * 2)
    for s in range(0, first.size, _SLAB):
        q = np.flatnonzero((row >= s) & (row < s + _SLAB))
        LQ = _apply_basis(liouvillian(H, collapse, first[s:s + _SLAB]).T, idx, coef).T
        Ls[q] = (LQ[row[q] - s] / coef[q, :1]).real
    return Ls


EIG_TOL = 1e-10  # bound on the eigendecomposition's residual and cancellation
TRACE_TOL = 1e-6  # bound on abs(tr rho(t) - tr rho(0)) of every column at every output
SUBSTEP_PHASE = 3e-3  # rk4: fastest phase advanced per substep
_CHUNK = 256  # output times per matrix product: small next to the series
_SLAB = 64  # rows of L, or residual columns, per product in a sector: small next to it
EPS = np.finfo(float).eps


def _spectral_scale(H: np.ndarray, collapse) -> float:
    evals = np.linalg.eigvalsh(H)
    scale = float(evals[-1] - evals[0])
    for op in collapse:
        scale += float(np.linalg.norm(op, 2) ** 2)
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
    H: np.ndarray,
    collapse,
    dims: tuple[int, ...],
    columns: np.ndarray,
    rows: np.ndarray,
    t_grid: np.ndarray,
    method: str,
    reduce,
) -> dict:
    """Real parts of the linear functionals `rows` of vec(rho) from a
    (d*d, k) batch of columns, vec of Hermitian matrices, over a uniform time
    grid, integrated by `method` (expm or rk4), for a (d, d) H and a sequence
    of (d, d) collapse operators on the composite space of factor dims `dims`.

    `rows` is one (r, d*d) set, read from every column; they need not be
    Hermitian functionals. A column whose anti-Hermitian part exceeds EIG_TOL
    of its largest entry is refused with a ValueError naming it: the real
    series would drop that part. Each chunk of the real (k, r, n_t) series,
    whose output 0 is exactly Re(rows @ columns), goes to `reduce(s, block)`
    as the (k, r, c) block of outputs s..s+c-1, before the next chunk is
    evaluated; the block is a view, contiguous as (r, k, c), of a buffer the
    next chunk overwrites, which `reduce` may overwrite too. `reduce` is the
    only way out for the outputs. Returns the stats: sizes (n_columns k,
    n_rows r), the parity blocks the columns occupy (n_blocks) and their
    vec(rho) entries (support), the sizes of the sectors eigendecomposed
    (sectors), the gate (sector_imag, the Hermiticity of H; eig_residual,
    cancellation_bound), the largest |Im nu| dt over the modes the rows see
    (max_phase_per_output), max_trace_drift, rk4's n_substeps_per_interval,
    the Hermiticity drift and minimum eigenvalue of the final output, and
    timings_s of the sector generators, eig and solve, and the series loop.
    Raises IntegrationError when the gate fails or, in the one pass over the
    outputs, a column's trace drifts from its own tr rho(0) by more than
    TRACE_TOL (NaN included) at any of them.

    The sectors are decomposed one at a time, and one sector's working set
    (its generator, eigenvectors and residual) is held at a time: each
    sector's share of the final output is summed in as soon as the sector is
    done, and its generator and eigenvectors are freed before the next is
    built. The gates run after the last sector, in the order above.
    """
    if method not in ("expm", "rk4"):
        raise ValueError(f"propagate runs expm or rk4, not {method!r}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid must be 1-D with at least two points")
    if t[0] != 0.0:
        raise ValueError("time grid must start at 0")
    # the chunks evaluate exp(nu t_s) exp(nu t_j) for exp(nu t_{s+j}), which is
    # exact to the rounding of nu t only where every t_i lies within a few
    # rounding steps of t_max i / (n - 1), as on a numpy.linspace grid
    uniform = np.arange(t.size) * (t[-1] / (t.size - 1))
    if not (t[-1] > 0.0 and np.max(np.abs(t - uniform)) <= 4 * EPS * t[-1]):  # NaN fails too
        raise ValueError(f"{method} needs an ascending time grid uniform to rounding (linspace)")
    h = t[1]
    d = H.shape[0]
    if columns.ndim != 2 or columns.shape[0] != d * d or rows.ndim != 2 or rows.shape[1] != d * d:
        raise ValueError(f"columns must be a ({d * d}, k) batch of vec(rho), rows an (r, {d * d}) set")
    k = columns.shape[1]
    rho = columns.T.reshape(k, d, d)
    anti = np.max(np.abs(rho - rho.conj().swapaxes(1, 2)), axis=(1, 2))
    bad = np.flatnonzero(anti > EIG_TOL * np.max(np.abs(rho), axis=(1, 2)))
    if bad.size:  # a NaN column passes here and fails the gate below
        raise ValueError(f"column {bad[0]} is not vec of a Hermitian matrix: "
                         f"max abs(rho - rho^dagger) = {anti[bad[0]]:.3g}")
    rows = np.concatenate([rows, np.eye(d).reshape(1, -1)])  # and the trace row vec(I)
    r = rows.shape[0]

    blocks = [b for b in parity_blocks(H, collapse, dims) if np.any(columns[b])]
    stats: dict = {"method": method, "n_steps": len(t) - 1, "n_columns": k, "n_rows": r - 1,
                   "n_blocks": len(blocks), "support": sum(b.size for b in blocks),
                   "sectors": []}
    herm = np.max(np.abs(H - H.conj().T)) / (np.max(np.abs(H)) or 1.0)
    stats["sector_imag"] = float(herm)
    if not herm <= EIG_TOL:  # the standard form of L is the master equation's only then
        raise IntegrationError(f"H is not Hermitian to {EIG_TOL:g}: the real sector "
                               "eigendecomposition of L needs it", stats)
    first = (rows @ columns).real  # (r, k)
    if method == "rk4":  # substeps per output interval, from H and the collapse set alone
        substeps = max(1, int(np.ceil(h * _spectral_scale(H, collapse) / SUBSTEP_PHASE)))
    final = np.zeros((d * d, k), dtype=complex)
    lam, nus, amps, residual = [], [], [], 0.0
    timings = dict.fromkeys(("generators_s", "eig_solve_s", "series_s"), 0.0)
    started = time.perf_counter()  # each sector: its basis and generator, then eig and solve
    for b in blocks:
        for idx, coef in symmetry_sectors(H, collapse, dims, b):
            v0 = _apply_basis(columns, idx, coef.conj()).real  # Q^H columns, (m, k)
            if not np.any(v0):
                continue
            Ls = sector_liouvillian(H, collapse, idx, coef)
            built = time.perf_counter()
            scale = np.linalg.norm(Ls) or 1.0
            w, V = np.linalg.eig(Ls)
            # ||V w - L_s V||, _SLAB columns at a time, from real products with
            # V's real and imaginary parts: L_s is never cast to complex (V is
            # real when every eigenvalue is)
            squares = 0.0
            for j in range(0, w.size, _SLAB):
                res = V[:, j:j + _SLAB] * w[j:j + _SLAB]
                res.real -= Ls @ V[:, j:j + _SLAB].real
                if np.iscomplexobj(res):
                    res.imag -= Ls @ V[:, j:j + _SLAB].imag
                squares += np.vdot(res, res).real
            residual = max(residual, float(np.sqrt(squares) / scale))
            del Ls, res
            # the steady state's 0 comes out at the rounding floor, and exp(w t)
            # would carry that into the trace at a large enough t
            w[np.abs(w) <= w.size * EPS * scale] = 0.0
            c = np.linalg.solve(V, v0)  # (m, k)
            rows_q = _apply_basis(rows.T, idx, coef).T.real  # Re(rows Q)
            lam.append(w)
            nus.append(nu := w if method == "expm" else _rk4_rates(w, h, substeps))
            amps.append((rows_q @ V)[:, None, :] * c.T)  # (r, k, m)
            # this sector's share of the final output, Q V (e^{nu t_N} c), so
            # its V is freed before the next sector is built
            np.add.at(final, idx,
                      coef[..., None] * (V @ (np.exp(nu * t[-1])[:, None] * c))[:, None, :])
            del V
            stats["sectors"].append(idx.shape[0])
            timings["generators_s"] += built - started
            timings["eig_solve_s"] += (started := time.perf_counter()) - built
    lam, nu, amps = np.concatenate(lam), np.concatenate(nus), np.concatenate(amps, axis=-1)
    magnitude = np.abs(amps)
    stats.update(eig_residual=residual, cancellation_bound=float(
        EPS * np.max(magnitude.sum(axis=-1))))
    if not (residual <= EIG_TOL and stats["cancellation_bound"] <= EIG_TOL):
        raise IntegrationError(f"eigendecomposition of L beyond {EIG_TOL:g} "
                               "(defective or ill-conditioned)", stats)
    seen = np.max(magnitude, axis=(0, 1)) > 1e-12 * np.max(magnitude)
    health = _health(final.T.reshape(k, d, d))
    del magnitude, final  # not read again: released before the chunk loop
    if method == "rk4":
        stats["n_substeps_per_interval"] = substeps
    # real rows and real sector states give conjugate amplitudes on each
    # conjugate pair: keep the Im lam >= 0 half, a pair counted twice as
    # 2 Re(A e^{nu t}) = 2 (Re A Re e^{nu t} - Im A Im e^{nu t}); as floats, the
    # coefficients conj(A) are Re A, -Im A side by side, as the table's Re, Im.
    # Rows ordered (r, k): a chunk's outputs are (r, k, c), each (k, c) contiguous
    kept = lam.imag >= 0.0
    amps = np.conj(amps[..., kept] * (1.0 + (lam[kept].imag > 0.0)), dtype=complex, order="C")
    coeffs = amps.reshape(r * k, -1).view(float)
    # one buffer each, refilled per chunk: the table of e^{nu t} and the
    # outputs with the trace row
    n, rates = min(_CHUNK, len(t)), nu[kept]
    table, outputs = np.empty((n, rates.size), dtype=complex), np.empty(r * k * n)
    stats["max_trace_drift"] = 0.0
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable rk4 mode
        base = np.exp(np.multiply.outer(t[:n], rates))  # e^{nu t_j}, j < _CHUNK
        for s in range(0, len(t), _CHUNK):
            c = min(_CHUNK, len(t) - s)  # flat buffers: a short last chunk stays contiguous
            chunk = outputs[:r * k * c].reshape(r, k, c)
            block, tr = chunk[:-1].swapaxes(0, 1), chunk[-1]
            np.multiply(base[:c], np.exp(rates * t[s]), out=table[:c])
            np.matmul(coeffs, table[:c].view(float).T, out=chunk.reshape(r * k, c))
            if s == 0:
                chunk[..., 0] = first
            worst = float(np.max(np.abs(np.subtract(tr, first[-1, :, None], out=tr), out=tr)))
            if not worst <= stats["max_trace_drift"]:  # larger, or NaN
                stats["max_trace_drift"] = worst
                if not worst <= TRACE_TOL:
                    raise IntegrationError(f"trace drift above {TRACE_TOL:g}", stats)
            reduce(s, block)
    timings["series_s"] = time.perf_counter() - started

    stats["max_phase_per_output"] = float(np.max(np.abs(nu[seen].imag)) * h)
    stats["final_herm_drift"], stats["final_min_eigenvalue"] = health
    stats["timings_s"] = timings
    return stats


def sector_bound(dims: tuple[int, ...]) -> tuple[int, int]:
    """(B, m): the vec(rho) entries B = e^2 + o^2 of the larger parity block,
    for e even and o odd basis states, and a bound m on the size of a
    symmetry sector of it, for dims whose last two factors (the beams) are
    equal and an H and collapse set that keep the parity split and the beam
    swap, as `standard_channels` does with a swap-invariant H. The swap pairs
    the block's Hermitian basis matrices, so a sector holds at most (B + s)/2
    of them, s = F^2 + d - F those it maps to themselves (F = d / dims[-1]
    basis states it fixes)."""
    d, even = int(np.prod(dims)), int(np.count_nonzero(parity(dims) == 0))
    B, F = even**2 + (d - even) ** 2, d // dims[-1]
    return B, min(B, (B + F * F + d - F + 1) // 2)


def held_bytes(dims: tuple[int, ...], k: int, r: int, n_t: int, reduced: int = 0) -> dict[str, int]:
    """Upper bounds on the bytes `propagate` holds for k columns and one set
    of r rows on the space of factor dims `dims` over n_t output times, with
    a `reduce` that keeps `reduced` floats per output of a chunk, from the
    shapes it is given and allocates (16 bytes a complex entry, 8 a float),
    D = d^2 entries of vec(rho), and m from `sector_bound`:

    * columns: per column, the column 1, its mode amplitudes r + 1 and
      coefficients 1 (at most D modes), the real chunk coefficients r + 1
      and the final output 1, complex (D,) vectors, and the amplitudes'
      magnitudes r + 1 float ones; on top, the larger of the final health
      check's 4 (conjugate, difference or Hermitian part, its half,
      eigvalsh's copy) and the final output's 6 (m,) sector terms.
    * sectors: one sector's largest working set, as each sector's L_s and V
      are freed before the next is built: the float (m, m) L_s with one slab,
      S = _SLAB full-width rows of L, as (S, D + 1) complex (a last column
      takes the padding of the rows' nonzeros) and 5 d S worth of the products
      of a term of K (at most d nonzeros a row), and 4 (m, S) basis
      products; 5 float (m, m) for L_s, eig's copy of it and its real
      eigenvectors, and the complex V; or L_s and V with the residual of S
      columns, its product and V's part; and 4 r + 35 complex (D,) vectors'
      worth of the rows (r, and r + 1 each for the rows with the trace row,
      their gather at a sector's indices and its products with the basis), the
      operators (H, the collapse operators, K) and the parity and sector
      index tables.
    * chunks: the e^{nu t} table, its first-chunk base and the product it is
      taken from, (n, D) each, the (r + 1, k, n) outputs and the reduction's
      (reduced, n), n = min(_CHUNK, n_t).
    """
    d = int(np.prod(dims))
    D, (_, m), S, n = d * d, sector_bound(dims), _SLAB, min(_CHUNK, n_t)
    return {
        "columns": k * (16 * (2 * r + 5) * D + 8 * (r + 1) * D + 16 * max(4 * D, 6 * m)),
        "sectors": 8 * max(m * m + 2 * S * (D + 1 + 4 * m + 5 * d), 5 * m * m,
                           3 * m * m + 4 * S * m) + 16 * (4 * r + 35) * D,
        "chunks": 16 * 3 * n * D + 8 * ((r + 1) * k + reduced) * n,
    }
