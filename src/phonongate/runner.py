"""Scenario configuration, orchestration, and what each run writes.

A scenario is a single JSON document: physical parameters (Hz values under
`*_hz` keys), truncations, an initial-state family, a time grid, and the
run mode ("analytic" closed-form curves or "master" open-system evolution).
`ScenarioConfig` checks the whole document when it is constructed, down to
the memory a run must hold; a run computes, then writes
`trajectory.csv` and `summary.json` into the output directory through
`files.write_csv` and `files.write_json`, which own both formats.
Both modes take the initial kets as one (k, 4) array from
`InitialStateFamily.kets`: the analytic mode evaluates the closed form on it
in one call, the master mode propagates the span of the kets' projectors
once and reads every ket's fidelity off it (`master_fidelity_series`).

The `figure` presets reproduce the published curves; they override three
defaults to the conventions that were found to match the published peak
values and times (bare cavity quadrature, n_cav = 2, amplitude-convention
fidelity). See the README for the sensitivity discussion.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import dynamics, fidelity
from .duffing import eigenbasis
from .files import write_csv, write_json
from .gates import ideal_cnot
from .hamiltonians import PhysicalParams, exchange_rate, system_hamiltonian
from .schema import check_fields

# published parameter set for the open-system runs (Hz; x 2*pi on ingestion)
PAPER_V1 = {
    "Delta_hz": 28e6,
    "g_G_hz": 9e6,
    "G_tilde_hz": 2e6,
    "omega_G_hz": 28.6e6,
    "lambda_hz": 209e3,
    "kappa_hz": 523.0,
    "eps_L_hz": 9.34e5,
    "Q": 5e6,
    "T": 3e-3,
}

# published parameter set for the analytic gate construction
PAPER_VA = {
    "Delta_hz": 49.9e6,
    "g_G_hz": 21e3,
    "omega_G_hz": 36.6e6,
}
PAPER_VA_XG_SQ = 0.25

PRESETS = {"paper_v1": PAPER_V1, "paper_va": PAPER_VA}

# the scenario the `analytic` command runs without a config, under a preset's
# params (paper_va unless one is named): the four basis kets on a 120 ms grid
ANALYTIC_DEFAULTS = {"mode": "analytic", "label": "analytic", "t_max_us": 120e3, "n_steps": 4001,
                     "X_G_sq": PAPER_VA_XG_SQ, "initial": {"labels": ["00", "01", "10", "11"]},
                     "outputs": ["fidelity", "avg_entangled", "avg_separable"]}

# bound on what a run holds for its k kets: the float64 series it writes, a
# fidelity and, where `writes_leakage`, a leakage row per ket of a label list
# or per Bloch family, which is averaged chunk by chunk, over n_steps, and
# what else the run holds (`dynamics.held_bytes` with what
# `master_fidelity_series` builds per ket, or `analytic_held_bytes`), so a
# config that cannot be held is refused, not run out of memory
MAX_SERIES_BYTES = 2 * 2**30


def analytic_held_bytes(k: int, n_steps: int) -> dict[str, int]:
    """Upper bounds on the bytes an analytic run of k kets holds besides its
    series, from the shapes `fidelity.gate_fidelity_closed` and `_run_analytic`
    allocate over n_t = n_steps outputs:

    * kets: the closed form's amplitude sum, at most 3 complex (k, n_t) arrays
      at once (the running sum, the next term and their sum); after it, |amp|^2
      and its clipped copy beside the amplitudes (16 + 8 + 8 bytes and a 1-byte
      mask) are less.
    * times: 7 float (n_t,) vectors: the grid and the angles Omega t, with the
      closed form's 2 Omega t and its two cosines and two sines; or, after it,
      the three averaged columns and at most two temporaries of an average
      formula beside the one it builds.
    """
    return {"kets": 16 * 3 * k * n_steps, "times": 8 * 7 * n_steps}

_CNOT = ideal_cnot()


# JSON key of each scalar field below the top level; `params` and the rest of
# `initial` belong to PhysicalParams and InitialStateFamily
_KEYS = {"n_cav": "dims.n_cav", "n_b": "dims.n_b", "cavity_fock": "initial.cavity_fock"}
_SECTIONS = ("params", "dims", "initial")
# accepted values of the enumerated fields; the outputs depend on the mode
_CHOICES = {"mode": ("master", "analytic"), "quadrature_convention": ("symmetric", "bare"),
            "fidelity_convention": ("squared", "amplitude"), "integrator": ("expm", "rk4")}
_OUTPUTS = {"master": ("fidelity", "leakage"),
            "analytic": ("fidelity", "avg_entangled", "avg_separable")}
# the fields only one mode reads: the other mode holds each at its default
_READ_BY = {"analytic": ("X_G_sq", "Omega"), "master": (
    "n_cav", "n_b", "cavity_fock", "quadrature_convention", "integrator", "fidelity_convention")}


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; owns the scenario JSON format. Every type, value and
    cross-field rule is checked at construction, so configs built in code
    obey the same rules as parsed ones, and a config that constructs runs."""

    params: PhysicalParams
    initial: fidelity.InitialStateFamily
    t_max_us: float = 10.0
    n_steps: int = 20001
    mode: str = "master"
    n_cav: int = 3
    n_b: int = 2
    cavity_fock: int = 1
    average_over: tuple[str, ...] | None = None
    outputs: tuple[str, ...] = ("fidelity",)
    quadrature_convention: str = "symmetric"
    fidelity_convention: str = "squared"
    integrator: str = "expm"
    X_G_sq: float | None = None
    Omega: float | None = None
    label: str = "scenario"

    def __post_init__(self):
        check_fields(self, _KEYS)
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {list(choices)}, "
                                 f"got {getattr(self, name)!r}")
        other = next(mode for mode in _READ_BY if mode != self.mode)
        for f in fields(self):
            if f.name in _READ_BY[other] and (v := getattr(self, f.name)) != f.default:
                raise ValueError(f"{_KEYS.get(f.name, f.name)} = {v!r} applies to {other} mode only")
        if not set(self.outputs) <= set(_OUTPUTS[self.mode]):
            raise ValueError(f"{self.mode} outputs are {list(_OUTPUTS[self.mode])}, "
                             f"got {list(self.outputs)}")
        if self.t_max_us <= 0:
            raise ValueError("t_max_us must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.n_cav < 2 or self.n_b < 2 or self.n_b == 3:
            raise ValueError("dims.n_cav must be >= 2, and dims.n_b 2 or >= 4 "
                             "(the quartic term needs 4 levels)")
        k, labelled = self.initial.size, self.initial.kind in fidelity.LABEL_KINDS
        series_bytes = (k if labelled else 1) * (1 + self.writes_leakage) * self.n_steps * 8
        if self.mode == "master":  # propagate's count at the span's n <= 16 columns and
            # n + 1 rows, with each ket's (2, chunk) reduce buffer and n (n + 1) coefficients
            n = min(k, 16)
            held = dynamics.held_bytes(self.dims, n, n + 1, self.n_steps, 2 * k)
            held["kets"] = 8 * k * n * (n + 1)
        else:
            held = analytic_held_bytes(k, self.n_steps)
        if series_bytes + sum(held.values()) > MAX_SERIES_BYTES:
            more = ", ".join(f"{name} {v}" for name, v in held.items())
            raise ValueError(f"{k} initial kets: {series_bytes} bytes of float64 series, and the "
                             f"{self.mode} run's {more} more: {series_bytes + sum(held.values())} "
                             f"bytes, over the {MAX_SERIES_BYTES}-byte bound")
        if not 0 <= self.cavity_fock < self.n_cav:
            raise ValueError("cavity Fock index outside the cavity truncation")
        if self.average_over is not None and not (
                labelled and self.average_over and set(self.average_over) <= set(self.initial.labels)):
            raise ValueError(f"average_over {list(self.average_over)} must name members of a "
                             f"label list, not of {self.initial.to_mapping()}")
        if self.n_b > 2 and not self.params.omega_G > 0:
            raise ValueError("dims.n_b > 2 needs omega_G_hz > 0 for the beam spectrum")
        if self.mode == "analytic":
            if not labelled:
                raise ValueError(f"analytic mode takes a label list, not {self.initial.kind!r}")
            if self.X_G_sq is not None and self.X_G_sq < 0:
                raise ValueError(f"X_G_sq must be >= 0 (a squared matrix element), got {self.X_G_sq}")
            _analytic_omega(self)

    @property
    def writes_leakage(self) -> bool:
        """Whether a run writes leakage series: one that lists them, or any at
        n_b > 2 (both master runs). At n_b = 2 the qubit projector is the
        identity on the beams, so the leakage would only be the trace drift."""
        return "leakage" in self.outputs or self.n_b > 2

    @property
    def dims(self) -> tuple[int, int, int]:
        """Factor dims of the master system: (cavity, beam, beam)."""
        return (self.n_cav, self.n_b, self.n_b)

    def time_grid(self) -> np.ndarray:
        """The n_steps output times from 0 to t_max_us, in seconds."""
        return np.linspace(0.0, self.t_max_us * 1e-6, self.n_steps)

    @classmethod
    def from_mapping(cls, doc: dict, keys: dict | None = None) -> "ScenarioConfig":
        """Parse a scenario document with each dotted config key of `keys`
        (e.g. params.g_G_hz, dims.n_b, or n_steps at the top level) set to its
        value, as a sweep sets its values and a command its flags. Unknown
        keys fail here, values in the constructor."""
        if not isinstance(doc, dict) or any(not isinstance(doc.get(k, {}), dict) for k in _SECTIONS):
            raise ValueError(f"a scenario and its {', '.join(_SECTIONS)} must be JSON objects")
        doc = dict(doc)
        sections = {key: dict(doc.pop(key, {})) for key in _SECTIONS}
        for key, value in (keys or {}).items():
            where, _, name = key.rpartition(".")
            if where not in ("", *_SECTIONS) or key in _SECTIONS:
                raise ValueError(f"{key!r} is not a config key")
            (sections[where] if where else doc)[name] = value
        kw = {}
        for name, (where, key) in _SCALARS.items():
            source = sections[where] if where else doc
            if key in source:
                kw[name] = source.pop(key)
        for where, rest in (("scenario", doc), ("dims", sections["dims"])):
            if rest:
                raise ValueError(f"unknown {where} keys {sorted(rest)}")
        return cls(
            params=PhysicalParams.from_config(sections["params"]),
            initial=fidelity.InitialStateFamily.from_mapping(
                sections["initial"] or {"kind": "fixed-list", "labels": ["00"]}),
            **kw,
        )

    def to_mapping(self) -> dict:
        """JSON echo of the configuration, the inverse of `from_mapping`."""
        doc = {"params": self.params.to_config(), "dims": {}, "initial": self.initial.to_mapping()}
        for name, (where, key) in _SCALARS.items():
            if (value := getattr(self, name)) is not None:
                (doc[where] if where else doc)[key] = value
        return doc


# scalar field -> (section or "", JSON key): the table behind both directions
_SCALARS = {f.name: _KEYS.get(f.name, f.name).rpartition(".")[::2]
            for f in fields(ScenarioConfig) if f.name not in ("params", "initial")}


# ---------------------------------------------------------------------------
# peak extraction


def refine_peak(times: np.ndarray, series: np.ndarray) -> tuple[float, float]:
    """Quadratic refinement of the sampled maximum; returns (value, time)."""
    i = int(np.argmax(series))
    if 0 < i < len(series) - 1:
        fm, f0, fp = series[i - 1], series[i], series[i + 1]
        den = fm - 2.0 * f0 + fp
        if den < 0:
            delta = 0.5 * (fm - fp) / den
            value = f0 - 0.25 * (fm - fp) * delta
            # every refined series is a fidelity: a vertex above 1 is the parabola's
            # overshoot through aliased samples, where the sampled maximum stands
            if value <= 1.0:
                return float(value), float(times[i] + delta * (times[i + 1] - times[i]))
    return float(series[i]), float(times[i])


def envelope_maxima(times: np.ndarray, series: np.ndarray, window_us: float = 0.2,
                    keep: int = 8) -> list[dict]:
    """Local maxima of the oscillation envelope, each parabola-refined."""
    dt = times[1] - times[0]
    w = max(1, int(round(window_us * 1e-6 / dt)))
    n_win = len(series) // w
    if n_win < 3:
        value, t = refine_peak(times, series)
        return [{"t_us": t * 1e6, "value": value}]
    env = series[:n_win * w].reshape(n_win, w).max(axis=1)
    out = []
    for k in range(1, n_win - 1):
        if env[k] >= env[k - 1] and env[k] >= env[k + 1]:
            lo = max(0, k * w - 1)
            hi = min(len(series), (k + 1) * w + 1)
            value, t = refine_peak(times[lo:hi], series[lo:hi])
            out.append({"t_us": t * 1e6, "value": value})
    out.sort(key=lambda m: -m["value"])
    return out[:keep]


# ---------------------------------------------------------------------------
# master-equation fidelity pipeline


def _qubit_isometry(n_b: int, omega_G: float, lam: float) -> np.ndarray:
    """n_b x 2 isometry onto the two lowest beam eigenstates of
    `duffing.eigenbasis`, each exactly zero off its Fock parity, so the
    initial states stay in one parity block of the Liouvillian (exactly the
    identity for n_b = 2, where the quartic term is a constant)."""
    return eigenbasis(omega_G, lam, n_b)[1][:, :2]


def open_system(cfg: ScenarioConfig) -> tuple[np.ndarray, tuple, tuple, np.ndarray]:
    """(H, collapse, dims, kk): the open system of a master scenario, the
    only place its generator and qubit isometry are built. H is
    `system_hamiltonian` in cfg's quadrature convention on dims
    (cavity, beam, beam), collapse `dynamics.standard_channels` at kappa
    and the params' `beam_loss` (gamma_m, n_th), and kk = iso (x) iso the
    (n_b^2, 4) isometry onto the beams' qubit levels (`_qubit_isometry`;
    Fock states for n_b = 2)."""
    p, dims = cfg.params, cfg.dims
    iso = _qubit_isometry(cfg.n_b, p.omega_G, p.lam)
    return (system_hamiltonian(p, dims, cfg.quadrature_convention),
            dynamics.standard_channels(dims, p.kappa, *p.beam_loss()), dims, np.kron(iso, iso))


def qubit_vectors(ops: np.ndarray, cavity: np.ndarray, kk: np.ndarray) -> np.ndarray:
    """vec(cavity (x) kk M kk†), row-major, of each (4, 4) qubit operator M of
    the (n, 4, 4) `ops`, for an (n_cav, n_cav) cavity operator and the
    (n_b^2, 4) isometry kk onto the qubit levels: (n, d^2). Its conjugate is
    the row of tr(A rho) for A = cavity (x) kk M kk† (cavity and M Hermitian)."""
    return np.kron(cavity[None], kk @ ops @ kk.conj().T).reshape(len(ops), -1)


def spanning_subset(ops: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(chosen, coef): members of the (k, 4, 4) Hermitian `ops` whose span holds
    all of them, each picked as the member with the largest residual off the
    span of those picked before, and the real (k, n) coefficients of every
    member in the n chosen ones, from the Gram matrix of the chosen; each
    chosen member's are exactly its unit vector. A residual within rounding,
    16^2 eps times the largest member's norm (up to 16 projections of 16
    entries each), counts as 0."""
    x = ops.reshape(len(ops), -1)
    rest, chosen = x.copy(), []
    floor = x.shape[1] ** 2 * dynamics.EPS * np.max(np.linalg.norm(x, axis=1))
    while len(chosen) < x.shape[1] and np.max(norms := np.linalg.norm(rest, axis=1)) > floor:
        chosen.append(j := int(np.argmax(norms)))
        rest -= np.outer(rest @ rest[j].conj() / norms[j] ** 2, rest[j])
    # a C-contiguous copy: matmul runs a strided view through a non-BLAS loop of its own
    coef = np.linalg.solve(x[chosen].conj() @ x[chosen].T, x[chosen].conj() @ x.T).T.real.copy()
    coef[chosen] = np.eye(len(chosen))
    return chosen, coef


def master_fidelity_series(
    cfg: ScenarioConfig, kets: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Evolve a (k, 4) batch of initial two-qubit kets under the full system
    Lindbladian and return their fidelity series against the CNOT targets,
    in cfg's fidelity convention.

    Both outputs are linear in rho(0) and ratios of linear functionals of
    rho(t): the numerator <u|Tr_cav rho|u> with u = kk CNOT v, and the qubit
    weight tr(P Tr_cav rho) with P = kk kk†. So one `dynamics.propagate` call
    evolves the columns of a spanning subset of the kets' projectors
    |cavity_fock><cavity_fock| (x) kk v v† kk† (`spanning_subset`) and reads
    one shared row set, the chosen kets' targets u u† and P. CNOT
    conjugation is unitary and maps each ket's projector onto its target's,
    so the targets span every ket's target with the ket's own coefficients
    a. A ket's numerator is then the sum of a_l a_j times output (j, l), and
    its weight the sum of a_j times output (j, P): two real products per
    chunk of outputs, as propagate hands it over, then the ratio, clipped at
    0, its square root in the amplitude convention, and the leakage
    1 - tr(P Tr_cav rho). Returns (times, fidelity, leakage, stats), both
    (k, n_t) per ket, or with `weights` their weighted means (n_t,); the
    leakage is None unless cfg `writes_leakage`. stats carries the
    integrator's health figures, n_kets, the max leakage out of the qubit
    subspace and the smallest qubit weight the fidelity was divided by.
    """
    H, collapse, dims, kk = open_system(cfg)
    times = cfg.time_grid()
    k = len(kets)
    proj = kets[:, :, None] * kets.conj()[:, None, :]
    cols, a = spanning_subset(proj)
    u = (kets @ _CNOT.T)[cols]  # the chosen kets' targets u = CNOT v
    # the columns with the cavity in |cavity_fock><cavity_fock|, the rows traced over it
    columns = qubit_vectors(proj[cols], np.diag(np.eye(cfg.n_cav)[cfg.cavity_fock]), kk).T
    rows = qubit_vectors(np.concatenate([u[:, :, None] * u.conj()[:, None, :], [np.eye(4)]]),
                         np.eye(cfg.n_cav), kk).conj()
    # each ket's coefficients over a chunk's (r, n) outputs: a_l a_j on the n
    # target rows for its numerator, a_j on the P row for its weight
    pairs, n2 = (a[:, :, None] * a[:, None, :]).reshape(k, -1), len(cols) ** 2
    del proj

    shape, lowest = (k, times.size) if weights is None else times.shape, []
    fid, leak = np.empty(shape), np.empty(shape) if cfg.writes_leakage else None
    out = None  # (2, k, c) buffer of numerators and qubit weights, sized from the first block

    def reduce(s, block):  # (n, r, c) outputs of the span
        nonlocal out
        c = block.shape[-1]
        out = np.empty(2 * k * c) if out is None else out
        num, weight = out[:2 * k * c].reshape(2, k, c)
        flat = block.swapaxes(0, 1).reshape(-1, c)
        np.matmul(pairs, flat[:n2], out=num)
        np.matmul(a, flat[n2:], out=weight)
        lowest.append(np.min(weight))
        np.maximum(np.divide(num, weight, out=num), 0.0, out=num)  # the clip at 0
        if cfg.fidelity_convention == "amplitude":
            np.sqrt(num, out=num)
        if leak is not None:
            np.subtract(1.0, weight, out=weight)
        for series, rows in ((fid, num), (leak, weight)):
            if series is not None:
                series[..., s:s + c] = rows if weights is None else weights @ rows / weights.sum()

    stats = dynamics.propagate(H, collapse, dims, columns, rows, times, cfg.integrator, reduce)
    # 1 - w rounds monotonically in w, so the largest leakage is 1 - the smallest weight
    stats["min_qubit_weight"] = float(np.min(lowest))
    stats.update(integrator=cfg.integrator, n_kets=k, max_leakage=1.0 - stats["min_qubit_weight"])
    return times, fid, leak, stats


# ---------------------------------------------------------------------------
# scenario runs


def _analytic_omega(cfg: ScenarioConfig) -> float:
    """The closed form's exchange rate: Omega as given, or `exchange_rate` of
    the params at X_G_sq (PAPER_VA_XG_SQ unless given). A given Omega reads
    no X_G_sq, so both are refused, and so is a rate that is not finite and
    nonzero, as `gatecheck` refuses it."""
    p = cfg.params
    if cfg.Omega is not None:
        if cfg.X_G_sq is not None:
            raise ValueError("analytic mode takes Omega or X_G_sq, not both: Omega reads no X_G_sq")
        omega = cfg.Omega
    elif not (p.Delta and p.g_G and p.omega_G):
        raise ValueError("analytic mode needs Omega, or Delta, g_G, omega_G with |Delta| != omega_G")
    else:
        omega = exchange_rate(p.Delta, p.omega_G, p.g_G,
                              PAPER_VA_XG_SQ if cfg.X_G_sq is None else cfg.X_G_sq)
    if not (np.isfinite(omega) and omega != 0):
        raise ValueError(f"analytic mode needs a finite nonzero exchange rate, got Omega = {omega}")
    return float(omega)


MIN_QUBIT_WEIGHT = 0.05  # below it, summary.json warns of a poorly conditioned fidelity


def _warnings(stats: dict) -> list[str]:
    """Recorded, not refused: the literal n_b = 4 runs of the published grid
    trip both."""
    found = []
    phase = stats.get("max_phase_per_output")
    if phase is not None and phase > np.pi:
        found.append(f"max_phase_per_output {phase:.3g} rad > pi: the time grid aliases "
                     "the fastest oscillation the outputs see")
    weight = stats.get("min_qubit_weight")
    if weight is not None and weight < MIN_QUBIT_WEIGHT:
        found.append(f"min_qubit_weight {weight:.3g} < {MIN_QUBIT_WEIGHT:g}: the fidelity is "
                     "conditioned on a small share of the population")
    return found


def run_scenario(cfg: ScenarioConfig, outdir) -> dict:
    """Execute one scenario; writes trajectory.csv and summary.json, returns
    the summary mapping."""
    os.makedirs(outdir, exist_ok=True)
    started = time.perf_counter()
    if cfg.mode == "analytic":
        times, columns, stats = _run_analytic(cfg)
    else:
        times, columns, stats = _run_master(cfg)

    main = next(iter(columns))
    for name in columns:
        if name.startswith("F_avg"):
            main = name
    peak_value, peak_time = refine_peak(times, columns[main])
    maxima = envelope_maxima(times, columns[main])
    late = int(np.searchsorted(times, 0.3e-6)) if cfg.mode == "master" else 0
    if late == times.size:
        late = 0
    peak_late_value, peak_late_time = refine_peak(times[late:], np.asarray(columns[main])[late:])

    summary = {
        "label": cfg.label,
        "mode": cfg.mode,
        "main_column": main,
        "fidelity_convention": cfg.fidelity_convention,
        "peak_fidelity": peak_value,
        "peak_time_s": peak_time,
        "peak_time_us": peak_time * 1e6,
        "peak_after_initial": {"value": peak_late_value, "t_us": peak_late_time * 1e6},
        "local_maxima": maxima,
        "leakage_max": stats.get("max_leakage", 0.0),
        "runtime_s": None,  # set once the CSV is written, which it includes
        "timings_s": stats.pop("timings_s", {}),
        "integrator": stats,
        "warnings": _warnings(stats),
        "config": cfg.to_mapping(),
    }
    written = time.perf_counter()
    write_csv(os.path.join(outdir, "trajectory.csv"), ["t_s", *columns], [times, *columns.values()])
    summary["runtime_s"] = (done := time.perf_counter()) - started
    summary["timings_s"]["csv_s"] = done - written
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def _fidelity_columns(cfg: ScenarioConfig, fid: np.ndarray) -> dict[str, np.ndarray]:
    """F_<label> per row of the (k, n_t) fidelities of a label list, then
    F_avg over cfg.average_over, or over every member when there are several."""
    labels = cfg.initial.labels
    columns = {f"F_{lbl}": s for lbl, s in zip(labels, fid)}
    avg_members = cfg.average_over or (labels if len(labels) > 1 else None)
    if avg_members:  # summed into one copy in np.mean's order, ((c0 + c1) + c2 ...) / m
        columns["F_avg"] = avg = columns[f"F_{avg_members[0]}"].copy()
        for lbl in avg_members[1:]:
            avg += columns[f"F_{lbl}"]
        avg /= len(avg_members)
    return columns


def _run_analytic(cfg: ScenarioConfig):
    omega = _analytic_omega(cfg)
    times = cfg.time_grid()
    kets, _ = cfg.initial.kets()
    columns = _fidelity_columns(
        cfg, fidelity.gate_fidelity_closed(*kets.T[:, :, None], omega * times))
    if "avg_entangled" in cfg.outputs:
        columns["F_avg_entangled"] = np.asarray(fidelity.avg_fidelity_entangled(omega * times))
    if "avg_separable" in cfg.outputs:
        columns["F_avg_separable"] = np.asarray(fidelity.avg_fidelity_separable(omega * times))
    # 4 Omega is the fastest term of |amp|^2 and of the separable average
    stats = {"Omega_rad_s": omega, "integrator": "closed-form",
             "max_phase_per_output": 4 * abs(omega) * times[1]}
    return times, columns, stats


def _run_master(cfg: ScenarioConfig):
    """All of the family's kets through `master_fidelity_series` as one
    batch: a label list gives F_<label> (and leakage_<label>) columns, a
    Bloch family its weighted averages F_avg_<family> (and leakage_avg_...),
    the leakages where cfg `writes_leakage`."""
    kets, weights = cfg.initial.kets()
    times, fid, leak, stats = master_fidelity_series(cfg, kets, weights)
    if weights is None:
        columns = _fidelity_columns(cfg, fid)
        names = [f"leakage_{lbl}" for lbl in cfg.initial.labels]
    else:  # Bloch-sphere families: the weighted averages over the sampled sphere
        name = cfg.initial.family or "separable"
        columns, names = {f"F_avg_{name}": fid}, [f"leakage_avg_{name}"]
    if leak is not None:
        columns.update(zip(names, leak.reshape(len(names), -1)))
    return times, columns, stats


# ---------------------------------------------------------------------------
# figure presets


_PSI = ("psi1", "psi2", "psi3", "psi4")
_VARPHI = ("varphi1", "varphi2", "varphi3", "varphi4")

# figure id -> (initial-state kind, labels or Bloch families, average_over);
# a Bloch figure runs one scenario per family
FIGURES = {
    "fig3": ("fixed-list", ("00", "01", "10", "11"), ("00", "01", "11")),
    "fig4": ("named-superposition", _PSI, None),
    "fig5": ("named-superposition", _PSI, _PSI),
    "fig6": ("named-superposition", _VARPHI, None),
    "fig7": ("named-superposition", _VARPHI, _VARPHI),
    "fig8": ("named-superposition", ("four_equal",), None),
    "fig9": ("schmidt-entangled", ("Phi1", "Phi2", "Phi3", "Phi4"), None),
    "fig10": ("schmidt-entangled", ("Psi",), None),
}


def figure_config(fig_id: str, keys: dict | None = None) -> ScenarioConfig | list[ScenarioConfig]:
    """Scenario(s) behind one published figure, each parsed once from its
    document with the dotted config `keys` set (e.g. dims.n_b, integrator,
    initial.grid): paper_v1 parameters with the conventions that reproduce
    the published peaks (bare X_c, n_cav = 2, amplitude fidelity)."""
    if fig_id not in FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}")
    kind, members, average_over = FIGURES[fig_id]
    initials = ([{"kind": kind, "labels": members}] if kind in fidelity.LABEL_KINDS
                else [{"kind": kind, "family": name} for name in members])
    cfgs = [ScenarioConfig.from_mapping(
        {"params": PAPER_V1, "dims": {"n_cav": 2}, "quadrature_convention": "bare",
         "fidelity_convention": "amplitude", "initial": initial, "average_over": average_over,
         "label": f"{fig_id}_{initial['family']}" if len(initials) > 1 else fig_id}, keys)
        for initial in initials]
    return cfgs if len(cfgs) > 1 else cfgs[0]


def _peaks(summary: dict) -> dict:
    """A run's peaks as a figure's or a sweep's index lists them: the sampled
    maximum, and the gate peak after the initial overlap."""
    return {key: summary[key] for key in ("peak_fidelity", "peak_time_us", "peak_after_initial")}


def run_figure(fig_id: str, outdir, keys: dict | None = None) -> dict:
    """Emit the CSV data behind one published figure, its scenarios with the
    dotted config `keys` set. Its configs are built, and so validated, before
    any directory is made; fig2 reads no scenario, so it takes no keys."""
    if fig_id == "fig2":
        if keys:
            raise ValueError(f"fig2 reads no scenario, so it takes no config keys, got {sorted(keys)}")
        return _run_fig2(outdir)
    cfgs = figure_config(fig_id, keys)
    if isinstance(cfgs, ScenarioConfig):
        return run_scenario(cfgs, outdir)
    summaries = [run_scenario(c, os.path.join(outdir, c.label)) for c in cfgs]
    combined = {
        "figure": fig_id,
        "runs": {s["label"]: {**_peaks(s), "outdir": s["label"]} for s in summaries},
    }
    write_json(os.path.join(outdir, "summary.json"), combined)
    return combined


def _run_fig2(outdir) -> dict:
    """Fidelity bars of the closed-form gate at Omega t = pi/2."""
    os.makedirs(outdir, exist_ok=True)
    family = fidelity.InitialStateFamily("fixed-list", ("00", "01", "10", "11"))
    kets, _ = family.kets()
    values = fidelity.gate_fidelity_closed(*kets.T, np.pi / 2)
    write_csv(os.path.join(outdir, "trajectory.csv"), ["state", "fidelity"], [family.labels, values])
    fids = dict(zip(family.labels, values.tolist()))
    summary = {"label": "fig2", "mode": "analytic", "fidelities": fids,
               "peak_fidelity": max(fids.values())}
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# sweeps


def run_sweep(cfg: ScenarioConfig, param: str, values, outdir) -> dict:
    """One scenario per value of a dotted config key (e.g. params.g_G_hz).
    Every value is validated, and the run directories (named by the value in
    %g format) checked to be distinct, before any run starts."""
    tasks = []
    for v in values:
        keys = {"label": f"{cfg.label}_{param}={v:g}", param: v}  # a swept label wins
        tasks.append((ScenarioConfig.from_mapping(cfg.to_mapping(), keys),
                      os.path.join(outdir, f"{param.replace('.', '_')}={v:g}")))
    names = [sub for _, sub in tasks]
    if len(set(names)) < len(names):
        raise ValueError(f"sweep values {list(values)} give run directories that collide: "
                         f"{sorted({os.path.basename(n) for n in names if names.count(n) > 1})}")
    os.makedirs(outdir, exist_ok=True)
    summaries = [run_scenario(c, sub) for c, sub in tasks]
    manifest = {
        "param": param,
        "values": [float(v) for v in values],
        "runs": [{"value": float(v), "outdir": os.path.relpath(sub, outdir), **_peaks(s)}
                 for (_, sub), s, v in zip(tasks, summaries, values)],
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest
