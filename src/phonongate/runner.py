"""Scenario configuration, orchestration and tabular emission.

A scenario is a single JSON document: physical parameters (Hz values under
`*_hz` keys), truncations, an initial-state family, a time grid, and the
run mode ("analytic" closed-form curves or "master" open-system evolution).
`ScenarioConfig` checks the whole document when it is constructed; a run
computes, then writes `trajectory.csv` and `summary.json` atomically into
the output directory.

The `figure` presets reproduce the published curves; they override three
defaults to the conventions that were found to match the published peak
values and times (bare cavity quadrature, n_cav = 2, amplitude-convention
fidelity). See the README for the sensitivity discussion.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg import eigh

from . import dynamics, fidelity
from .dynamics import CollapseSet, Trajectory
from .duffing import duffing_hamiltonian
from .files import atomic_write
from .fockspace import SpaceDescriptor
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

_CNOT = ideal_cnot().data


# JSON key of each scalar field below the top level; `params` and the rest of
# `initial` belong to PhysicalParams and InitialStateFamily
_KEYS = {"n_cav": "dims.n_cav", "n_b": "dims.n_b", "cavity_fock": "initial.cavity_fock"}
_SECTIONS = ("params", "dims", "initial")
# accepted values of the enumerated fields; the outputs depend on the mode
_CHOICES = {"mode": ("master", "analytic"), "quadrature_convention": ("symmetric", "bare"),
            "fidelity_convention": ("squared", "amplitude"), "integrator": ("expm", "rk4")}
_OUTPUTS = {"master": ("fidelity", "leakage"),
            "analytic": ("fidelity", "avg_entangled", "avg_separable")}


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
        if not 0 <= self.cavity_fock < self.n_cav:
            raise ValueError("cavity Fock index outside the cavity truncation")
        labelled = self.initial.kind in fidelity.LABEL_KINDS
        if self.average_over is not None and not (
                labelled and self.average_over and set(self.average_over) <= set(self.initial.labels)):
            raise ValueError(f"average_over {list(self.average_over)} must name members of a "
                             f"label list, not of {self.initial.to_mapping()}")
        if self.mode == "analytic":
            if not labelled:
                raise ValueError(f"analytic mode takes a label list, not {self.initial.kind!r}")
            if self.fidelity_convention != "squared":
                raise ValueError("analytic mode reports the squared fidelity convention only")
            _analytic_omega(self)
        else:
            if self.X_G_sq is not None or self.Omega is not None:
                raise ValueError("X_G_sq and Omega apply to analytic mode only")
            if self.n_b > 2 and not self.params.omega_G > 0:
                raise ValueError("dims.n_b > 2 needs omega_G_hz > 0 for the beam spectrum")

    @classmethod
    def from_mapping(cls, doc: dict) -> "ScenarioConfig":
        """Parse a scenario document: unknown keys fail here, values in the constructor."""
        if not isinstance(doc, dict) or any(not isinstance(doc.get(k, {}), dict) for k in _SECTIONS):
            raise ValueError(f"a scenario and its {', '.join(_SECTIONS)} must be JSON objects")
        doc = dict(doc)
        sections = {key: dict(doc.pop(key, {})) for key in _SECTIONS}
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


def resolved_params(cfg: ScenarioConfig) -> PhysicalParams:
    """Fill gamma_m from Q and n_th from T where absent."""
    p = cfg.params
    if p.gamma_m is None:
        gamma_m = dynamics.mech_damping(p.omega_G, p.Q) if p.Q and p.omega_G else 0.0
        p = replace(p, gamma_m=gamma_m)
    if p.n_th is None:
        n_th = dynamics.thermal_occupation(p.omega_G, p.T) if p.T is not None and p.omega_G else 0.0
        p = replace(p, n_th=n_th)
    return p


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
            dt = times[i + 1] - times[i]
            return float(f0 - 0.25 * (fm - fp) * delta), float(times[i] + delta * dt)
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
    env = np.array([series[k * w:(k + 1) * w].max() for k in range(n_win)])
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
    """n_b x 2 isometry onto the two lowest beam eigenstates (identity block
    for n_b = 2, where the quartic term is inert). The Duffing Hamiltonian
    keeps the Fock parity, so it is diagonalized on its even and its odd
    levels apart: each eigenstate is exactly zero off its parity, and the
    initial states stay in one parity block of the Liouvillian."""
    if n_b == 2:
        return np.eye(2, dtype=complex)
    h = duffing_hamiltonian(omega_G, lam, n_b)
    energies, vecs = [], []
    for parity in (0, 1):
        levels = np.flatnonzero(h.space.parity == parity)
        e, v = eigh(h.data[np.ix_(levels, levels)])
        full = np.zeros((n_b, levels.size), dtype=complex)
        full[levels] = v
        energies.append(e)
        vecs.append(full)
    iso = np.concatenate(vecs, axis=1)[:, np.argsort(np.concatenate(energies))[:2]]
    for n in range(2):
        if iso[n, n].real < 0:
            iso[:, n] = -iso[:, n]
    return iso


def master_fidelity_series(
    cfg: ScenarioConfig, states: list[tuple[str, np.ndarray]]
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray], dict]:
    """Evolve every initial two-qubit ket under the full system Lindbladian and
    return per-state squared-overlap fidelity series against the CNOT targets.

    Both outputs are ratios of linear functionals of rho, handed to
    `dynamics.propagate` as rows, with every state in one batch: the
    numerator <u|Tr_cav rho|u> with u = kk CNOT v, and the qubit weight
    tr(P Tr_cav rho) with P = kk kk†. Returns (times, {label: F_sq series},
    {label: leakage series}, stats); stats carries the integrator's health
    figures, the max leakage out of the qubit subspace and the smallest
    qubit weight the fidelity was divided by.
    """
    p = resolved_params(cfg)
    space = SpaceDescriptor((cfg.n_cav, cfg.n_b, cfg.n_b))
    H = system_hamiltonian(p, space, cfg.quadrature_convention)
    collapse = CollapseSet.standard_channels(space, p.kappa, p.gamma_m, p.n_th)
    t_max = cfg.t_max_us * 1e-6
    times = np.linspace(0.0, t_max, cfg.n_steps)

    # per-beam isometry onto the qubit levels (Fock states for n_b = 2)
    iso = _qubit_isometry(cfg.n_b, p.omega_G, p.lam)
    kk = np.kron(iso, iso)  # (n_b^2) x 4

    # the row of tr(M rho) on row-major vec(rho) is vec(M^T)
    cav_eye = np.eye(cfg.n_cav)
    weight_row = np.kron(cav_eye, kk.conj() @ kk.T).reshape(-1)
    cav = np.zeros(cfg.n_cav, dtype=complex)
    cav[cfg.cavity_fock] = 1.0
    vecs, rows = [], []
    for _, v4 in states:
        psi = np.kron(cav, kk @ v4)
        vecs.append(np.outer(psi, psi.conj()).reshape(-1))
        u = kk @ (_CNOT @ v4)
        rows.append((np.kron(cav_eye, np.outer(u.conj(), u)).reshape(-1), weight_row))

    series, stats = dynamics.propagate(H, collapse, np.stack(vecs, axis=1), np.array(rows),
                                       times, cfg.integrator)
    f_sq, weight = series[:, 0], series[:, 1]
    stats["min_qubit_weight"] = float(np.min(weight))
    np.clip(np.divide(f_sq, weight, out=f_sq), 0.0, None, out=f_sq)
    leak = np.subtract(1.0, weight, out=weight)
    stats.update(integrator=cfg.integrator, max_leakage=float(np.max(leak)))
    labels = [lbl for lbl, _ in states]
    return times, {lbl: f_sq[i] for i, lbl in enumerate(labels)}, \
        {lbl: leak[i] for i, lbl in enumerate(labels)}, stats


# ---------------------------------------------------------------------------
# scenario runs


def _analytic_omega(cfg: ScenarioConfig) -> float:
    if cfg.Omega is not None:
        return float(cfg.Omega)
    p = cfg.params
    xg_sq = PAPER_VA_XG_SQ if cfg.X_G_sq is None else cfg.X_G_sq
    if not (p.Delta and p.g_G and p.omega_G):
        raise ValueError("analytic mode needs Omega, or Delta, g_G, omega_G with |Delta| != omega_G")
    return exchange_rate(p.Delta, p.omega_G, p.g_G, xg_sq)


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
    skip = times >= 0.3e-6 if cfg.mode == "master" else np.ones_like(times, bool)
    if not np.any(skip):
        skip = np.ones_like(times, bool)
    peak_late_value, peak_late_time = refine_peak(times[skip], np.asarray(columns[main])[skip])

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
        "runtime_s": time.perf_counter() - started,
        "integrator": stats,
        "warnings": _warnings(stats),
        "config": cfg.to_mapping(),
    }
    traj = Trajectory(times, None, columns, stats)
    traj.to_csv(os.path.join(outdir, "trajectory.csv"))
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def _fidelity_columns(cfg: ScenarioConfig, series: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """F_<label> per member, then F_avg over cfg.average_over, or over every
    member when there are several."""
    columns = {f"F_{lbl}": s for lbl, s in series.items()}
    avg_members = cfg.average_over or (list(series) if len(series) > 1 else None)
    if avg_members:
        columns["F_avg"] = np.mean([columns[f"F_{lbl}"] for lbl in avg_members], axis=0)
    return columns


def _run_analytic(cfg: ScenarioConfig):
    omega = _analytic_omega(cfg)
    times = np.linspace(0.0, cfg.t_max_us * 1e-6, cfg.n_steps)
    columns = _fidelity_columns(cfg, {
        lbl: np.asarray(fidelity.gate_fidelity_closed(*v4, omega * times))
        for lbl, v4 in cfg.initial.members})
    if "avg_entangled" in cfg.outputs:
        columns["F_avg_entangled"] = np.asarray(fidelity.avg_fidelity_entangled(omega * times))
    if "avg_separable" in cfg.outputs:
        columns["F_avg_separable"] = np.asarray(fidelity.avg_fidelity_separable(omega * times))
    stats = {"Omega_rad_s": omega, "integrator": "closed-form"}
    return times, columns, stats


def _run_master(cfg: ScenarioConfig):
    emit_leakage = "leakage" in cfg.outputs or cfg.n_b > 2
    amplitude = cfg.fidelity_convention == "amplitude"
    if cfg.initial.kind in fidelity.LABEL_KINDS:
        times, series, leaks, stats = master_fidelity_series(cfg, list(cfg.initial.members))
        columns = _fidelity_columns(
            cfg, {lbl: np.sqrt(s) if amplitude else s for lbl, s in series.items()})
        if emit_leakage:
            for lbl in series:
                columns[f"leakage_{lbl}"] = leaks[lbl]
        return times, columns, stats
    # Bloch-sphere families: weighted average over the sampled sphere
    kets, weights = fidelity.bloch_grid(cfg.initial)
    times, series, leaks, stats = master_fidelity_series(cfg, list(enumerate(kets)))
    name = cfg.initial.family or "separable"
    fid = np.stack(list(series.values()))
    stacks = {f"F_avg_{name}": np.sqrt(fid, out=fid) if amplitude else fid}
    if emit_leakage:
        stacks[f"leakage_avg_{name}"] = np.stack(list(leaks.values()))
    return times, {col: (weights[:, None] * s).sum(axis=0) / weights.sum()
                   for col, s in stacks.items()}, stats


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


def figure_config(fig_id: str, n_b: int = 2, bloch_grid: tuple[int, int] = (16, 16),
                  integrator: str = "expm") -> ScenarioConfig | list[ScenarioConfig]:
    """Scenario(s) behind one published figure: paper_v1 parameters with the
    conventions that reproduce the published peaks (bare X_c, n_cav = 2,
    amplitude fidelity)."""
    if fig_id not in FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}")
    kind, members, average_over = FIGURES[fig_id]
    base = dict(params=PhysicalParams.from_config(PAPER_V1), n_cav=2, n_b=n_b,
                quadrature_convention="bare", fidelity_convention="amplitude",
                integrator=integrator)
    if kind in fidelity.LABEL_KINDS:
        return ScenarioConfig(initial=fidelity.InitialStateFamily(kind, members),
                              average_over=average_over, label=fig_id, **base)
    cfgs = [ScenarioConfig(initial=fidelity.InitialStateFamily(kind, family=name, grid=bloch_grid),
                           label=f"{fig_id}_{name}" if len(members) > 1 else fig_id, **base)
            for name in members]
    return cfgs if len(cfgs) > 1 else cfgs[0]


def _run_all(tasks: list[tuple[ScenarioConfig, str]], jobs: int | None) -> list[dict]:
    """`run_scenario` over (config, outdir) pairs on `jobs` spawned workers (None: one per CPU)."""
    jobs = jobs or os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(run_scenario, *zip(*tasks)))
    return [run_scenario(cfg, outdir) for cfg, outdir in tasks]


def run_figure(fig_id: str, outdir, n_b: int = 2, jobs: int | None = 1,
               fixed_step: bool = False, bloch_grid: tuple[int, int] = (16, 16)) -> dict:
    """Emit the CSV data behind one published figure."""
    os.makedirs(outdir, exist_ok=True)
    if fig_id == "fig2":
        return _run_fig2(outdir)
    cfgs = figure_config(fig_id, n_b=n_b, bloch_grid=bloch_grid,
                         integrator="rk4" if fixed_step else "expm")
    if isinstance(cfgs, ScenarioConfig):
        return run_scenario(cfgs, outdir)
    summaries = _run_all([(c, os.path.join(outdir, c.label)) for c in cfgs], jobs)
    combined = {
        "figure": fig_id,
        "runs": {s["label"]: {"peak_fidelity": s["peak_fidelity"],
                              "peak_time_us": s["peak_time_us"],
                              "outdir": s["label"]} for s in summaries},
    }
    write_json(os.path.join(outdir, "summary.json"), combined)
    return combined


def _run_fig2(outdir) -> dict:
    """Fidelity bars of the closed-form gate at Omega t = pi/2."""
    rows = []
    for lbl in ("00", "01", "10", "11"):
        v = fidelity.named_state(lbl)
        rows.append((lbl, fidelity.gate_fidelity_closed(*v, np.pi / 2)))
    with atomic_write(os.path.join(outdir, "trajectory.csv")) as fh:
        fh.write("state,fidelity\n")
        for lbl, val in rows:
            fh.write(f"{lbl},{format(val, '.17g')}\n")
    summary = {"label": "fig2", "mode": "analytic",
               "fidelities": {lbl: val for lbl, val in rows},
               "peak_fidelity": max(v for _, v in rows)}
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# sweeps


def run_sweep(cfg: ScenarioConfig, param: str, values, outdir, jobs: int | None = 1) -> dict:
    """One scenario per value of a dotted config key (e.g. params.g_G_hz).
    Every value is validated, and the run directories (named by the value in
    %g format) checked to be distinct, before any run starts."""
    where, _, key = param.rpartition(".")
    tasks = []
    for v in values:
        doc = cfg.to_mapping()
        node = doc.setdefault(where, {}) if where else doc
        if not isinstance(node, dict):
            raise ValueError(f"{param!r} is not a config key")
        node[key] = v
        doc["label"] = f"{cfg.label}_{param}={v:g}"
        tasks.append((ScenarioConfig.from_mapping(doc),
                      os.path.join(outdir, f"{param.replace('.', '_')}={v:g}")))
    names = [sub for _, sub in tasks]
    if len(set(names)) < len(names):
        raise ValueError(f"sweep values {list(values)} give run directories that collide: "
                         f"{sorted({os.path.basename(n) for n in names if names.count(n) > 1})}")
    os.makedirs(outdir, exist_ok=True)
    summaries = _run_all(tasks, jobs)
    manifest = {
        "param": param,
        "values": [float(v) for v in values],
        "runs": [{"value": float(v), "outdir": os.path.relpath(sub, outdir),
                  "peak_fidelity": s["peak_fidelity"], "peak_time_us": s["peak_time_us"]}
                 for (_, sub), s, v in zip(tasks, summaries, values)],
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


def write_json(path, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")
