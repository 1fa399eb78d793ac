"""Scenario configuration, orchestration and tabular emission.

A scenario is a single JSON document: physical parameters (Hz values under
`*_hz` keys), truncations, an initial-state family, a time grid, and the
run mode ("analytic" closed-form curves or "master" open-system evolution).
Every run validates its configuration first, computes, then writes
`trajectory.csv` and `summary.json` atomically into the output directory.

The `figure` presets reproduce the published curves; they override three
defaults to the conventions that were found to match the published peak
values and times (bare cavity quadrature, n_cav = 2, amplitude-convention
fidelity). See the README for the sensitivity discussion.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh

from . import dynamics, fidelity
from .dynamics import CollapseSet, EvolveOptions, Trajectory
from .duffing import duffing_hamiltonian
from .files import atomic_write
from .fockspace import SpaceDescriptor
from .gates import ideal_cnot
from .hamiltonians import PhysicalParams, system_hamiltonian

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


@dataclass(frozen=True)
class ScenarioConfig:
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
    seed: int = 0
    quadrature_convention: str = "symmetric"
    fidelity_convention: str = "squared"
    integrator: str = "expm"
    X_G_sq: float | None = None
    Omega: float | None = None
    label: str = "scenario"

    def __post_init__(self):
        if self.t_max_us <= 0:
            raise ValueError("t_max_us must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.n_cav < 2 or self.n_b < 2:
            raise ValueError("truncations must be at least 2")
        if not 0 <= self.cavity_fock < self.n_cav:
            raise ValueError("cavity Fock index outside the cavity truncation")
        if self.mode not in ("analytic", "master"):
            raise ValueError(f"mode must be 'analytic' or 'master', got {self.mode!r}")
        if self.quadrature_convention not in ("symmetric", "bare"):
            raise ValueError("quadrature_convention must be 'symmetric' or 'bare'")
        if self.fidelity_convention not in ("squared", "amplitude"):
            raise ValueError("fidelity_convention must be 'squared' or 'amplitude'")
        if self.integrator not in ("expm", "rk4"):
            raise ValueError("integrator must be expm or rk4")

    @classmethod
    def from_mapping(cls, doc: dict) -> "ScenarioConfig":
        doc = dict(doc)
        params = PhysicalParams.from_config(doc.pop("params", {}))
        dims = doc.pop("dims", {})
        init_doc = dict(doc.pop("initial", {"kind": "fixed-list", "labels": ["00"]}))
        kind = init_doc.pop("kind", "fixed-list")
        cavity_fock = init_doc.pop("cavity_fock", doc.pop("cavity_fock", 1))
        if kind in ("fixed-list", "named-superposition"):
            initial = fidelity.InitialStateFamily.from_labels(init_doc.pop("labels"), kind)
        elif kind in ("schmidt-entangled", "separable-product"):
            initial = fidelity.InitialStateFamily(
                kind,
                family=init_doc.pop("family", None),
                grid=tuple(init_doc.pop("grid", (16, 16))),
            )
        else:
            raise ValueError(f"unknown initial-state kind {kind!r}")
        if init_doc:
            raise ValueError(f"unknown initial-state keys {sorted(init_doc)}")
        kw = {}
        for name in ("t_max_us", "n_steps", "mode", "average_over", "outputs", "seed",
                     "quadrature_convention", "fidelity_convention", "integrator",
                     "X_G_sq", "Omega", "label"):
            if name in doc:
                value = doc.pop(name)
                if name in ("average_over", "outputs"):
                    value = tuple(value)
                kw[name] = value
        if doc:
            raise ValueError(f"unknown scenario keys {sorted(doc)}")
        return cls(
            params=params,
            initial=initial,
            n_cav=int(dims.get("n_cav", 3)),
            n_b=int(dims.get("n_b", 2)),
            cavity_fock=int(cavity_fock),
            **kw,
        )

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_mapping(json.load(fh))

    def to_mapping(self) -> dict:
        """JSON-safe echo of the configuration (angular frequencies back to Hz)."""
        from .hamiltonians import _HZ_KEYS, _PLAIN_KEYS

        params = {}
        for field_name, key in _HZ_KEYS.items():
            v = getattr(self.params, field_name)
            if v is not None:
                params[key] = v / (2 * np.pi)
        for field_name, key in _PLAIN_KEYS.items():
            v = getattr(self.params, field_name)
            if v is not None:
                params[key] = v
        init: dict = {"kind": self.initial.kind, "cavity_fock": self.cavity_fock}
        if self.initial.members:
            init["labels"] = [lbl for lbl, _ in self.initial.members]
        if self.initial.family:
            init["family"] = self.initial.family
            init["grid"] = list(self.initial.grid)
        doc = {
            "params": params,
            "dims": {"n_cav": self.n_cav, "n_b": self.n_b},
            "initial": init,
            "t_max_us": self.t_max_us,
            "n_steps": self.n_steps,
            "mode": self.mode,
            "outputs": list(self.outputs),
            "seed": self.seed,
            "quadrature_convention": self.quadrature_convention,
            "fidelity_convention": self.fidelity_convention,
            "integrator": self.integrator,
            "label": self.label,
        }
        if self.average_over is not None:
            doc["average_over"] = list(self.average_over)
        if self.X_G_sq is not None:
            doc["X_G_sq"] = self.X_G_sq
        if self.Omega is not None:
            doc["Omega"] = self.Omega
        return doc


def resolved_params(cfg: ScenarioConfig) -> PhysicalParams:
    """Fill gamma_m from Q and n_th from T where absent."""
    p = cfg.params
    if p.gamma_m is None:
        if p.Q and p.omega_G:
            p = p.with_values(gamma_m=dynamics.mech_damping(p.omega_G, p.Q))
        else:
            p = p.with_values(gamma_m=0.0)
    if p.n_th is None:
        if p.T is not None and p.omega_G:
            p = p.with_values(n_th=dynamics.thermal_occupation(p.omega_G, p.T))
        else:
            p = p.with_values(n_th=0.0)
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
    for n_b = 2, where the quartic term is inert)."""
    if n_b == 2:
        return np.eye(2, dtype=complex)
    h = duffing_hamiltonian(omega_G, lam, n_b).data
    _, vecs = eigh(h)
    for n in range(n_b):
        if vecs[n, n].real < 0:
            vecs[:, n] = -vecs[:, n]
    return vecs[:, :2].astype(complex)


def master_fidelity_series(
    cfg: ScenarioConfig, states: list[tuple[str, np.ndarray]]
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray], dict]:
    """Evolve every initial two-qubit ket under the full system Lindbladian and
    return per-state squared-overlap fidelity series against the CNOT targets.

    All states share one propagator and are advanced as one batch through
    `dynamics.propagate`, which gates the trace drift. Returns (times,
    {label: F_sq series}, {label: leakage series}, stats); stats carries the
    integrator's health figures and the max leakage out of the qubit subspace.
    """
    p = resolved_params(cfg)
    space = SpaceDescriptor((cfg.n_cav, cfg.n_b, cfg.n_b))
    H = system_hamiltonian(p, space, cfg.quadrature_convention)
    collapse = CollapseSet.standard_channels(space, p.kappa, p.gamma_m, p.n_th)
    t_max = cfg.t_max_us * 1e-6
    times = np.linspace(0.0, t_max, cfg.n_steps)
    nbb = cfg.n_b * cfg.n_b

    # per-beam isometry onto the qubit levels (Fock states for n_b = 2)
    iso = _qubit_isometry(cfg.n_b, p.omega_G, p.lam)
    kk = np.kron(iso, iso)  # (n_b^2) x 4
    kk_conj = kk.conj()

    cav = np.zeros(cfg.n_cav, dtype=complex)
    cav[cfg.cavity_fock] = 1.0
    vecs = []
    targets = []
    for _, v4 in states:
        psi = np.kron(cav, kk @ v4)
        vecs.append(np.outer(psi, psi.conj()).reshape(-1))
        targets.append(_CNOT @ v4)
    batch = np.stack(vecs, axis=1)  # (d*d, n_states)
    targets = np.stack(targets, axis=0)  # (n_states, 4)
    targets_conj = targets.conj()

    n_s = len(states)
    f_sq = np.empty((n_s, len(times)))
    leak = np.empty((n_s, len(times)))

    def observe(i, rho):
        rho_beams = np.einsum("niaib->nab", rho.reshape(n_s, cfg.n_cav, nbb, cfg.n_cav, nbb))
        rho_q = np.einsum("ia,nij,jb->nab", kk_conj, rho_beams, kk)
        weight = np.einsum("naa->n", rho_q).real
        leak[:, i] = 1.0 - weight
        rho_q = rho_q / weight[:, None, None]
        f_sq[:, i] = np.clip(np.einsum("na,nab,nb->n", targets_conj, rho_q, targets).real, 0.0, None)

    stats = dynamics.propagate(H, collapse, batch, times, EvolveOptions(method=cfg.integrator),
                               observe)
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
        raise ValueError("analytic mode needs Delta, g_G and omega_G (or an explicit Omega)")
    return float(p.Delta * xg_sq * p.g_G**2 / (p.Delta**2 - p.omega_G**2))


def run_scenario(cfg: ScenarioConfig, outdir) -> dict:
    """Execute one scenario; writes trajectory.csv and summary.json, returns
    the summary mapping."""
    os.makedirs(outdir, exist_ok=True)
    started = time.perf_counter()
    if cfg.mode == "analytic":
        times, columns, stats, convention = _run_analytic(cfg)
    else:
        times, columns, stats, convention = _run_master(cfg)

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
        "fidelity_convention": convention,
        "peak_fidelity": peak_value,
        "peak_time_s": peak_time,
        "peak_time_us": peak_time * 1e6,
        "peak_after_initial": {"value": peak_late_value, "t_us": peak_late_time * 1e6},
        "local_maxima": maxima,
        "leakage_max": stats.get("max_leakage", 0.0),
        "runtime_s": time.perf_counter() - started,
        "integrator": stats,
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
    members = list(cfg.initial.members) or [("00", fidelity.named_state("00"))]
    columns = _fidelity_columns(cfg, {
        lbl: np.asarray(fidelity.gate_fidelity_closed(*v4, omega * times)) for lbl, v4 in members})
    if "avg_entangled" in cfg.outputs:
        columns["F_avg_entangled"] = np.asarray(fidelity.avg_fidelity_entangled(omega * times))
    if "avg_separable" in cfg.outputs:
        columns["F_avg_separable"] = np.asarray(fidelity.avg_fidelity_separable(omega * times))
    stats = {"Omega_rad_s": omega, "integrator": "closed-form"}
    return times, columns, stats, "squared"


def _run_master(cfg: ScenarioConfig):
    emit_leakage = "leakage" in cfg.outputs or cfg.n_b > 2
    amplitude = cfg.fidelity_convention == "amplitude"
    if cfg.initial.kind in ("fixed-list", "named-superposition"):
        times, series, leaks, stats = master_fidelity_series(cfg, list(cfg.initial.members))
        columns = _fidelity_columns(
            cfg, {lbl: np.sqrt(s) if amplitude else s for lbl, s in series.items()})
        if emit_leakage:
            for lbl in series:
                columns[f"leakage_{lbl}"] = leaks[lbl]
        return times, columns, stats, cfg.fidelity_convention
    # Bloch-sphere families: weighted average over the sampled sphere
    family = cfg.initial
    kets, weights = fidelity.bloch_grid(family)
    states = [(f"s{i}", v) for i, v in enumerate(kets)]
    times, series, leaks, stats = master_fidelity_series(cfg, states)
    stacked = np.stack([series[lbl] for lbl, _ in states])
    if amplitude:
        stacked = np.sqrt(stacked)
    avg = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
    name = family.family or "schmidt"
    columns = {f"F_avg_{name}": avg}
    if emit_leakage:
        leak_stack = np.stack([leaks[lbl] for lbl, _ in states])
        columns[f"leakage_avg_{name}"] = (weights[:, None] * leak_stack).sum(axis=0) / weights.sum()
    return times, columns, stats, cfg.fidelity_convention


# ---------------------------------------------------------------------------
# figure presets


def _published_figure_config(**kw) -> ScenarioConfig:
    """Published-figure defaults: paper_v1 parameters with the conventions
    that reproduce the published peaks (bare X_c, n_cav = 2, amplitude
    fidelity)."""
    base = dict(
        params=PhysicalParams.from_config(PAPER_V1),
        t_max_us=10.0,
        n_steps=20001,
        mode="master",
        n_cav=2,
        n_b=2,
        cavity_fock=1,
        quadrature_convention="bare",
        fidelity_convention="amplitude",
        integrator="expm",
    )
    base.update(kw)
    return ScenarioConfig(**base)


def figure_config(fig_id: str, n_b: int = 2, bloch_grid: tuple[int, int] = (16, 16)) -> ScenarioConfig | list[ScenarioConfig]:
    """Scenario(s) behind one published figure."""
    F = fidelity.InitialStateFamily
    if fig_id == "fig3":
        return _published_figure_config(
            initial=F.from_labels(["00", "01", "10", "11"]),
            average_over=("00", "01", "11"),
            n_b=n_b, label="fig3",
        )
    if fig_id == "fig4":
        return _published_figure_config(
            initial=F.from_labels(["psi1", "psi2", "psi3", "psi4"], "named-superposition"),
            average_over=None, n_b=n_b, label="fig4",
        )
    if fig_id == "fig5":
        return _published_figure_config(
            initial=F.from_labels(["psi1", "psi2", "psi3", "psi4"], "named-superposition"),
            average_over=("psi1", "psi2", "psi3", "psi4"), n_b=n_b, label="fig5",
        )
    if fig_id == "fig6":
        return _published_figure_config(
            initial=F.from_labels(["varphi1", "varphi2", "varphi3", "varphi4"], "named-superposition"),
            average_over=None, n_b=n_b, label="fig6",
        )
    if fig_id == "fig7":
        return _published_figure_config(
            initial=F.from_labels(["varphi1", "varphi2", "varphi3", "varphi4"], "named-superposition"),
            average_over=("varphi1", "varphi2", "varphi3", "varphi4"), n_b=n_b, label="fig7",
        )
    if fig_id == "fig8":
        return _published_figure_config(
            initial=F.from_labels(["four_equal"], "named-superposition"),
            n_b=n_b, label="fig8",
        )
    if fig_id == "fig9":
        return [
            _published_figure_config(
                initial=F("schmidt-entangled", family=f"Phi{k}", grid=bloch_grid),
                n_b=n_b, label=f"fig9_Phi{k}",
            )
            for k in (1, 2, 3, 4)
        ]
    if fig_id == "fig10":
        return _published_figure_config(
            initial=F("schmidt-entangled", family="Psi", grid=bloch_grid),
            n_b=n_b, label="fig10",
        )
    raise ValueError(f"unknown figure id {fig_id!r}")


def run_figure(fig_id: str, outdir, n_b: int = 2, jobs: int = 1,
               fixed_step: bool = False, bloch_grid: tuple[int, int] = (16, 16)) -> dict:
    """Emit the CSV data behind one published figure."""
    os.makedirs(outdir, exist_ok=True)
    if fig_id == "fig2":
        return _run_fig2(outdir)
    cfgs = figure_config(fig_id, n_b=n_b, bloch_grid=bloch_grid)
    if fixed_step:
        if isinstance(cfgs, list):
            cfgs = [replace(c, integrator="rk4") for c in cfgs]
        else:
            cfgs = replace(cfgs, integrator="rk4")
    if isinstance(cfgs, ScenarioConfig):
        return run_scenario(cfgs, outdir)
    if jobs > 1 and len(cfgs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_job, c.to_mapping(), os.path.join(outdir, c.label))
                       for c in cfgs]
            summaries = [f.result() for f in futures]
    else:
        summaries = [run_scenario(c, os.path.join(outdir, c.label)) for c in cfgs]
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


def _run_job(cfg_mapping: dict, outdir: str) -> dict:
    return run_scenario(ScenarioConfig.from_mapping(cfg_mapping), outdir)


def _set_swept(doc: dict, param: str, value: float) -> dict:
    doc = json.loads(json.dumps(doc))
    node = doc
    parts = param.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    return doc


def run_sweep(cfg: ScenarioConfig, param: str, values, outdir, jobs: int = 1) -> dict:
    """One scenario per value of a dotted config key (e.g. params.g_G_hz)."""
    os.makedirs(outdir, exist_ok=True)
    base = cfg.to_mapping()
    tasks = []
    for v in values:
        doc = _set_swept(base, param, v)
        doc["label"] = f"{cfg.label}_{param}={v:g}"
        ScenarioConfig.from_mapping(doc)  # validate before launching anything
        tasks.append((doc, os.path.join(outdir, f"{param.replace('.', '_')}={v:g}")))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_job, doc, sub) for doc, sub in tasks]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_run_job(doc, sub) for doc, sub in tasks]
    manifest = {
        "param": param,
        "values": [float(v) for v in values],
        "runs": [{"value": float(v), "outdir": os.path.relpath(sub, outdir),
                  "peak_fidelity": s["peak_fidelity"], "peak_time_us": s["peak_time_us"]}
                 for (doc, sub), s, v in zip(tasks, summaries, values)],
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


def write_json(path, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")
