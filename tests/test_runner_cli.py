import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from phonongate import cli, dynamics, hamiltonians, runner
from phonongate.duffing import duffing_hamiltonian
from phonongate.dynamics import standard_channels
from phonongate.fidelity import (
    NAMED_STATES,
    InitialStateFamily,
    bloch_family,
    named_state,
    separable_state,
)
from phonongate.gates import ideal_cnot
from phonongate.hamiltonians import PhysicalParams
from phonongate.runner import (
    PAPER_V1,
    PAPER_VA,
    ScenarioConfig,
    envelope_maxima,
    figure_config,
    refine_peak,
    run_scenario,
    run_sweep,
)

from oracles import evolve_master, partial_trace, per_ket_fidelity_series


def small_master_mapping(**overrides):
    doc = {
        "params": dict(PAPER_V1),
        "dims": {"n_cav": 2, "n_b": 2},
        "initial": {"kind": "fixed-list", "labels": ["00", "01", "11"], "cavity_fock": 1},
        "t_max_us": 1.0,
        "n_steps": 2001,
        "mode": "master",
        "quadrature_convention": "bare",
        "fidelity_convention": "amplitude",
        "label": "small",
    }
    doc.update(overrides)
    return doc


def test_package_imports_no_scipy():
    # NumPy is the package's one numerical library; SciPy serves the tests only.
    # Every command runs in one process, so no worker-pool module is imported
    code = ("import pkgutil, sys, phonongate, phonongate.cli\n"
            "for m in pkgutil.iter_modules(phonongate.__path__):\n"
            "    __import__('phonongate.' + m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] in\n"
            "             ('scipy', 'multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_roundtrip():
    cfg = ScenarioConfig.from_mapping(small_master_mapping())
    again = ScenarioConfig.from_mapping(cfg.to_mapping())
    assert again.params.Delta == pytest.approx(cfg.params.Delta)
    assert again.n_steps == cfg.n_steps
    assert again.initial.labels == ("00", "01", "11")
    assert again == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping(small_master_mapping(mode="magic"))
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping(small_master_mapping(dims={"n_cav": 1, "n_b": 2}))
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping(small_master_mapping(n_steps=1))
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping(small_master_mapping(unknown_key=1))
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping(small_master_mapping(initial={"kind": "bell"}))
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping(small_master_mapping(integrator="rk45"))

    # configs that used to validate and then crash at run time or be misread:
    # each fails both as a document and when built in code
    base = ScenarioConfig.from_mapping(small_master_mapping())
    F = InitialStateFamily
    two = {"kind": "fixed-list", "labels": ["00", "01"]}
    bloch = {"kind": "schmidt-entangled", "family": "Psi"}
    analytic = {"mode": "analytic", "fidelity_convention": "squared"}
    rows = [
        ({"dims": {"n_cav": 2, "n_b": 3}}, lambda: replace(base, n_b=3)),
        ({"initial": {"kind": "schmidt-entangled", "family": "Phi9"}},
         lambda: F("schmidt-entangled", family="Phi9")),
        ({"initial": two, "average_over": ["00", "11"]},
         lambda: replace(base, initial=F("fixed-list", ("00", "01")), average_over=("00", "11"))),
        ({"n_steps": 11.5}, lambda: replace(base, n_steps=11.5)),
        ({"outputs": ["leakge"]}, lambda: replace(base, outputs=("leakge",))),
        ({**analytic, "initial": bloch},
         lambda: replace(base, mode="analytic", fidelity_convention="squared",
                         initial=F("schmidt-entangled", family="Psi"))),
        ({"mode": "analytic", "fidelity_convention": "amplitude"},
         lambda: replace(base, mode="analytic")),
        ({"initial": {"kind": "separable-product", "family": "Psi"}},
         lambda: F("separable-product", family="Psi")),
        ({"initial": bloch, "average_over": ["00"]},
         lambda: replace(base, initial=F("schmidt-entangled", family="Psi"),
                         average_over=("00",))),
        ({"cavity_fock": 0}, None),
    ]
    for overrides, build in rows:
        with pytest.raises(ValueError):
            ScenarioConfig.from_mapping(small_master_mapping(**overrides))
        if build is not None:
            with pytest.raises(ValueError):
                build()
    # JSON numbers and sweep values arrive as floats: integral ones are ints
    assert replace(base, n_steps=11.0).n_steps == 11
    assert type(ScenarioConfig.from_mapping(small_master_mapping(n_steps=11.0)).n_steps) is int


_NAMES = ["00", "01", "10", "11", "psi1", "psi2", "varphi3", "four_equal"]
_RATE = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@st.composite
def scenario_mappings(draw):
    """Valid scenario documents of every initial-state kind and both modes."""
    mode = draw(st.sampled_from(["master", "analytic"]))
    n_cav = draw(st.integers(2, 5))
    params = draw(st.fixed_dictionaries(
        {"omega_G_hz": st.floats(min_value=1.0, max_value=1e9)},
        optional={"Delta_hz": st.floats(min_value=-1e9, max_value=1e9), "g_G_hz": _RATE,
                  "G_tilde_hz": _RATE, "lambda_hz": _RATE, "kappa_hz": _RATE,
                  "eps_L_hz": st.floats(-1e9, 1e9), "T": _RATE,
                  "Q": st.floats(min_value=0.0, max_value=1e9, exclude_min=True)}))
    kinds = ["fixed-list", "named-superposition"]
    kind = draw(st.sampled_from(kinds if mode == "analytic" else
                                kinds + ["schmidt-entangled", "separable-product"]))
    doc = {
        "params": params,
        "dims": {"n_cav": n_cav, "n_b": draw(st.sampled_from([2, 4, 5]))},
        "t_max_us": draw(st.floats(min_value=1e-6, max_value=1e6)),
        "n_steps": draw(st.integers(2, 10**6).flatmap(lambda n: st.sampled_from([n, float(n)]))),
        "mode": mode,
        "outputs": draw(st.lists(st.sampled_from(
            ["fidelity", "leakage"] if mode == "master" else
            ["fidelity", "avg_entangled", "avg_separable"]), unique=True)),
        "quadrature_convention": draw(st.sampled_from(["symmetric", "bare"])),
        "fidelity_convention": "squared" if mode == "analytic" else
        draw(st.sampled_from(["squared", "amplitude"])),
        "integrator": draw(st.sampled_from(["expm", "rk4"])),
        "label": draw(st.text(max_size=8)),
    }
    if kind in kinds:
        labels = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
        doc["initial"] = {"kind": kind, "labels": labels}
        if draw(st.booleans()):
            doc["average_over"] = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    else:
        doc["initial"] = {"kind": kind, "grid": draw(st.lists(st.integers(8, 64), min_size=2,
                                                              max_size=2))}
        if kind == "schmidt-entangled":
            doc["initial"]["family"] = draw(st.sampled_from(
                ["schmidt", "Phi1", "Phi2", "Phi3", "Phi4", "Psi"]))
    doc["initial"]["cavity_fock"] = draw(st.integers(0, n_cav - 1))
    if mode == "analytic":
        doc["Omega"] = draw(st.floats(min_value=-1e6, max_value=1e6))
        if draw(st.booleans()):
            doc["X_G_sq"] = draw(st.floats(min_value=0.0, max_value=1.0))
    return doc


def master_held(n_cav, n_b, k, n_steps) -> dict[str, int]:
    """What a master run of k kets holds besides its series: `dynamics.held_bytes`
    of the n = min(k, 16) columns and n + 1 rows that span its kets' projectors
    and targets, with each ket's (2, chunk) reduce buffer, and each ket's 2 n
    (n + 1) float contraction coefficients."""
    n = min(k, 16)
    held = dynamics.held_bytes((n_cav, n_b, n_b), n, n + 1, n_steps, reduced=2 * k)
    held["kets"] = k * 8 * 2 * n * (n + 1)
    return held


def held_bytes(doc) -> int:
    """The float64 series, k x 2 x n_steps for a label list and 2 x n_steps for
    a Bloch family, plus what `master_held` or `runner.analytic_held_bytes`
    counts, with k counted from the document by hand."""
    initial = doc["initial"]
    if "labels" in initial:
        k = series = len(initial["labels"])
    else:
        n_theta, n_phi = initial["grid"]
        k = ((n_theta - 2) * n_phi) ** (2 if initial["kind"] == "separable-product" else 1)
        series = 1
    n_steps = int(doc["n_steps"])
    held = (master_held(doc["dims"]["n_cav"], doc["dims"]["n_b"], k, n_steps)
            if doc["mode"] == "master" else runner.analytic_held_bytes(k, n_steps))
    return series * 2 * n_steps * 8 + sum(held.values())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenario_mappings())
def test_config_roundtrip_property(doc):
    # a document whose run cannot be held is refused; every other round-trips
    if held_bytes(doc) > runner.MAX_SERIES_BYTES:
        with pytest.raises(ValueError, match="bytes, over the"):
            ScenarioConfig.from_mapping(doc)
        return
    cfg = ScenarioConfig.from_mapping(doc)
    assert ScenarioConfig.from_mapping(cfg.to_mapping()) == cfg
    # the echo in summary.json reads back as the same config
    assert ScenarioConfig.from_mapping(json.loads(json.dumps(cfg.to_mapping()))) == cfg


def test_refine_peak_parabola():
    t = np.linspace(0.0, 1.0, 101)
    true_t, true_v = 0.344, 0.9
    series = true_v - 30.0 * (t - true_t) ** 2
    value, t_peak = refine_peak(t, series)
    assert value == pytest.approx(true_v, abs=1e-9)
    assert t_peak == pytest.approx(true_t, abs=1e-6)


def test_envelope_maxima_on_beat_pattern():
    t = np.linspace(0.0, 10e-6, 20001)
    series = np.abs(np.cos(2 * np.pi * 0.4e6 * t)) * (1 + 0.01 * np.sin(2 * np.pi * 30e6 * t))
    maxima = envelope_maxima(t, series, window_us=0.3)
    times = sorted(m["t_us"] for m in maxima)
    # lobes of |cos| repeat every 1.25 us
    assert any(abs(tt - 2.5) < 0.15 for tt in times)
    assert any(abs(tt - 5.0) < 0.15 for tt in times)


def test_analytic_run_peak_at_quarter_period(tmp_path):
    omega = 30.0463
    cfg = ScenarioConfig(
        params=PhysicalParams(),
        initial=InitialStateFamily("fixed-list", ("00", "01", "10", "11")),
        mode="analytic",
        t_max_us=120e3,
        n_steps=4001,
        Omega=omega,
        outputs=("fidelity", "avg_entangled", "avg_separable"),
        label="analytic-test",
    )
    summary = run_scenario(cfg, tmp_path)
    assert summary["peak_fidelity"] == pytest.approx(1.0, abs=1e-6)
    assert summary["peak_time_s"] == pytest.approx(np.pi / (2 * omega), rel=1e-3)
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t_s,F_00,F_01,F_10,F_11,F_avg,F_avg_entangled,F_avg_separable"


def test_analytic_omega_from_params(tmp_path):
    cfg = ScenarioConfig(
        params=PhysicalParams.from_config(runner.PAPER_VA),
        initial=InitialStateFamily("fixed-list", ("00",)),
        mode="analytic",
        t_max_us=120e3,
        n_steps=101,
        X_G_sq=0.25,
        label="va",
    )
    summary = run_scenario(cfg, tmp_path)
    assert summary["integrator"]["Omega_rad_s"] == pytest.approx(30.0463, rel=1e-3)


def test_qubit_isometry_is_exactly_parity_pure():
    omega, lam = 2 * np.pi * 28.6e6, 2 * np.pi * 209e3
    for n_b in (4, 5, 6):
        iso = runner._qubit_isometry(n_b, omega, lam)
        assert not np.any(iso[1::2, 0]) and not np.any(iso[0::2, 1])
        _, vecs = eigh(duffing_hamiltonian(omega, lam, n_b))
        for n in range(2):
            sign = np.sign(vecs[n, n].real)
            assert np.max(np.abs(iso[:, n] - sign * vecs[:, n])) <= 1e-12


@pytest.mark.parametrize("drop, given, rates", [
    ((), {}, lambda p: (p.omega_G / p.Q, dynamics.thermal_occupation(p.omega_G, p.T))),
    ((), {"gamma_m_hz": 5.72, "n_th": 0.25}, lambda p: (p.gamma_m, 0.25)),
    (("Q",), {"gamma_m_hz": 10.0}, lambda p: (p.gamma_m, dynamics.thermal_occupation(p.omega_G, p.T))),
    (("Q", "T"), {}, lambda p: (0.0, 0.0)),
], ids=["filled", "given", "given-without-Q", "neither-Q-nor-T"])
def test_open_system_fills_gamma_m_and_n_th(drop, given, rates):
    # where the params leave them out, gamma_m is omega_G / Q and n_th the
    # thermal occupation at T, each 0 without Q or T; a given value is kept
    params = {**{k: v for k, v in PAPER_V1.items() if k not in drop}, **given}
    cfg = ScenarioConfig.from_mapping(small_master_mapping(params=params))
    _, collapse, dims, _ = runner.open_system(cfg)
    gamma_m, n_th = rates(cfg.params)
    expected = standard_channels(dims, cfg.params.kappa, gamma_m, n_th)
    assert len(collapse) == len(expected) == (1 if gamma_m == 0 else 5)
    assert all(np.array_equal(c, e) for c, e in zip(collapse, expected))


def test_master_run_writes_outputs(tmp_path):
    cfg = ScenarioConfig.from_mapping(small_master_mapping())
    summary = run_scenario(cfg, tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.json").exists()
    reloaded = json.loads((tmp_path / "summary.json").read_text())
    assert reloaded["peak_fidelity"] == pytest.approx(summary["peak_fidelity"])
    assert reloaded["main_column"] == "F_avg"
    assert 0.0 <= reloaded["peak_fidelity"] <= 1.0 + 1e-9
    health = reloaded["integrator"]
    assert health["max_trace_drift"] <= 1e-6
    assert "retries" not in health
    assert health["final_herm_drift"] <= 1e-10
    assert health["final_min_eigenvalue"] >= -1e-10
    # basis kets keep rho in the parity-diagonal block: 32 of the 64 entries
    assert (health["n_blocks"], health["support"]) == (1, 32)
    # and the beam swap splits that block into an even and an odd real sector
    assert health["sectors"] == [20, 12]
    assert health["eig_residual"] <= 1e-10 and health["cancellation_bound"] <= 1e-10
    assert health["sector_imag"] <= 1e-10
    assert 0.0 < health["max_phase_per_output"] < np.pi
    assert health["min_qubit_weight"] == pytest.approx(1.0 - reloaded["leakage_max"], abs=1e-15)
    assert reloaded["warnings"] == []
    # stage timings vary from run to run: only their names are fixed
    assert set(reloaded["timings_s"]) == {"generators_s", "eig_solve_s", "series_s", "csv_s"}


@pytest.mark.parametrize("mode", ["master", "analytic"])
def test_runtime_includes_every_stage_timing(tmp_path, mode):
    # runtime_s is taken after the CSV is written, so it covers csv_s too; at
    # 20001 outputs the CSV is most of an analytic run
    doc = small_master_mapping(n_steps=20001)
    if mode == "analytic":
        doc.update(mode="analytic", fidelity_convention="squared", Omega=30.0463)
    summary = run_scenario(ScenarioConfig.from_mapping(doc), tmp_path)
    assert summary["timings_s"]["csv_s"] > 0.0
    assert summary["runtime_s"] >= sum(summary["timings_s"].values())
    # the key keeps its place in summary.json
    keys = list(json.loads((tmp_path / "summary.json").read_text()))
    assert keys.index("runtime_s") == keys.index("leakage_max") + 1


def test_readme_lists_every_integrator_key(tmp_path):
    # the key table below 'summary.json["integrator"]' in the README, first column
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split('(`summary.json["integrator"]`)', 1)[1].split("\n\n", 2)[1]
    listed = {key for line in table.splitlines()[2:]
              for key in re.findall(r"`([^`]+)`", line.split("|")[1])}
    emitted = set()
    for integrator in ("expm", "rk4"):
        cfg = ScenarioConfig.from_mapping(small_master_mapping(
            n_steps=101, t_max_us=0.1, integrator=integrator))
        emitted |= set(run_scenario(cfg, tmp_path / integrator)["integrator"])
    assert listed == emitted


def test_readme_lists_every_params_key():
    # the params of the README's config example, and the keys the params.* row
    # of its key table adds before the ';'
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Scenario config (JSON)", 1)[1].split("```json\n", 1)[1]
    row = next(line for line in readme.splitlines() if line.startswith("| `params.*` |"))
    listed = (set(json.loads(example.split("```", 1)[0])["params"])
              | set(re.findall(r"`([^`]+)`", row.split("|")[2].split(";")[0])))
    assert listed == set(hamiltonians._KEYS.values())


def test_master_run_fidelity_convention_sqrt(tmp_path):
    sq = run_scenario(ScenarioConfig.from_mapping(
        small_master_mapping(fidelity_convention="squared", n_steps=501)), tmp_path / "a")
    amp = run_scenario(ScenarioConfig.from_mapping(
        small_master_mapping(fidelity_convention="amplitude", n_steps=501)), tmp_path / "b")
    f_sq = np.loadtxt(tmp_path / "a" / "trajectory.csv", delimiter=",", skiprows=1)[:, 1]
    f_amp = np.loadtxt(tmp_path / "b" / "trajectory.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.allclose(np.sqrt(f_sq), f_amp, atol=1e-12)


@pytest.mark.parametrize("integrator", ["expm", "rk4"])
def test_master_run_deterministic(tmp_path, integrator):
    cfg = ScenarioConfig.from_mapping(
        small_master_mapping(n_steps=301, integrator=integrator))
    run_scenario(cfg, tmp_path / "r1")
    run_scenario(cfg, tmp_path / "r2")
    b1 = (tmp_path / "r1" / "trajectory.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trajectory.csv").read_bytes()
    assert b1 == b2


def test_master_integrators_agree(tmp_path):
    base = small_master_mapping(n_steps=301, t_max_us=0.5)
    s_expm = run_scenario(ScenarioConfig.from_mapping({**base, "integrator": "expm"}), tmp_path / "e")
    s_rk4 = run_scenario(ScenarioConfig.from_mapping({**base, "integrator": "rk4"}), tmp_path / "r")
    f_e = np.loadtxt(tmp_path / "e" / "trajectory.csv", delimiter=",", skiprows=1)[:, -1]
    f_r = np.loadtxt(tmp_path / "r" / "trajectory.csv", delimiter=",", skiprows=1)[:, -1]
    assert np.max(np.abs(f_e - f_r)) <= 1e-7


def test_doubling_steps_moves_refined_peak_little(tmp_path):
    base = figure_config("fig3")
    s1 = run_scenario(base, tmp_path / "n1")
    from dataclasses import replace
    s2 = run_scenario(replace(base, n_steps=2 * (base.n_steps - 1) + 1), tmp_path / "n2")
    assert abs(s1["peak_fidelity"] - s2["peak_fidelity"]) < 1e-4


def test_nb4_mode_runs_and_reports_leakage(tmp_path):
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        dims={"n_cav": 2, "n_b": 4}, n_steps=201, t_max_us=0.2))
    summary = run_scenario(cfg, tmp_path)
    assert summary["leakage_max"] > 0.0
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert "leakage_00" in header


def test_coarse_grid_and_small_qubit_weight_are_recorded_as_warnings(tmp_path):
    # 50 ns per output at n_b = 4: the fastest mode turns by more than pi per
    # output, and the qubit levels hold little of the population; both are
    # recorded, and the run still completes
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        dims={"n_cav": 2, "n_b": 4}, n_steps=21, t_max_us=1.0))
    summary = run_scenario(cfg, tmp_path)
    assert summary["integrator"]["max_phase_per_output"] > np.pi
    assert summary["integrator"]["min_qubit_weight"] < 0.05
    assert [w.split()[0] for w in summary["warnings"]] == ["max_phase_per_output",
                                                          "min_qubit_weight"]
    assert json.loads((tmp_path / "summary.json").read_text())["warnings"] == summary["warnings"]


def test_bloch_master_run(tmp_path):
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        initial={"kind": "schmidt-entangled", "family": "Psi", "grid": [8, 8]},
        n_steps=201, t_max_us=0.2))
    summary = run_scenario(cfg, tmp_path)
    # 8 x 8 grid without its two zero-weight pole rows, read off the 4
    # projectors that span a (theta, phi) family's, and 4 targets' and P
    assert summary["integrator"]["n_kets"] == 6 * 8
    assert (summary["integrator"]["n_columns"], summary["integrator"]["n_rows"]) == (4, 5)
    # Psi superposes kets of both parities, so both blocks are eigendecomposed
    assert (summary["integrator"]["n_blocks"], summary["integrator"]["support"]) == (2, 64)
    head = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert head[0].startswith("t_s,F_avg_Psi")
    first = float(head[1].split(",")[1])
    # at t = 0 the Psi-family average fidelity is the Bloch average of
    # |<psi|CNOT|psi>| (amplitude convention), and every Psi ket is a CNOT
    # eigenvector (its |10> and |11> amplitudes are equal): 1 to rounding
    assert first == pytest.approx(1.0, rel=0.0, abs=1e-15)



def test_bloch_average_is_the_weighted_mean_of_per_ket_runs():
    # the smallest grid the families accept, over three chunks of outputs, the
    # last one short; each ket on its own, its squared fidelity taken to the
    # amplitude convention and summed in a plain loop
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        initial={"kind": "schmidt-entangled", "family": "Phi2", "grid": [8, 8]},
        n_steps=2 * dynamics._CHUNK + 33, t_max_us=0.2))
    _, columns, _ = runner._run_master(cfg)
    kets, weights = cfg.initial.kets()
    total = np.zeros(cfg.n_steps)
    for w, ket in zip(weights, kets):
        _, series, _, _ = runner.master_fidelity_series(
            replace(cfg, fidelity_convention="squared"), ket[None])
        total += w * np.sqrt(series[0])
    assert list(columns) == ["F_avg_Phi2"]
    assert np.max(np.abs(columns["F_avg_Phi2"] - total / weights.sum())) <= 1e-13


@pytest.mark.parametrize("initial, convention, integrator, n_b", [
    ({"kind": "fixed-list", "labels": ["00", "01", "10", "11"]}, "amplitude", "expm", 2),
    ({"kind": "fixed-list", "labels": ["00", "01", "10", "11"]}, "squared", "rk4", 2),
    ({"kind": "named-superposition", "labels": ["psi1", "psi2", "psi3", "psi4"]},
     "amplitude", "rk4", 2),
    ({"kind": "named-superposition", "labels": ["varphi1", "varphi2", "varphi3", "varphi4"]},
     "squared", "expm", 2),
    ({"kind": "named-superposition", "labels": ["four_equal"]}, "amplitude", "expm", 2),
    # the 13 named kets' projectors span 10 dimensions: 3 kets are read off the others
    ({"kind": "named-superposition", "labels": list(NAMED_STATES)}, "amplitude", "expm", 2),
    ({"kind": "schmidt-entangled", "family": "Psi", "grid": [8, 8]}, "amplitude", "expm", 2),
    ({"kind": "schmidt-entangled", "family": "Phi2", "grid": [8, 8]}, "squared", "rk4", 2),
    ({"kind": "separable-product", "grid": [8, 8]}, "amplitude", "expm", 2),
    ({"kind": "named-superposition", "labels": list(NAMED_STATES)}, "squared", "expm", 4),
], ids=["fig3", "fig3-rk4", "fig5-rk4", "fig7", "fig8", "named", "Psi", "Phi2-rk4",
        "separable", "named-nb4"])
def test_span_route_matches_the_per_ket_route(initial, convention, integrator, n_b):
    # every ket's fidelity and leakage read off one propagation of its
    # projectors' span, against each ket's own column and 2 rows, over three
    # chunks of outputs
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        initial=initial, dims={"n_cav": 2, "n_b": n_b}, fidelity_convention=convention,
        integrator=integrator, n_steps=2 * dynamics._CHUNK + 33, t_max_us=0.5))
    kets, weights = cfg.initial.kets()
    _, fid, leak, stats = runner.master_fidelity_series(cfg, kets, weights)
    _, ref_fid, ref_leak = per_ket_fidelity_series(cfg, kets, weights)
    assert np.max(np.abs(fid - ref_fid)) <= 1e-10
    assert np.max(np.abs(leak - ref_leak)) <= 1e-10
    assert stats["n_kets"] == len(kets)
    assert stats["n_columns"] <= min(len(kets), 16) and stats["n_rows"] <= stats["n_columns"] + 1


def test_fig3_span_route_is_bit_identical_to_the_per_ket_route():
    # fig3's kets and targets are basis kets: each is a column or a row of its
    # own, with exactly a unit vector of coefficients, so no sum rounds
    cfg = replace(figure_config("fig3"), n_steps=2001)
    kets, _ = cfg.initial.kets()
    _, fid, leak, stats = runner.master_fidelity_series(cfg, kets)
    _, ref_fid, ref_leak = per_ket_fidelity_series(cfg, kets)
    assert fid.tobytes() == ref_fid.tobytes() and leak.tobytes() == ref_leak.tobytes()
    assert (stats["n_kets"], stats["n_columns"], stats["n_rows"]) == (4, 4, 5)
    # |10> and |11> are orthogonal to their CNOT images: exactly 0 at t = 0,
    # where a rounding residue e would read sqrt(e) in the amplitude convention
    assert fid[2, 0] == fid[3, 0] == 0.0


@pytest.mark.parametrize("labels, rank", [(("psi1", "psi2", "psi3", "psi4"), 4),
                                          (tuple(NAMED_STATES), 10)])
def test_spanning_subset_gives_each_chosen_member_its_unit_vector(labels, rank):
    # fig5's projectors overlap, so a Gram solve alone gives a chosen member
    # 1 - 1e-16 of itself and 1e-17 of the others; the 13 named kets span 10
    # dimensions, so 3 of them are read off the others
    kets = InitialStateFamily("named-superposition", labels).kets()[0]
    ops = kets[:, :, None] * kets.conj()[:, None, :]
    chosen, coef = runner.spanning_subset(ops)
    assert len(chosen) == rank and coef.shape == (len(labels), rank)
    assert np.array_equal(coef[chosen], np.eye(rank))
    fit = np.einsum("kn,nij->kij", coef, ops[chosen])
    assert np.max(np.abs(fit - ops)) <= 1e-15


def test_a_bloch_family_propagates_one_span_at_any_grid():
    # the Psi family's 48 and 960 kets both propagate 4 columns against 4
    # targets and P: the same sectors of the same generators, eigendecomposed
    # alike, whatever k
    runs = {}
    for n in (8, 32):
        cfg = ScenarioConfig.from_mapping(small_master_mapping(
            initial={"kind": "schmidt-entangled", "family": "Psi", "grid": [n, n]},
            n_steps=101, t_max_us=0.2))
        kets, weights = cfg.initial.kets()
        runs[n] = runner.master_fidelity_series(cfg, kets, weights)[-1], kets
    (small, few), (large, many) = runs[8], runs[32]
    assert (small["n_kets"], large["n_kets"]) == (48, 960)
    for key in ("n_columns", "n_rows", "n_blocks", "support", "sectors"):
        assert small[key] == large[key]
    assert (small["n_columns"], small["n_rows"]) == (4, 5)
    assert small["eig_residual"] == large["eig_residual"]
    # the columns chosen on either grid span the other grid's projectors
    for kets, other in ((few, many), (many, few)):
        chosen, _ = runner.spanning_subset(kets[:, :, None] * kets.conj()[:, None, :])
        basis = (kets[chosen, :, None] * kets[chosen].conj()[:, None, :]).reshape(4, -1)
        x = (other[:, :, None] * other.conj()[:, None, :]).reshape(len(other), -1)
        fit = np.linalg.lstsq(basis.T, x.T, rcond=None)[0]
        assert np.max(np.abs(basis.T @ fit - x.T)) <= 1e-14


def test_bloch_run_holds_no_series_of_every_ket():
    # a Bloch family is reduced chunk by chunk to its two averaged columns, so
    # the run never holds the k x 2 x n_steps series of its kets; what it does
    # hold (amplitudes, the chunk buffers) is about 1.5 MB at any n_steps,
    # so the published 20001 outputs keep the bound clear of it
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        initial={"kind": "schmidt-entangled", "family": "Phi2", "grid": [8, 8]},
        n_steps=20001, t_max_us=1.0))
    k = cfg.initial.size
    tracemalloc.start()
    try:
        runner._run_master(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * 2 * cfg.n_steps * 8 / 2


def test_batched_rows_match_a_per_ket_density_route_at_nb4():
    # at n_b = 4 the qubit levels are the two lowest Duffing eigenstates, not
    # Fock states. Each ket of the batch against its own evolve_master run,
    # the cavity traced out and <u|rho_b|u> / tr(P rho_b) taken on the beams,
    # with the isometry from SciPy's eigh of the whole beam Hamiltonian
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        dims={"n_cav": 2, "n_b": 4}, n_steps=41, t_max_us=0.2, fidelity_convention="squared"))
    kets = np.array([named_state("01"), named_state("psi2"), bloch_family("Psi")(1.1, 0.7),
                     separable_state(0.4, 2.0, 2.5, 5.0)])
    times, f_sq, leak, _ = runner.master_fidelity_series(cfg, kets)
    assert f_sq.shape == leak.shape == (4, 41)

    H, collapse, dims, _ = runner.open_system(cfg)
    _, vecs = eigh(duffing_hamiltonian(cfg.params.omega_G, cfg.params.lam, 4))
    iso = vecs[:, :2] * (np.abs(np.diag(vecs[:2, :2])) / np.diag(vecs[:2, :2]))
    assert np.max(np.abs(iso - np.eye(4, 2))) > 1e-3
    kk = np.kron(iso, iso)
    proj = kk @ kk.conj().T
    for i, v in enumerate(kets):
        psi = np.kron(np.eye(2)[cfg.cavity_fock], kk @ v)
        states, _ = evolve_master(H, collapse, dims, np.outer(psi, psi.conj()), times)
        u = kk @ ideal_cnot() @ v
        for n, rho in enumerate(states):
            rho_b = partial_trace(rho, dims, [1, 2])
            weight = np.trace(proj @ rho_b).real
            assert abs(leak[i, n] - (1.0 - weight)) <= 1e-12
            assert abs(f_sq[i, n] - (u.conj() @ rho_b @ u).real / weight) <= 1e-12

def test_sweep(tmp_path):
    cfg = ScenarioConfig.from_mapping(small_master_mapping(n_steps=101, t_max_us=0.1))
    manifest = run_sweep(cfg, "params.G_tilde_hz", [1e6, 2e6], tmp_path)
    assert len(manifest["runs"]) == 2
    assert (tmp_path / "manifest.json").exists()
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
    for entry in manifest["runs"]:
        assert (tmp_path / entry["outdir"] / "trajectory.csv").exists()
        summary = json.loads((tmp_path / entry["outdir"] / "summary.json").read_text())
        assert entry["peak_after_initial"] == summary["peak_after_initial"]


def test_figure_config_presets():
    fig3 = figure_config("fig3")
    assert fig3.quadrature_convention == "bare"
    assert fig3.n_cav == 2
    assert fig3.fidelity_convention == "amplitude"
    assert fig3.average_over == ("00", "01", "11")
    fig9 = figure_config("fig9")
    assert isinstance(fig9, list) and len(fig9) == 4
    with pytest.raises(ValueError):
        figure_config("fig11")
    assert fig9[0] == figure_config("fig9")[0]
    assert [c.label for c in fig9] == ["fig9_Phi1", "fig9_Phi2", "fig9_Phi3", "fig9_Phi4"]


def test_cli_gatecheck():
    res = CliRunner().invoke(cli.main, ["gatecheck"])
    assert res.exit_code == 0
    assert "d(U_Gate(t_gate), CNOT)" in res.output
    assert "Omega = 30.04" in res.output


@pytest.mark.parametrize("args, cause", [
    (["--delta-hz", "36.6e6"], "|Delta| != omega_G"),
    (["--delta-hz", "-36.6e6"], "|Delta| != omega_G"),
    (["--g-hz", "0"], "nonzero exchange rate"),
    (["--xg2", "nan"], "finite nonzero exchange rate"),
    (["--g-hz", "inf"], "finite nonzero exchange rate"),
])
def test_cli_gatecheck_without_a_finite_nonzero_rate_fails_cleanly(args, cause):
    res = CliRunner().invoke(cli.main, ["gatecheck", *args])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert cause in json.loads(res.stderr)["error"]


@pytest.mark.parametrize("args, name", [
    (["--lambda-hz", "nan"], "lam"), (["--lambda-hz", "inf"], "lam"),
    (["--omega-g-hz", "nan"], "omega_m"), (["--omega-g-hz", "inf"], "omega_m"),
    (["--dim-trust", "20"], "dim_trust"),
])
def test_cli_spectrum_refuses_non_finite_parameters(tmp_path, args, name):
    # refused by name before H is built, with no numerical warning on the way,
    # and before the output directory is made
    out = tmp_path / "out"
    res = CliRunner().invoke(cli.main, ["spectrum", *args, "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    rule = "in [2, dim-4]" if name == "dim_trust" else "finite"
    assert json.loads(res.stderr)["error"].startswith(f"{name} must be {rule}")
    assert not out.exists()


@pytest.mark.parametrize("args", [["fig10", "--bloch-grid", "7"],
                                  ["fig9", "--nb", "4", "--bloch-grid", "5"]])
def test_cli_figure_refuses_its_configs_before_making_a_directory(tmp_path, args):
    out = tmp_path / "out"
    res = CliRunner().invoke(cli.main, ["figure", *args, "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr)["error"] == "Bloch grids need at least 8 points per angle"
    assert not out.exists()


# validates, but gamma_m = omega_G / Q = 1.8e11 rad/s gives the even sector a
# generator of norm 4.1e12, so eig returns its steady-state 0 as 2.7e-4 rad/s
STRONGLY_DAMPED = {"params": {"Delta_hz": 28e6, "g_G_hz": 9e6, "omega_G_hz": 28.6e6,
                              "lambda_hz": 209e3, "kappa_hz": 0, "Q": 1e-3, "T": 3e-3},
                   "dims": {"n_cav": 2, "n_b": 2}, "t_max_us": 1e6, "n_steps": 11}


def test_cli_evolve_reports_a_gate_refusal_as_json(tmp_path, monkeypatch):
    # a validated config whose run a numerical gate refuses: here the trace
    # gate, at a bound below any rounding
    monkeypatch.setattr(dynamics, "TRACE_TOL", 1e-17)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_master_mapping(n_steps=11)))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(cfg_path),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert "trace drift" in json.loads(line)["error"]
    assert not list((tmp_path / "run").glob("*"))  # no CSV, no summary


def test_series_bound_refuses_a_label_list_series_and_keeps_the_figures(tmp_path):
    # 13 labels x 2 x 11 million steps x 8 bytes = 2.29 GB of series
    doc = small_master_mapping(initial={"kind": "named-superposition",
                                        "labels": list(NAMED_STATES)}, n_steps=11_000_000)
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_mapping(doc)
    assert str(err.value).startswith(f"13 initial kets: {13 * 2 * 11_000_000 * 8} bytes of "
                                     "float64 series, and the master run's columns")
    # fig10 (224 kets) and the default separable [16, 16] grid (50176 kets)
    # at 20001 steps stay within the bound: a Bloch family's series is
    # averaged chunk by chunk to 2 x n_steps
    assert figure_config("fig10").initial.size == 224
    sep = ScenarioConfig.from_mapping(small_master_mapping(
        initial={"kind": "separable-product"}, n_steps=20001))
    assert sep.initial.size == 50176
    # the CLI refuses it before any output is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(cfg_path),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    [line] = res.stderr.splitlines()
    assert "over the" in json.loads(line)["error"]
    assert not (tmp_path / "run").exists()


def test_held_bound_counts_the_columns_and_rows_of_a_master_run():
    # a Bloch family propagates at most 16 columns against 17 rows whatever
    # its k: the separable [16, 16] grid at n_cav = 3, n_b = 4 validates. At
    # [32, 32], k = 921600 kets each hold 2 x 16 x 17 float contraction
    # coefficients and a (2, 256) reduce buffer, 7.8 GB in all
    k, n = 30 * 32 * 30 * 32, 16
    doc = small_master_mapping(initial={"kind": "separable-product", "grid": [32, 32]},
                               dims={"n_cav": 3, "n_b": 4}, n_steps=2000)
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_mapping(doc)
    assert str(err.value).startswith(f"{k} initial kets: {2 * 2000 * 8} bytes of float64 "
                                     "series, and the master run's columns")
    assert f"kets {k * 8 * 2 * n * (n + 1)} more" in str(err.value)
    counted = dynamics.held_bytes((3, 4, 4), n, n + 1, 2000)
    chunks = f"chunks {counted['chunks'] + k * 2 * 256 * 8},"
    assert chunks in str(err.value)
    sep = ScenarioConfig.from_mapping({**doc, "initial": {"kind": "separable-product"}})
    assert sep.initial.size == 50176
    # fig10, nb4's config and a separable [8, 8] grid at n_b = 2 stay within it
    assert figure_config("fig10").initial.size == 224
    nb4 = small_master_mapping(initial={"kind": "fixed-list", "labels": ["00", "01", "10", "11"]},
                               dims={"n_cav": 3, "n_b": 4}, n_steps=2001)
    assert ScenarioConfig.from_mapping(nb4).n_b == 4
    sep = ScenarioConfig.from_mapping(small_master_mapping(
        initial={"kind": "separable-product", "grid": [8, 8]}, dims={"n_cav": 3, "n_b": 2},
        n_steps=20001))
    assert sep.initial.size == 2304


@pytest.mark.parametrize("dims, initial", [
    ((2, 4), {"kind": "fixed-list", "labels": ["00", "01", "10", "11"]}),  # the sectors' share
    ((2, 4), {"kind": "schmidt-entangled", "family": "Phi2", "grid": [8, 8]}),  # both shares
    ((3, 2), {"kind": "separable-product", "grid": [8, 8]}),  # the kets' share, 2304 of them
])
def test_held_bound_is_at_least_the_traced_peak_of_a_master_run(dims, initial):
    # what master_fidelity_series allocates, traced, against the count that
    # validation refuses configs by, over three chunks of outputs; with the
    # series the run holds, which a Bloch family averages to (2, n_steps)
    n_cav, n_b = dims
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        dims={"n_cav": n_cav, "n_b": n_b}, initial=initial, n_steps=2 * dynamics._CHUNK + 33))
    kets, weights = cfg.initial.kets()
    tracemalloc.start()
    try:
        runner.master_fidelity_series(cfg, kets, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = master_held(n_cav, n_b, len(kets), cfg.n_steps)
    series = (1 if weights is not None else len(kets)) * 2 * cfg.n_steps * 8
    assert peak <= series + sum(counted.values())


def test_master_run_holds_one_sector_at_a_time():
    # each sector's generator, eigenvectors and residual are freed before the
    # next sector is built, and the generator is built a slab of rows of L at
    # a time: the traced peak stays within twice one sector's largest set (5
    # float (m, m): L_s, eig's copy of it, its real eigenvectors and the
    # complex V), which leaves as much again for the rest of the run. Holding
    # every sector's V to the end, with a complex (m, m) product for L_s,
    # peaked 1.35 times over it
    cfg = ScenarioConfig.from_mapping(small_master_mapping(
        dims={"n_cav": 2, "n_b": 4}, n_steps=2001,
        initial={"kind": "fixed-list", "labels": ["00", "01", "10", "11"]}))
    kets, weights = cfg.initial.kets()
    tracemalloc.start()
    try:
        *_, stats = runner.master_fidelity_series(cfg, kets, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = max(stats["sectors"])
    assert stats["sectors"] == [272, 240]
    assert peak <= 2 * 5 * 8 * m * m


@pytest.mark.parametrize("labels, outputs", [
    (tuple(NAMED_STATES), ("fidelity",)),  # the (k, n_t) amplitudes' share, k = 13
    (("00",), ("fidelity",)),  # the (n_t,) vectors' share
    (("00", "01", "10", "11"), ("fidelity", "avg_entangled", "avg_separable")),
])
def test_held_bound_is_at_least_the_traced_peak_of_an_analytic_run(labels, outputs):
    # what the closed form allocates over 100001 angles, traced, against the
    # count that validation refuses configs by, with the series term
    cfg = ScenarioConfig(params=PhysicalParams.from_config(PAPER_VA),
                         initial=InitialStateFamily("fixed-list", labels), mode="analytic",
                         t_max_us=120e3, n_steps=100001, outputs=outputs)
    tracemalloc.start()
    try:
        runner._run_analytic(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = runner.analytic_held_bytes(len(labels), cfg.n_steps)
    assert peak <= len(labels) * 2 * cfg.n_steps * 8 + sum(counted.values())


def test_held_bound_refuses_an_analytic_run_that_validated_on_its_series_alone():
    # 13 labels at 5 million steps: 1.04 GB of series, but 3.2 GB with the
    # closed form's (k, n_t) amplitudes and (n_t,) vectors
    n_steps, k = 5_000_000, len(NAMED_STATES)
    assert k * 2 * n_steps * 8 < runner.MAX_SERIES_BYTES
    with pytest.raises(ValueError, match="and the analytic run's kets") as err:
        ScenarioConfig(params=PhysicalParams.from_config(PAPER_VA), mode="analytic",
                       initial=InitialStateFamily("fixed-list", tuple(NAMED_STATES)),
                       n_steps=n_steps)
    assert f"kets {48 * k * n_steps}, times {56 * n_steps} more" in str(err.value)


@pytest.mark.parametrize("fixed_step", [[], ["--fixed-step"]])
def test_cli_evolve_runs_the_strongly_damped_config(tmp_path, fixed_step):
    # exp(2.7e-4 t) over t = 1 s drifted the trace by 2.7e-4 until the
    # eigenvalues within the rounding floor m eps ||L_s|| were set to 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(STRONGLY_DAMPED))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(cfg_path), *fixed_step,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "run" / "trajectory.csv").exists()
    health = json.loads((tmp_path / "run" / "summary.json").read_text())["integrator"]
    assert health["max_trace_drift"] <= 1e-6


@pytest.mark.parametrize("t_max_us", ["0", "-1"])
def test_cli_analytic_refuses_a_nonpositive_t_max(tmp_path, t_max_us):
    # 0 is an explicit value, not a request for the 120000 us default
    res = CliRunner().invoke(cli.main, ["analytic", "--t-max-us", t_max_us,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.stderr)["error"] == "t_max_us must be positive"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode, extra, cause", [
    ("analytic", ["--preset", "paper_v1"], "analytic takes --config or --preset, not both"),
    ("master", [], "analytic needs a config with mode 'analytic', got 'master'"),
], ids=["config-and-preset", "master-config"])
def test_cli_analytic_refuses_what_it_would_drop_or_run_as_master(tmp_path, mode, extra, cause):
    # a preset beside a config would be ignored, and a master config would run
    # a Lindblad evolution under the analytic command
    doc = small_master_mapping(mode=mode)
    if mode == "analytic":
        doc.update(fidelity_convention="squared", Omega=30.0463)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    res = CliRunner().invoke(cli.main, ["analytic", "--config", str(config), *extra,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.stderr)["error"] == cause
    assert not (tmp_path / "run").exists()


def test_config_refuses_zero_q():
    # Q = 0 would otherwise read as lossless beams (gamma_m = 0), not as infinite damping
    doc = small_master_mapping()
    doc["params"] = {**doc["params"], "Q": 0.0}
    with pytest.raises(ValueError, match="Q must be positive"):
        ScenarioConfig.from_mapping(doc)


def test_config_rejects_the_removed_seed_key():
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig.from_mapping(small_master_mapping(seed=0))


def test_cli_figure_fig2(tmp_path):
    res = CliRunner().invoke(cli.main, ["figure", "fig2", "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "state,fidelity"
    assert all(line.endswith(",1") for line in rows[1:5])


def test_cli_figure_fig9_runs_every_family_in_turn(tmp_path):
    res = CliRunner().invoke(cli.main, ["figure", "fig9", "--bloch-grid", "8",
                                        "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    labels = [f"fig9_Phi{i}" for i in range(1, 5)]
    combined = json.loads((tmp_path / "summary.json").read_text())
    assert combined["figure"] == "fig9"
    # the echoed line carries every run's peak
    echoed = json.loads(res.output.strip().splitlines()[-1])
    for key in ("peak_fidelity", "peak_after_initial"):
        assert echoed[key] == {label: run[key] for label, run in combined["runs"].items()}
    assert sorted(combined["runs"]) == labels
    for label in labels:
        run = combined["runs"][label]
        assert run["outdir"] == label
        header = (tmp_path / label / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header.endswith(f"F_avg_{label[5:]}")
        summary = json.loads((tmp_path / label / "summary.json").read_text())
        assert summary["peak_fidelity"] == run["peak_fidelity"]
        # the gate peak, not the t = 0 overlap the sampled maximum can be
        assert run["peak_after_initial"] == summary["peak_after_initial"]
        assert summary["config"]["initial"]["grid"] == [8, 8]


def test_cli_evolve_and_error_paths(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_master_mapping(n_steps=101, t_max_us=0.1)))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(cfg_path),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert "peak_fidelity" in payload

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_master_mapping(mode="nonsense")))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(bad),
                                        "--out", str(tmp_path / "run2")])
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert "error" in err
    assert not (tmp_path / "run2" / "trajectory.csv").exists()


def test_cli_spectrum(tmp_path):
    res = CliRunner().invoke(cli.main, ["spectrum", "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows[0].startswith("n,E_rad_s,delta_n0_rad_s,X_n0")
    assert len(rows) == 17


def test_cli_spectrum_rerun_leaves_only_the_csv(tmp_path):
    for _ in range(2):
        res = CliRunner().invoke(cli.main, ["spectrum", "--out", str(tmp_path)])
        assert res.exit_code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv"]


def test_cli_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PHONONGATE_OUTDIR", str(tmp_path / "root"))
    res = CliRunner().invoke(cli.main, ["figure", "fig2"])
    assert res.exit_code == 0
    assert (tmp_path / "root" / "fig2" / "trajectory.csv").exists()


def test_cli_evolve_bad_average_over_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_master_mapping(
        initial={"kind": "fixed-list", "labels": ["00", "01"]}, average_over=["00", "11"])))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(bad),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "average_over" in json.loads(res.stderr)["error"]
    assert not (tmp_path / "run").exists()


def test_cli_preset_with_a_non_object_config_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    res = CliRunner().invoke(cli.main, ["evolve", "--preset", "paper_v1", "--config", str(bad),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error" in json.loads(res.stderr)


def _sweep(tmp_path, param, values):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_master_mapping(n_steps=101, t_max_us=0.1)))
    return CliRunner().invoke(cli.main, ["sweep", "--config", str(cfg_path), "--param", param,
                                         "--values", values, "--out", str(tmp_path / "sweep")])


def test_cli_sweep_validates_every_value_first(tmp_path):
    res = _sweep(tmp_path, "dims.n_b", "2,3")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "n_b" in json.loads(res.stderr)["error"]
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("values", ["1.0000001,1.0000002", "1,1"])
def test_cli_sweep_refuses_colliding_run_directories(tmp_path, values):
    # both values format as "1", the run directory name
    res = _sweep(tmp_path, "params.Q", values)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "collide" in json.loads(res.stderr)["error"]
    assert not (tmp_path / "sweep").exists()


def test_cli_sweep_integer_key(tmp_path):
    res = _sweep(tmp_path, "n_steps", "11,21")
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    steps = [json.loads((tmp_path / "sweep" / run["outdir"] / "summary.json").read_text())
             ["config"]["n_steps"] for run in manifest["runs"]]
    assert steps == [11, 21]


