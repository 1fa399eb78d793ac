import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import click
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


def small_analytic_mapping(**overrides):
    """`small_master_mapping` as an analytic scenario: without the keys only
    master mode reads (its cavity_fock, 1, is the default) and with Omega."""
    doc = {key: v for key, v in small_master_mapping().items()
           if key not in ("dims", "quadrature_convention", "fidelity_convention")}
    doc.update({"mode": "analytic", "Omega": 30.0463, **overrides})
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
    with pytest.raises(ValueError, match=r"mode must be one of \['master', 'analytic'\]"):
        ScenarioConfig.from_mapping(small_master_mapping(mode="magic"))
    with pytest.raises(ValueError, match="dims.n_cav must be >= 2"):
        ScenarioConfig.from_mapping(small_master_mapping(dims={"n_cav": 1, "n_b": 2}))
    with pytest.raises(ValueError, match="n_steps must be at least 2"):
        ScenarioConfig.from_mapping(small_master_mapping(n_steps=1))
    with pytest.raises(ValueError, match=r"unknown scenario keys \['unknown_key'\]"):
        ScenarioConfig.from_mapping(small_master_mapping(unknown_key=1))
    with pytest.raises(ValueError, match="unknown family kind 'bell'"):
        ScenarioConfig.from_mapping(small_master_mapping(initial={"kind": "bell"}))
    with pytest.raises(ValueError, match=r"integrator must be one of \['expm', 'rk4'\]"):
        ScenarioConfig.from_mapping(small_master_mapping(integrator="rk45"))

    # configs that used to validate and then crash at run time or be misread:
    # each fails both as a document and when built in code, by its own rule
    # (a pair of messages where the document is refused before the rule)
    base = ScenarioConfig.from_mapping(small_master_mapping())
    ana = ScenarioConfig.from_mapping(small_analytic_mapping())
    F = InitialStateFamily
    two = {"kind": "fixed-list", "labels": ["00", "01"]}
    bloch = {"kind": "schmidt-entangled", "family": "Psi"}
    label_list = "must name members of a label list"
    rows = [
        ({"dims": {"n_cav": 2, "n_b": 3}}, "the quartic term needs 4 levels",
         lambda: replace(base, n_b=3)),
        ({"initial": {"kind": "schmidt-entangled", "family": "Phi9"}},
         "unknown Bloch family 'Phi9'", lambda: F("schmidt-entangled", family="Phi9")),
        ({"initial": two, "average_over": ["00", "11"]}, label_list,
         lambda: replace(base, initial=F("fixed-list", ("00", "01")), average_over=("00", "11"))),
        ({"n_steps": 11.5}, "n_steps must be an integer, got 11.5",
         lambda: replace(base, n_steps=11.5)),
        ({"outputs": ["leakge"]}, "master outputs are", lambda: replace(base, outputs=("leakge",))),
        ({"initial": bloch}, "analytic mode takes a label list",
         lambda: replace(ana, initial=F("schmidt-entangled", family="Psi")),
         small_analytic_mapping),
        ({"fidelity_convention": "amplitude"},
         "fidelity_convention = 'amplitude' applies to master mode only",
         lambda: replace(ana, fidelity_convention="amplitude"), small_analytic_mapping),
        ({"initial": {"kind": "separable-product", "family": "Psi"}},
         (r"unknown keys \['family'\] for initial kind", "separable-product takes no family"),
         lambda: F("separable-product", family="Psi")),
        ({"initial": bloch, "average_over": ["00"]}, label_list,
         lambda: replace(base, initial=F("schmidt-entangled", family="Psi"),
                         average_over=("00",))),
        # a top-level key, refused as such before the cavity Fock rule
        ({"cavity_fock": 0}, r"unknown scenario keys \['cavity_fock'\]", None),
        ({"initial": {"kind": "fixed-list", "labels": ["00"], "cavity_fock": 2}},
         "cavity Fock index outside", lambda: replace(base, cavity_fock=2)),
        ({"X_G_sq": 0.25}, "X_G_sq = 0.25 applies to analytic mode only",
         lambda: replace(base, X_G_sq=0.25)),
        ({"dims": {"n_cav": 2, "n_b": 4}, "params": {**PAPER_V1, "omega_G_hz": 0.0}},
         "needs omega_G_hz > 0",
         lambda: replace(base, n_b=4, params=replace(base.params, omega_G=0.0))),
        ({"dims": [2, 2]}, "must be JSON objects", None),
        ({"params": {k: v for k, v in PAPER_V1.items() if k != "g_G_hz"}, "Omega": None},
         "analytic mode needs Omega",
         lambda: replace(ana, Omega=None, params=replace(ana.params, g_G=0.0)),
         small_analytic_mapping),
        ({"X_G_sq": -1}, r"X_G_sq must be >= 0 \(a squared matrix element\), got -1.0",
         lambda: replace(ana, X_G_sq=-1.0), small_analytic_mapping),
    ]
    # a row's overrides apply to small_master_mapping, or to the mapping it names
    for overrides, cause, build, *mapping in rows:
        doc_cause, build_cause = (cause, cause) if isinstance(cause, str) else cause
        with pytest.raises(ValueError, match=doc_cause):
            ScenarioConfig.from_mapping((mapping or [small_master_mapping])[0](**overrides))
        if build is not None:
            with pytest.raises(ValueError, match=build_cause):
                build()
    # JSON numbers and sweep values arrive as floats: integral ones are ints
    assert replace(base, n_steps=11.0).n_steps == 11
    assert type(ScenarioConfig.from_mapping(small_master_mapping(n_steps=11.0)).n_steps) is int


_NAMES = ["00", "01", "10", "11", "psi1", "psi2", "varphi3", "four_equal"]
_RATE = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@st.composite
def scenario_mappings(draw):
    """Valid scenario documents of every initial-state kind and both modes. An
    analytic document holds the keys only master mode reads at their defaults."""
    mode = draw(st.sampled_from(["master", "analytic"]))
    master = mode == "master"

    def choice(values, default):  # a master document's value, or an analytic one's default
        return draw(st.sampled_from(values if master else [default]))

    n_cav = draw(st.integers(2, 5)) if master else 3
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
        "dims": {"n_cav": n_cav, "n_b": choice([2, 4, 5], 2)},
        "t_max_us": draw(st.floats(min_value=1e-6, max_value=1e6)),
        "n_steps": draw(st.integers(2, 10**6).flatmap(lambda n: st.sampled_from([n, float(n)]))),
        "mode": mode,
        "outputs": draw(st.lists(st.sampled_from(
            ["fidelity", "leakage"] if mode == "master" else
            ["fidelity", "avg_entangled", "avg_separable"]), unique=True)),
        "quadrature_convention": choice(["symmetric", "bare"], "symmetric"),
        "fidelity_convention": choice(["squared", "amplitude"], "squared"),
        "integrator": choice(["expm", "rk4"], "expm"),
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
    doc["initial"]["cavity_fock"] = draw(st.integers(0, n_cav - 1)) if master else 1
    # an analytic rate is a nonzero Omega, or the exchange rate at an X_G_sq
    # with Delta and g_G finite and nonzero and |Delta| away from omega_G
    if mode == "analytic" and draw(st.booleans()):
        doc["Omega"] = draw(st.floats(min_value=-1e6, max_value=1e6).filter(bool))
    elif mode == "analytic":
        doc["X_G_sq"] = draw(st.floats(min_value=1e-6, max_value=1.0))
        params["g_G_hz"] = draw(st.floats(min_value=1.0, max_value=1e9))
        params["Delta_hz"] = draw(st.floats(min_value=-1e9, max_value=1e9).filter(
            lambda d: abs(d) >= 1.0 and abs(abs(d) - params["omega_G_hz"]) > 1e-6 * abs(d)))
    return doc


def master_held(n_cav, n_b, k, n_steps) -> dict[str, int]:
    """What a master run of k kets holds besides its series: `dynamics.held_bytes`
    of the n = min(k, 16) columns and n + 1 rows that span its kets' projectors
    and targets, with each ket's (2, chunk) reduce buffer, and each ket's
    n (n + 1) float contraction coefficients."""
    n = min(k, 16)
    held = dynamics.held_bytes((n_cav, n_b, n_b), n, n + 1, n_steps, reduced=2 * k)
    held["kets"] = k * 8 * n * (n + 1)
    return held


def held_bytes(doc) -> int:
    """The float64 series written, k x n_steps fidelities for a label list and
    n_steps for a Bloch family, as many leakages again for a master run that
    lists them or has n_b > 2 (`ScenarioConfig.writes_leakage`), plus what
    `master_held` or `runner.analytic_held_bytes` counts, with k counted from
    the document by hand."""
    initial = doc["initial"]
    if "labels" in initial:
        k = series = len(initial["labels"])
    else:
        n_theta, n_phi = initial["grid"]
        k = ((n_theta - 2) * n_phi) ** (2 if initial["kind"] == "separable-product" else 1)
        series = 1
    n_steps = int(doc["n_steps"])
    if doc["mode"] == "master":
        held = master_held(doc["dims"]["n_cav"], doc["dims"]["n_b"], k, n_steps)
        series *= 2 if "leakage" in doc["outputs"] or doc["dims"]["n_b"] > 2 else 1
    else:
        held = runner.analytic_held_bytes(k, n_steps)
    return series * n_steps * 8 + sum(held.values())


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


def test_refine_peak_keeps_the_sample_where_the_vertex_exceeds_one():
    # the parabola through (0.2, 1, 0.9) peaks at 1.068: a fidelity cannot
    assert refine_peak(np.array([0.0, 1.0, 2.0]), np.array([0.2, 1.0, 0.9])) == (1.0, 1.0)


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
    ((), {}, lambda p: (p.omega_G / p.Q, hamiltonians.thermal_occupation(p.omega_G, p.T))),
    (("T",), {"gamma_m_hz": 5.72, "n_th": 0.25}, lambda p: (p.gamma_m, 0.25)),
    (("Q",), {"gamma_m_hz": 10.0}, lambda p: (p.gamma_m, hamiltonians.thermal_occupation(p.omega_G, p.T))),
    (("Q", "T"), {}, lambda p: (0.0, 0.0)),
], ids=["filled", "given", "given-without-Q", "neither-Q-nor-T"])
def test_open_system_fills_gamma_m_and_n_th(drop, given, rates):
    # where the params leave them out, gamma_m is omega_G / Q and n_th the
    # thermal occupation at T, each 0 without Q or T; a given value is kept
    params = {**{k: v for k, v in PAPER_V1.items() if k not in drop}, **given}
    cfg = ScenarioConfig.from_mapping(small_master_mapping(params=params))
    _, collapse, dims, _ = runner.open_system(cfg)
    gamma_m, n_th = rates(cfg.params)
    assert cfg.params.beam_loss() == (gamma_m, n_th)
    expected = standard_channels(dims, cfg.params.kappa, gamma_m, n_th)
    assert len(collapse) == len(expected) == (1 if gamma_m == 0 else 5)
    assert all(np.array_equal(c, e) for c, e in zip(collapse, expected))


@pytest.mark.parametrize("given", [{"n_th": 0.25}, {"gamma_m_hz": 5.0}])
def test_a_given_loss_rate_must_agree_with_its_source(given):
    # PAPER_V1's T gives n_th = 1.72 and its Q gamma_m = 5.72 Hz: a given
    # value that disagrees is refused, with a message naming both keys
    with pytest.raises(ValueError, match="n_th = 0.25 .*T|gamma_m = .*Q"):
        ScenarioConfig.from_mapping(small_master_mapping(params={**PAPER_V1, **given}))


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
    doc = (small_master_mapping if mode == "master" else small_analytic_mapping)(n_steps=20001)
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
        integrator=integrator, n_steps=2 * dynamics._CHUNK + 33, t_max_us=0.5,
        outputs=["fidelity", "leakage"]))
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
    cfg = replace(figure_config("fig3"), n_steps=2001, outputs=("fidelity", "leakage"))
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
    # CNOT conjugation maps each member onto its target's projector, so the
    # chosen members' targets fit every target with the same coefficients
    cnot = ideal_cnot()
    targets = cnot @ ops @ cnot.conj().T
    fit = np.einsum("kn,nij->kij", coef, targets[chosen])
    assert np.max(np.abs(fit - targets)) <= 1e-15


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
    # a Bloch family is reduced chunk by chunk to its averaged columns, so
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


def test_a_run_that_writes_no_leakage_holds_none():
    # fig3's label list at n_b = 2, whose outputs do not list leakage: there
    # the qubit projector is the identity on the beams, so the leakage would
    # only be the trace drift, and no (k, n_t) leakage series is filled or
    # held. The traced peak stays within what the config counts: 4 x 20001 x
    # 8 = 0.64 MB of fidelity series and 1.22 MB besides (`master_held`),
    # 1.86 MB. Filling the leakage rows as well (0.64 MB more) and stacking
    # F_avg's 3 members (0.48 MB) peaked at 2.09 MB
    cfg = figure_config("fig3")
    assert not cfg.writes_leakage
    kets, _ = cfg.initial.kets()
    _, fid, leak, stats = runner.master_fidelity_series(cfg, kets)
    assert leak is None and fid.shape == (4, cfg.n_steps)
    assert stats["max_leakage"] == 1.0 - stats["min_qubit_weight"]
    tracemalloc.start()
    try:
        _, columns, _ = runner._run_master(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(columns) == ["F_00", "F_01", "F_10", "F_11", "F_avg"]
    assert peak <= 4 * cfg.n_steps * 8 + sum(master_held(2, 2, 4, cfg.n_steps).values())


@pytest.mark.parametrize("average_over", [("00", "01", "11"), None], ids=["3", "4"])
def test_f_avg_is_np_mean_bit_for_bit(average_over):
    # F_avg is summed into one copy, ((c0 + c1) + c2 ...) / m, the order in
    # which np.mean reduces the stacked members, and leaves them as they were
    cfg = replace(figure_config("fig3"), average_over=average_over)
    fid = np.random.default_rng(29).random((4, 20001))
    before = fid.copy()
    columns = runner._fidelity_columns(cfg, fid)
    members = [cfg.initial.labels.index(lbl) for lbl in average_over or cfg.initial.labels]
    expected = np.mean([fid[i] for i in members], axis=0)
    assert np.array_equal(columns["F_avg"].view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(fid, before)


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


def test_figure_config_sets_its_keys_in_every_scenario():
    # a figure's scenarios are documents, each parsed once with the keys set
    fig9 = figure_config("fig9", {"dims.n_b": 4, "integrator": "rk4", "initial.grid": [8, 8]})
    assert [(c.n_b, c.integrator, c.initial.grid) for c in fig9] == [(4, "rk4", (8, 8))] * 4
    assert [c.label for c in fig9] == [c.label for c in figure_config("fig9")]
    assert figure_config("fig3", {"dims.n_b": 5}) == replace(figure_config("fig3"), n_b=5)
    assert figure_config("fig10").label == "fig10"
    with pytest.raises(ValueError, match=r"unknown keys \['grid'\] for initial kind 'fixed-list'"):
        figure_config("fig3", {"initial.grid": [8, 8]})


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
    (["--g-hz", "1e200"], "finite nonzero exchange rate"),  # g_G**2 overflows
    # t_gate = pi/(2 Omega) would be negative
    (["--xg2", "-1"], "a positive one to time the gate by pi/(2 Omega), got Omega = -120.185"),
    (["--delta-hz", "-49.9e6"], "a positive one to time the gate by pi/(2 Omega), "
                                "got Omega = -30.0463"),
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


@pytest.mark.parametrize("args, n_b", [(["figure", "fig3", "--nb", "5"], 5),
                                       (["evolve", "--preset", "paper_v1", "--nb", "6"], 6)],
                         ids=["figure", "evolve"])
def test_cli_nb_takes_every_truncation_the_config_validates(tmp_path, scenarios_run, args, n_b):
    # an integer that only ScenarioConfig's rule, 2 or >= 4, judges
    for command in (cli.figure, cli.evolve):
        [nb] = [param for param in command.params if param.name == "nb"]
        assert nb.type is click.INT and nb.default is None
    res = CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    [cfg] = scenarios_run
    assert cfg.dims[1:] == (n_b, n_b)


_N_B_RULE = "dims.n_cav must be >= 2, and dims.n_b 2 or >= 4 (the quartic term needs 4 levels)"


@pytest.mark.parametrize("args, cause", [
    (["figure", "fig3", "--nb", "3"], _N_B_RULE),
    (["evolve", "--preset", "paper_v1", "--nb", "3"], _N_B_RULE),
    (["figure", "fig2", "--nb", "4"], "fig2 reads no scenario, so it takes no config keys, "
                                      "got ['dims.n_b']"),
    (["figure", "fig2", "--fixed-step", "--bloch-grid", "9"],
     "fig2 reads no scenario, so it takes no config keys, got ['initial.grid', 'integrator']"),
    (["figure", "fig3", "--bloch-grid", "8"], "unknown keys ['grid'] for initial kind 'fixed-list'"),
], ids=["figure-nb3", "evolve-nb3", "fig2-nb", "fig2-grid", "fig3-grid"])
def test_cli_refuses_a_flag_its_scenarios_refuse_before_making_a_directory(tmp_path, args, cause):
    # the config is the one judge of every flag, and a flag no scenario reads is refused
    out = tmp_path / "out"
    res = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert json.loads(line)["error"] == cause
    assert not out.exists()


# validates, but gamma_m = omega_G / Q = 1.8e11 rad/s gives the even sector a
# generator of norm 4.1e12, so eig returns its steady-state 0 as 2.7e-4 rad/s
STRONGLY_DAMPED = {"params": {"Delta_hz": 28e6, "g_G_hz": 9e6, "omega_G_hz": 28.6e6,
                              "lambda_hz": 209e3, "kappa_hz": 0, "Q": 1e-3, "T": 3e-3},
                   "dims": {"n_cav": 2, "n_b": 2}, "t_max_us": 1e6, "n_steps": 11}


@pytest.mark.parametrize("flag, cause", [
    (["--nb", "4"], "dims.n_b = 4 applies to master mode only"),
    (["--fixed-step"], "integrator = 'rk4' applies to master mode only"),
], ids=["nb", "fixed-step"])
def test_cli_evolve_refuses_master_flags_on_an_analytic_config(tmp_path, flag, cause):
    # the beam truncation and the integrator do not enter the closed form, so
    # an analytic run would echo them in summary.json without using them
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_analytic_mapping()))
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(config), *flag,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert json.loads(line)["error"] == cause
    assert not (tmp_path / "run").exists()


def test_cli_evolve_takes_the_default_nb_on_an_analytic_config(tmp_path):
    # n_b = 2 is the default an analytic scenario holds: the flag changes nothing
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_analytic_mapping(n_steps=101)))
    runs = {}
    for name, flag in (("plain", []), ("nb2", ["--nb", "2"])):
        res = CliRunner().invoke(cli.main, ["evolve", "--config", str(config), *flag,
                                            "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        del summary["runtime_s"], summary["timings_s"]
        runs[name] = (summary, (tmp_path / name / "trajectory.csv").read_bytes())
    assert runs["plain"] == runs["nb2"]


# every field only one mode reads, set away from its default in a scenario
# of the other mode: (that mode, document keys, the key and value named, fields)
_ONE_MODE_FIELDS = [
    ("analytic", {"dims": {"n_cav": 2}}, "dims.n_cav = 2", {"n_cav": 2}),
    ("analytic", {"dims": {"n_b": 4}}, "dims.n_b = 4", {"n_b": 4}),
    ("analytic", {"initial": {"labels": ["00"], "cavity_fock": 0}}, "initial.cavity_fock = 0",
     {"cavity_fock": 0}),
    ("analytic", {"quadrature_convention": "bare"}, "quadrature_convention = 'bare'",
     {"quadrature_convention": "bare"}),
    ("analytic", {"integrator": "rk4"}, "integrator = 'rk4'", {"integrator": "rk4"}),
    ("analytic", {"fidelity_convention": "amplitude"}, "fidelity_convention = 'amplitude'",
     {"fidelity_convention": "amplitude"}),
    ("master", {"X_G_sq": 0.25}, "X_G_sq = 0.25", {"X_G_sq": 0.25}),
    ("master", {"Omega": 30.0}, "Omega = 30.0", {"Omega": 30.0}),
]


@pytest.mark.parametrize("mode, overrides, named, fields", _ONE_MODE_FIELDS,
                         ids=[f"{mode}-{named.split()[0]}" for mode, _, named, _ in _ONE_MODE_FIELDS])
def test_a_field_one_mode_reads_is_refused_in_the_other(mode, overrides, named, fields):
    # refused by its JSON key and value, in a parsed document and in one built in code
    owner = "master" if mode == "analytic" else "analytic"
    cause = re.escape(f"{named} applies to {owner} mode only")
    mapping = small_analytic_mapping if mode == "analytic" else small_master_mapping
    with pytest.raises(ValueError, match=cause):
        ScenarioConfig.from_mapping(mapping(**overrides))
    with pytest.raises(ValueError, match=cause):
        replace(ScenarioConfig.from_mapping(mapping()), **fields)


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
    # 13 labels x 2 (fidelity and leakage) x 11 million steps x 8 bytes =
    # 2.29 GB of series
    doc = small_master_mapping(initial={"kind": "named-superposition",
                                        "labels": list(NAMED_STATES)}, n_steps=11_000_000,
                               outputs=["fidelity", "leakage"])
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_mapping(doc)
    assert str(err.value).startswith(f"13 initial kets: {13 * 2 * 11_000_000 * 8} bytes of "
                                     "float64 series, and the master run's columns")
    # fig10 (224 kets) and the default separable [16, 16] grid (50176 kets)
    # at 20001 steps stay within the bound: a Bloch family's series is
    # averaged chunk by chunk to n_steps
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
    # [32, 32], k = 921600 kets each hold 16 x 17 float contraction
    # coefficients and a (2, 256) reduce buffer, 5.9 GB in all
    k, n = 30 * 32 * 30 * 32, 16
    doc = small_master_mapping(initial={"kind": "separable-product", "grid": [32, 32]},
                               dims={"n_cav": 3, "n_b": 4}, n_steps=2000)
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_mapping(doc)
    assert str(err.value).startswith(f"{k} initial kets: {2 * 2000 * 8} bytes of float64 "
                                     "series, and the master run's columns")
    assert f"kets {k * 8 * n * (n + 1)} more" in str(err.value)
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
    # series the run writes, which a Bloch family averages to (n_steps,) each
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
    series = (1 if weights is not None else len(kets)) * (1 + cfg.writes_leakage) * cfg.n_steps * 8
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
    assert peak <= len(labels) * cfg.n_steps * 8 + sum(counted.values())


def test_held_bound_refuses_an_analytic_run_that_validated_on_its_series_alone():
    # 13 labels at 5 million steps: 0.52 GB of series, and 3.4 GB more for
    # the closed form's (k, n_t) amplitudes and (n_t,) vectors
    n_steps, k = 5_000_000, len(NAMED_STATES)
    assert k * n_steps * 8 < runner.MAX_SERIES_BYTES
    with pytest.raises(ValueError, match="and the analytic run's kets") as err:
        ScenarioConfig(params=PhysicalParams.from_config(PAPER_VA), mode="analytic",
                       initial=InitialStateFamily("fixed-list", tuple(NAMED_STATES)),
                       n_steps=n_steps)
    assert f"kets {48 * k * n_steps}, times {56 * n_steps} more" in str(err.value)


def test_cli_evolve_runs_a_config_whose_kB_T_underflows(tmp_path):
    # kB T underflows to 0 at T = 1e-320, where n_th reads 0, its limit
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"params": {"T": 1e-320}, "n_steps": 11, "t_max_us": 0.01,
                                  "dims": {"n_cav": 2, "n_b": 2}}))
    res = CliRunner().invoke(cli.main, ["evolve", "--preset", "paper_v1", "--config", str(config),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "run" / "trajectory.csv").exists()
    assert (tmp_path / "run" / "summary.json").exists()


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


def test_cli_analytic_refuses_a_master_config(tmp_path):
    # a master config would run a Lindblad evolution under the analytic command
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_master_mapping()))
    res = CliRunner().invoke(cli.main, ["analytic", "--config", str(config),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.stderr)["error"] == ("analytic needs a config with mode 'analytic', "
                                               "got 'master'")
    assert not (tmp_path / "run").exists()


def test_cli_analytic_merges_a_preset_under_its_config(tmp_path, scenarios_run):
    # as evolve and sweep do: the preset's params under the config's own, per key
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "analytic", "params": {"g_G_hz": 25e3}, "X_G_sq": 0.5}))
    res = CliRunner().invoke(cli.main, ["analytic", "--config", str(config), "--preset", "paper_va",
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    [cfg] = scenarios_run
    assert cfg.params == PhysicalParams.from_config({**PAPER_VA, "g_G_hz": 25e3})
    assert (cfg.label, cfg.X_G_sq) == ("paper_va", 0.5)
    assert cfg.initial.labels == ("00", "01", "10", "11")


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


def test_cli_spectrum_runs_a_beam_at_zero_frequency(tmp_path):
    # omega_G = 0 leaves (lam/2) x^4, a function of x alone: its levels come in
    # parity pairs, degenerate up to rounding, and are listed ascending
    res = CliRunner().invoke(cli.main, ["spectrum", "--omega-g-hz", "0", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    energies = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.diff(energies) >= 0)


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




@pytest.mark.parametrize("args, cause", [
    (["evolve"], "need --config and/or --preset"),
    (["sweep", "--config", "CFG", "--param", "params.Q", "--values", ","], "no sweep values given"),
    (["sweep", "--config", "CFG", "--param", "label.x", "--values", "1"],
     "'label.x' is not a config key"),
    (["sweep", "--config", "CFG", "--param", "params", "--values", "1"],
     "'params' is not a config key"),
    # the swept value, not the run's own label, is the one validated
    (["sweep", "--preset", "paper_v1", "--param", "label", "--values", "1"],
     "label must be a string, got 1.0"),
], ids=["evolve-without-a-source", "sweep-without-values", "sweep-of-a-non-key",
        "sweep-of-a-section", "sweep-of-the-label"])
def test_cli_refuses_a_run_it_cannot_build_before_making_a_directory(tmp_path, args, cause):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_master_mapping(n_steps=101, t_max_us=0.1)))
    args = [str(cfg_path) if a == "CFG" else a for a in args]
    res = CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert json.loads(line)["error"] == cause
    assert not (tmp_path / "run").exists()


def test_cli_analytic_runs_its_defaults(tmp_path):
    # paper_va: the README's peak of 1 at t = pi/(2 Omega), on a grid of 3.6e-3
    # rad per output at the fastest term, 4 Omega
    res = CliRunner().invoke(cli.main, ["analytic", "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    echoed = json.loads(res.output)
    assert echoed == {"peak_fidelity": summary["peak_fidelity"],
                      "peak_time_s": summary["peak_time_s"], "outdir": str(tmp_path / "run")}
    header = (tmp_path / "run" / "trajectory.csv").read_text().split("\n", 1)[0]
    assert header == "t_s,F_00,F_01,F_10,F_11,F_avg,F_avg_entangled,F_avg_separable"
    omega = summary["integrator"]["Omega_rad_s"]
    assert summary["peak_fidelity"] == pytest.approx(1.0, abs=1e-6)
    assert summary["peak_time_s"] == pytest.approx(np.pi / (2 * omega), rel=1e-6)
    assert summary["integrator"]["max_phase_per_output"] == pytest.approx(3.6e-3, rel=0.01)
    assert summary["warnings"] == []
    assert summary["config"]["label"] == "analytic" and summary["config"]["n_steps"] == 4001
    res = CliRunner().invoke(cli.main, ["analytic", "--t-max-us", "60000",
                                        "--out", str(tmp_path / "short")])
    assert res.exit_code == 0, res.output
    short = json.loads((tmp_path / "short" / "summary.json").read_text())
    assert short["config"]["t_max_us"] == 60000.0


@pytest.fixture
def scenarios_run(monkeypatch):
    """The scenarios the CLI hands to `run_scenario`, which here runs none."""
    ran = []

    def run_scenario(cfg, outdir):
        ran.append(cfg)
        return dict.fromkeys(("peak_fidelity", "peak_time_s", "peak_time_us"), 0.0)

    monkeypatch.setattr(runner, "run_scenario", run_scenario)
    return ran


@pytest.mark.parametrize("args, echoed", [
    (["evolve", "--preset", "paper_v1", "--nb", "4", "--fixed-step"], {"n_b": 4, "integrator": "rk4"}),
    (["analytic", "--t-max-us", "5"], {"t_max_us": 5.0}),
], ids=["evolve", "analytic"])
def test_cli_parses_its_scenario_once(tmp_path, monkeypatch, scenarios_run, args, echoed):
    # the flags are set in the scenario's document, which is validated once
    calls, post_init = [], ScenarioConfig.__post_init__
    monkeypatch.setattr(ScenarioConfig, "__post_init__", lambda cfg: calls.append(post_init(cfg)))
    res = CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1
    [cfg] = scenarios_run
    assert {name: getattr(cfg, name) for name in echoed} == echoed


@pytest.mark.parametrize("command, doc, flag, key", [
    ("evolve", small_master_mapping(dims={"n_cav": 2, "n_b": 3}, n_steps=11, t_max_us=0.01),
     ["--nb", "4"], ("dims", "n_b", 4)),
    ("analytic", {"mode": "analytic", "params": PAPER_VA, "t_max_us": 0, "n_steps": 11},
     ["--t-max-us", "5"], (None, "t_max_us", 5.0)),
], ids=["nb", "t-max-us"])
def test_a_flag_replaces_a_config_value_before_it_is_validated(tmp_path, command, doc, flag, key):
    # the config alone is refused (n_b = 3, t_max_us = 0); with the flag it runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    res = CliRunner().invoke(cli.main, [command, "--config", str(config), "--out", str(tmp_path / "no")])
    assert res.exit_code == 1
    res = CliRunner().invoke(cli.main, [command, "--config", str(config), *flag,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    echo = json.loads((tmp_path / "run" / "summary.json").read_text())["config"]
    where, name, value = key
    assert (echo[where] if where else echo)[name] == value


def test_cli_analytic_parses_its_defaults_document_under_a_preset(tmp_path, scenarios_run):
    # the same scenario as from_mapping of the document over the preset's
    # params, paper_va unless one is named; a run leaves the document as it was
    for args, preset in ((["--preset", "paper_v1"], "paper_v1"), ([], "paper_va")):
        res = CliRunner().invoke(cli.main, ["analytic", *args, "--out", str(tmp_path / "run")])
        assert res.exit_code == 0, res.output
        expected = ScenarioConfig.from_mapping({**runner.ANALYTIC_DEFAULTS,
                                                "params": runner.PRESETS[preset]})
        assert scenarios_run.pop().to_mapping() == expected.to_mapping()
    assert expected == ScenarioConfig(
        params=PhysicalParams.from_config(PAPER_VA), mode="analytic", label="analytic",
        initial=InitialStateFamily("fixed-list", ("00", "01", "10", "11")), t_max_us=120e3,
        n_steps=4001, X_G_sq=0.25, outputs=("fidelity", "avg_entangled", "avg_separable"))


@pytest.mark.parametrize("config, args, cause", [
    ("[1, 2]", ["--fixed-step"], "a scenario and its params, dims, initial must be JSON objects"),
    ('{"dims": [4]}', ["--nb", "4"], "a scenario and its params, dims, initial must be JSON objects"),
    ("[1, 2]", ["--preset", "paper_v1", "--fixed-step"],
     "a config and its params must be JSON objects"),
], ids=["list", "dims-list", "list-under-a-preset"])
def test_cli_evolve_refuses_a_non_object_config_before_setting_a_flag(tmp_path, config, args, cause):
    path = tmp_path / "config.json"
    path.write_text(config)
    res = CliRunner().invoke(cli.main, ["evolve", "--config", str(path), *args,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert json.loads(line)["error"] == cause
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("g_hz", [1e153, 1e200])
def test_cli_analytic_refuses_an_exchange_rate_that_is_not_finite(tmp_path, g_hz):
    # Delta X_G^2 g_G^2 overflows to inf at 1e153 Hz, and g_G**2 raises at 1e200
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "analytic", "params": {**PAPER_VA, "g_G_hz": g_hz}}))
    res = CliRunner().invoke(cli.main, ["analytic", "--config", str(config),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert json.loads(line)["error"] == "analytic mode needs a finite nonzero exchange rate, got Omega = inf"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, cause", [
    ({"X_G_sq": 0}, "analytic mode needs a finite nonzero exchange rate, got Omega = 0.0"),
    ({"Omega": 0}, "analytic mode needs a finite nonzero exchange rate, got Omega = 0.0"),
    ({"Omega": 30.0, "X_G_sq": 0.7},
     "analytic mode takes Omega or X_G_sq, not both: Omega reads no X_G_sq"),
], ids=["zero-X_G_sq", "zero-Omega", "both"])
def test_cli_analytic_refuses_a_zero_rate_and_an_unread_x_g_sq(tmp_path, doc, cause):
    # at Omega = 0 the gate never acts, as gatecheck refuses it; a given Omega reads no X_G_sq
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "analytic", "params": PAPER_VA, "n_steps": 101, **doc}))
    res = CliRunner().invoke(cli.main, ["analytic", "--config", str(config),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert json.loads(line)["error"] == cause
    assert not (tmp_path / "run").exists()


def test_cli_analytic_reports_no_peak_above_one_on_an_aliased_grid(tmp_path):
    # Omega = 6.8e290 rad/s: the grid aliases the gate completely, and a
    # parabola through three such samples of F_avg peaked at 1.07
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "analytic", "params": {**PAPER_VA, "g_G_hz": 1e149},
        "initial": {"labels": ["00", "01", "10", "11"]},
        "outputs": ["fidelity", "avg_entangled", "avg_separable"]}))
    res = CliRunner().invoke(cli.main, ["analytic", "--config", str(config),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    peaks = [summary["peak_fidelity"], summary["peak_after_initial"]["value"],
             *(m["value"] for m in summary["local_maxima"])]
    assert max(peaks) <= 1.0
    assert [w.split()[0] for w in summary["warnings"]] == ["max_phase_per_output"]


def test_analytic_run_records_a_grid_that_aliases_the_gate(tmp_path):
    # paper_v1's exchange rate makes a 15 ns gate: on the default 30 us grid
    # every output turns the fastest term by 1.26e4 rad, recorded, not refused
    res = CliRunner().invoke(cli.main, ["analytic", "--preset", "paper_v1",
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    omega, dt = summary["integrator"]["Omega_rad_s"], 120e3 * 1e-6 / 4000
    assert summary["integrator"]["max_phase_per_output"] == pytest.approx(4 * abs(omega) * dt)
    assert summary["integrator"]["max_phase_per_output"] == pytest.approx(1.26e4, rel=0.01)
    assert [w.split()[0] for w in summary["warnings"]] == ["max_phase_per_output"]


def test_cli_evolve_merges_a_config_into_its_preset(tmp_path):
    # the config's params override the preset's per key; the label, the four
    # basis kets and the average over three of them come from the preset
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"params": {"Q": 1e6}, "n_steps": 101, "t_max_us": 0.1}))
    res = CliRunner().invoke(cli.main, ["evolve", "--preset", "paper_v1", "--config", str(config),
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    echo = json.loads((tmp_path / "run" / "summary.json").read_text())["config"]
    assert echo["params"] == {**PAPER_V1, "Q": 1e6}
    assert echo["label"] == "paper_v1"
    assert echo["initial"]["labels"] == ["00", "01", "10", "11"]
    assert echo["average_over"] == ["00", "01", "11"]
    assert (echo["n_steps"], echo["t_max_us"]) == (101, 0.1)


def test_cli_evolve_nb_sets_the_beam_truncation(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_steps": 101, "t_max_us": 0.1}))
    res = CliRunner().invoke(cli.main, ["evolve", "--preset", "paper_v1", "--nb", "4",
                                        "--config", str(config), "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["config"]["dims"]["n_b"] == 4
    header = (tmp_path / "run" / "trajectory.csv").read_text().split("\n", 1)[0].split(",")
    assert [c for c in header if c.startswith("leakage_")] == [
        "leakage_00", "leakage_01", "leakage_10", "leakage_11"]


def test_cli_figure_fig3_writes_its_scenario(tmp_path):
    # a figure of one scenario runs it in the figure's directory
    res = CliRunner().invoke(cli.main, ["figure", "fig3", "--out", str(tmp_path / "cli")])
    assert res.exit_code == 0, res.output
    summary = run_scenario(figure_config("fig3"), tmp_path / "direct")
    assert ((tmp_path / "cli" / "trajectory.csv").read_bytes()
            == (tmp_path / "direct" / "trajectory.csv").read_bytes())
    written = json.loads((tmp_path / "cli" / "summary.json").read_text())
    assert json.loads(res.output)["peak_fidelity"] == written["peak_fidelity"] == summary["peak_fidelity"]
