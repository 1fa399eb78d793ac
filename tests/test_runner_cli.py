import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from phonongate import cli, runner
from phonongate.duffing import duffing_hamiltonian
from phonongate.fidelity import InitialStateFamily
from phonongate.hamiltonians import PhysicalParams
from phonongate.runner import (
    PAPER_V1,
    ScenarioConfig,
    envelope_maxima,
    figure_config,
    refine_peak,
    run_scenario,
    run_sweep,
)

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


def test_config_roundtrip():
    cfg = ScenarioConfig.from_mapping(small_master_mapping())
    again = ScenarioConfig.from_mapping(cfg.to_mapping())
    assert again.params.Delta == pytest.approx(cfg.params.Delta)
    assert again.n_steps == cfg.n_steps
    assert [l for l, _ in again.initial.members] == ["00", "01", "11"]
    # members holds kets, yet configs compare by value
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
                  "Q": st.floats(min_value=0.0, max_value=1e9, exclude_min=True),
                  "P_in": st.floats(0.0, 10.0)}))
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenario_mappings())
def test_config_roundtrip_property(doc):
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
        initial=InitialStateFamily.from_labels(["00", "01", "10", "11"]),
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
        initial=InitialStateFamily.from_labels(["00"]),
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
        _, vecs = eigh(duffing_hamiltonian(omega, lam, n_b).data)
        for n in range(2):
            sign = np.sign(vecs[n, n].real)
            assert np.max(np.abs(iso[:, n] - sign * vecs[:, n])) <= 1e-12


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
    # 8 x 8 grid without its two zero-weight pole rows
    assert summary["integrator"]["n_columns"] == 6 * 8
    # Psi superposes kets of both parities, so both blocks are eigendecomposed
    assert (summary["integrator"]["n_blocks"], summary["integrator"]["support"]) == (2, 64)
    head = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert head[0].startswith("t_s,F_avg_Psi")
    first = float(head[1].split(",")[1])
    # at t = 0 the Psi-family average fidelity is the Bloch average of
    # |<psi|CNOT|psi>| (amplitude convention)
    assert 0.5 < first < 1.0


def test_sweep(tmp_path):
    cfg = ScenarioConfig.from_mapping(small_master_mapping(n_steps=101, t_max_us=0.1))
    manifest = run_sweep(cfg, "params.G_tilde_hz", [1e6, 2e6], tmp_path, jobs=1)
    assert len(manifest["runs"]) == 2
    assert (tmp_path / "manifest.json").exists()
    for entry in manifest["runs"]:
        assert (tmp_path / entry["outdir"] / "trajectory.csv").exists()


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
])
def test_cli_spectrum_refuses_non_finite_parameters(tmp_path, args, name):
    # refused by name before H is built, with no numerical warning on the way
    res = CliRunner().invoke(cli.main, ["spectrum", *args, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.stderr)["error"].startswith(f"{name} must be finite")
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("t_max_us", ["0", "-1"])
def test_cli_analytic_refuses_a_nonpositive_t_max(tmp_path, t_max_us):
    # 0 is an explicit value, not a request for the 120000 us default
    res = CliRunner().invoke(cli.main, ["analytic", "--t-max-us", t_max_us,
                                        "--out", str(tmp_path / "run")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.stderr)["error"] == "t_max_us must be positive"
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
                                         "--values", values, "--out", str(tmp_path / "sweep"),
                                         "--jobs", "1"])


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_is_refused(tmp_path, jobs):
    out = tmp_path / "out"
    for args in (["figure", "fig9"],
                 ["sweep", "--preset", "paper_v1", "--param", "params.Q", "--values", "1e6"]):
        res = CliRunner().invoke(cli.main, [*args, "--out", str(out), "--jobs", jobs])
        assert res.exit_code != 0
        assert "--jobs" in res.output
        assert not out.exists()
