"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import layers
import workloads as W

HERE = Path(__file__).resolve().parent


def _write_output(outdir: Path, header, rows, drift=1e-13) -> None:
    outdir.mkdir()
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in r) for r in rows]
    (outdir / "trajectory.csv").write_text("\n".join(lines) + "\n")
    (outdir / "summary.json").write_text(json.dumps(
        {"integrator": {"max_trace_drift": drift}, "leakage_max": 0.5,
         "config": {"dims": {"n_cav": 3, "n_b": 4}, "n_steps": len(rows)}}))


def _nb4_like_rows():
    n = W.WORKLOADS["nb4"]["sizes"]["n_steps"]
    header = ["t_s", "F_00", "F_avg", "leakage_00"]
    rows = [[k * 5e-9, 0.5 + 0.4 * math.cos(k / 50), 0.6, 1e-3 * k / n] for k in range(n)]
    return header, rows


def test_fidelity_off_by_1e9_counts_as_failed(tmp_path):
    header, rows = _nb4_like_rows()
    ref = checks.reference_entry(header, rows)
    _write_output(tmp_path / "good", header, rows)
    assert checks.check_output("nb4", tmp_path / "good", ref) == []

    bad = [list(r) for r in rows]
    bad[ref["rows"][7]][1] += 1e-9
    _write_output(tmp_path / "bad", header, bad)
    failures = checks.check_output("nb4", tmp_path / "bad", ref)
    assert len(failures) == 1 and failures[0].startswith("F_00 deviates")


def test_trace_drift_and_missing_reference_fail(tmp_path):
    header, rows = _nb4_like_rows()
    _write_output(tmp_path / "out", header, rows, drift=2e-6)
    failures = checks.check_output("nb4", tmp_path / "out", None)
    assert any("no stored reference" in f for f in failures)
    assert any("max_trace_drift" in f for f in failures)


def test_self_time_is_duration_minus_children():
    spans = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "b", 1.0, 3.0],
        [2, 0, "c", 4.0, 8.0],
        [3, 2, "b", 5.0, 6.0],
    ]
    own = layers.self_times(spans)
    assert own == {"root": 10.0 - 2.0 - 4.0, "b": 2.0 + 1.0, "c": 4.0 - 1.0}
    assert sum(own.values()) == 10.0


def test_tracer_records_nesting_and_counts():
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        after=lambda args, result: tracer.add("calls", 1))
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [(s[2], s[1]) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert tracer.counts == {"calls": 2}
    assert all(s[3] <= s[4] for s in tracer.spans)


def test_install_reports_absent_targets(monkeypatch):
    monkeypatch.setattr(math, "sqrt", math.sqrt)  # restored after the test
    monkeypatch.setattr(layers, "TARGETS", {
        "math.sqrt": ["math:sqrt"],
        "math.gone": ["math:no_such_function"],
        "nowhere.f": ["no_such_module_here:f"],
    })
    tracer = layers.Tracer()
    absent = layers.install(tracer)
    assert absent == ["math:no_such_function", "no_such_module_here:f"]
    assert math.sqrt(4.0) == 2.0
    assert [s[2] for s in tracer.spans] == ["math.sqrt"]


def test_seed_picks_a_fixed_input_variant():
    assert W.command("fig3", 0) == (["figure", "fig3"], None)
    assert W.command("nb4", 0)[1] == {"n_steps": 2001}
    for name in W.WORKLOADS:
        for seed in (1, 5, 13):
            assert W.command(name, W.variant(seed)) == W.command(name, W.variant(seed))
            args, doc = W.command(name, W.variant(seed))
            for key in W.JITTERED_PARAMS:
                assert abs(doc["params"][key] / W._PAPER_V1[key] - 1.0) <= W.JITTER
    assert W.command("fig3", 1) != W.command("fig3", 2)


def test_reference_covers_every_variant():
    refs = json.loads((HERE / "reference.json").read_text())
    for name in W.WORKLOADS:
        assert sorted(refs[name], key=int) == [str(v) for v in range(W.N_VARIANTS)]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
