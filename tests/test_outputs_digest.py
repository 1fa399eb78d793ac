import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"
_SPEC = importlib.util.spec_from_file_location("outputs_digest", _PATH)
outputs_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs_digest)

# a subset of the list: a figure, the analytic curves, a master run of 2001
# steps, a two-run sweep and a spectrum
FAST = ("fig2", "analytic", "nb4", "sweep", "spectrum")


def test_two_runs_agree_and_a_changed_byte_changes_the_digest(tmp_path):
    for name in ("a", "b"):
        outputs_digest.run(FAST, tmp_path / name)
    first, second = (outputs_digest.tree_digest(tmp_path / name / "out") for name in ("a", "b"))
    assert first == second
    paths = [line.split(" ")[0] for line in first]
    for name in FAST:
        assert any(path.startswith(f"{name}/") for path in paths)
    assert "sweep/manifest.json" in paths and "nb4/summary.json" in paths

    # a CSV counts byte for byte
    csv = tmp_path / "b" / "out" / "nb4" / "trajectory.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1
    csv.write_bytes(bytes(data))
    # a JSON file counts key for key, in order, bar what the run measures of itself
    summary = tmp_path / "b" / "out" / "analytic" / "summary.json"
    doc = json.loads(summary.read_text())
    before = outputs_digest.file_digest(summary)
    doc["runtime_s"], doc["timings_s"] = -1.0, {}
    summary.write_text(json.dumps(doc, indent=1))
    assert outputs_digest.file_digest(summary) == before
    summary.write_text(json.dumps(dict(reversed(doc.items()))))
    assert outputs_digest.file_digest(summary) != before

    changed = {path for path, line, old in zip(paths, outputs_digest.tree_digest(
        tmp_path / "b" / "out"), first) if line != old}
    assert changed == {"nb4/trajectory.csv", "analytic/summary.json"}


def test_a_package_from_outside_src_is_refused(tmp_path, monkeypatch, capsys):
    # the tree's own phonongate, already imported, is not under tmp_path: the
    # tool would digest the wrong tree, so it exits before running a command
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exit_:
        outputs_digest.main(["--src", str(tmp_path)])
    assert exit_.value.code == 2
    assert f"not from under {tmp_path.resolve()}" in capsys.readouterr().err
