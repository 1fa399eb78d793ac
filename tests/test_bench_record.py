import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

MACHINE = {"nproc": 2, "blas": "scipy-openblas", "blas_threads": 2}


def write_run(checkout, workload, seed, wall, failed=0, seconds=6.0, machine=MACHINE):
    results = checkout / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    metrics = {"wall_s": wall, "setup_s": 0.3, "state_steps_per_s": 1.0 / wall,
               "peak_rss_mb": 100.0}
    (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "machine": machine,
        "failed": failed, "attempted": 3,
        "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}))


def test_record_has_medians_quartiles_and_pair_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(1.0, 0.5), (2.0, 0.6), (3.0, 3.5), (4.0, 0.7)]):
        write_run(parent, "fig10", seed, before)
        write_run(change, "fig10", seed, after)
    write_run(change, "fig10", 9, 0.8, failed=1)  # unpaired
    # a traced run is not an end-to-end record
    (change / ".perfbench_work" / "results" / "fig10-seed0-trace1.json").write_text("{}")
    record = bench_record.build(parent, change)
    assert record["machine"] == {"nproc": 2, "blas": "scipy-openblas"}
    assert record["blas_threads"] == 2
    fig10 = record["workloads"]["fig10"]
    assert fig10["parent"]["wall_s"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert fig10["parent"]["seeds"] == [0, 1, 2, 3]
    assert fig10["change"]["runs"] == 5 and fig10["change"]["failed"] == 1
    assert fig10["change"]["wall_s"]["median"] == pytest.approx(0.7)
    assert fig10["pairs"] == 4
    # lower is better for wall_s, higher for state_steps_per_s; ties count for neither
    assert fig10["change_better_in_pairs"] == {"wall_s": 3, "setup_s": 0,
                                               "state_steps_per_s": 3, "peak_rss_mb": 0}


@pytest.mark.parametrize("odd", [{"seconds": 20.0}, {"machine": {**MACHINE, "blas_threads": 1}}])
def test_record_refuses_a_side_of_mixed_runs(tmp_path, odd):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        write_run(parent, "fig10", seed, 1.0)
        write_run(change, "fig10", seed, 0.5)
    write_run(change, "nb4", 10, 0.5, **odd)
    with pytest.raises(SystemExit, match="differ in seconds or machine") as refused:
        bench_record.build(parent, change)
    assert "nb4-seed10-trace0.json" in str(refused.value)
    assert "fig10-seed0-trace0.json" in str(refused.value)
