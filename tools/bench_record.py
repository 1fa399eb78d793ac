"""Build a per-change benchmark record from perfbench results.

    python3 tools/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT -o BENCH_<n>.json

Each checkout holds the untraced results that `perfbench/run.py` wrote under
`.perfbench_work/results/<workload>-seed<S>-trace0.json`; one file is one run,
and its metric values are already medians over that run's samples. The
record holds the machine and BLAS thread count of the runs, and per workload
and side the run count, seeds, failed and attempted samples, and the median
and quartiles over the runs of each end-to-end metric. For the seeds both
sides ran, it also counts the pairs in which the change read better.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

METRICS = {"wall_s": "lower", "setup_s": "lower", "state_steps_per_s": "higher",
           "peak_rss_mb": "lower"}


def load_runs(checkout: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result of every untraced run in a checkout. Refuses
    a checkout whose runs differ in length or machine, naming the files:
    their medians do not pool."""
    runs: dict[str, dict[int, dict]] = {}
    setups: dict[tuple, list[str]] = {}
    for path in sorted((checkout / ".perfbench_work" / "results").glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = result
        setup = (result["seconds"], json.dumps(result["machine"], sort_keys=True))
        setups.setdefault(setup, []).append(path.name)
    if len(setups) > 1:
        raise SystemExit(f"runs under {checkout} differ in seconds or machine: " + "; ".join(
            f"{seconds} s on {machine}: {', '.join(names)}"
            for (seconds, machine), names in setups.items()))
    return runs


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; all three equal for one value)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side_record(runs: dict[int, dict]) -> dict:
    results = [runs[s] for s in sorted(runs)]
    return {"runs": len(results), "seeds": sorted(runs),
            "seconds": sorted({r["seconds"] for r in results}),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            **{m: summarize([r["metrics"][m]["value"] for r in results]) for m in METRICS}}


def build(parent: Path, change: Path) -> dict:
    sides = {"parent": load_runs(parent), "change": load_runs(change)}
    first = next((r for runs in sides["change"].values() for r in runs.values()), None)
    if first is None:
        raise SystemExit(f"no untraced perfbench results under {change}")
    record = {"machine": {k: v for k, v in first["machine"].items() if k != "blas_threads"},
              "blas_threads": first["machine"]["blas_threads"], "workloads": {}}
    for workload in sorted(set(sides["parent"]) | set(sides["change"])):
        entry = {side: side_record(runs[workload])
                 for side, runs in sides.items() if workload in runs}
        paired = sorted(set(sides["parent"].get(workload, {})) & set(sides["change"].get(workload, {})))
        if paired:
            wins = {}
            for metric, better in METRICS.items():
                sign = 1.0 if better == "higher" else -1.0
                wins[metric] = sum(
                    sign * (sides["change"][workload][s]["metrics"][metric]["value"]
                            - sides["parent"][workload][s]["metrics"][metric]["value"]) > 0
                    for s in paired)
            entry["pairs"] = len(paired)
            entry["change_better_in_pairs"] = wins
        record["workloads"][workload] = entry
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("-o", "--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.write_text(json.dumps(build(args.parent, args.change), indent=2) + "\n")


if __name__ == "__main__":
    main()
