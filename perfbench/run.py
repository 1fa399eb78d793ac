"""Benchmark of the `phonongate` command line on published user jobs.

    python3 perfbench/run.py --workload fig3 --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Every sample is one CLI call in a fresh process with a
fresh output directory, so no in-memory cache carries over, as between real
CLI calls. The load is a closed loop: one client runs one job at a time,
with no process pool and BLAS at its default thread count. Samples run
until `--seconds` have passed and the workload's `min_samples` are taken.
Each run first launches the interpreter `SETUP_LAUNCHES` times to import the
CLI only, after one uncounted warm-up launch.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced samples and reports per-layer metrics from the traced ones (see
layers.py), plus the tracing overhead. Every sample's output is checked
(checks.py); a sample that fails a check, raises or exits non-zero counts in
`failed`. Human-readable lines come first; the last line of standard output
is the JSON result. Work files go to `.perfbench_work/` in the checkout;
sample directories are deleted after their check, and the full result,
spans included, is kept under `.perfbench_work/results/`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import layers
import machine
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SETUP_LAUNCHES = 5
RUN_BUDGET_S = 160.0  # start no sample that would end a run later than this
KILL_AFTER_S = 170.0  # a sample still running then is killed and counts as failed


class Bench:
    """Launches samples of one workload variant and checks their outputs."""

    def __init__(self, workload: str, seed: int, deadline: float = float("inf")):
        self.workload = workload
        self.deadline = deadline
        self.variant = W.variant(seed)
        self.cli, self.doc = W.command(workload, self.variant)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = refs.get(workload, {}).get(str(self.variant))

    def launch(self, mode: str, on_output=None) -> dict:
        """One fresh process: `setup`, `plain` or `trace` (see sample.py).
        `on_output(outdir)` may read the CLI's output before it is deleted."""
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK))
        try:
            args = []
            if mode != "setup":
                args = self.cli + ["--out", str(tmp / "out")]
                if self.doc is not None:
                    (tmp / "config.json").write_text(json.dumps(self.doc))
                    args += ["--config", str(tmp / "config.json")]
            result_path = tmp / "result.json"
            with open(tmp / "log.txt", "w") as log:
                launched = time.monotonic()
                try:
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "sample.py"), str(result_path), repr(launched),
                         mode, *args],
                        env=self.env, cwd=tmp, stdout=log, stderr=subprocess.STDOUT,
                        timeout=max(1.0, self.deadline - time.monotonic()))
                    code = proc.returncode
                except subprocess.TimeoutExpired:
                    code = None
            result = json.loads(result_path.read_text()) if result_path.exists() else {}
            failures = []
            if code != 0:
                tail = (tmp / "log.txt").read_text()[-400:].strip()
                failures.append("killed at the run's deadline" if code is None
                                else f"exit code {code}: {result.get('error') or tail}")
            elif not result.get("module", "").startswith(str(SRC)):
                failures.append(f"phonongate imported from {result.get('module')}, not {SRC}")
            elif mode != "setup":
                failures += checks.check_output(self.workload, tmp / "out", self.reference)
                result["summary"] = checks.summary_facts(tmp / "out")
                if on_output is not None:
                    on_output(tmp / "out")
            result["failures"] = failures
            return result
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, setups: list[dict], plain: list[dict]) -> dict:
    sizes = W.WORKLOADS[workload]["sizes"]
    ok = [s for s in plain if not s["failures"]]
    wall = _median([s["wall_s"] for s in ok])
    setup = _median([s["setup_s"] for s in setups + plain if "setup_s" in s])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "state_steps_per_s": (sizes["n_states"] * sizes["n_steps"] / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (_median([s["rss_kib"] * 1024 / 1e6 for s in ok]), "MB"),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    ok = [s for s in traced if not s["failures"]]
    values = layers.median_layers([layers.sample_layers(s["spans"], s["counts"]) for s in ok]
                                  or [layers.sample_layers([], {})])
    traced_wall = _median([s["wall_s"] for s in ok])
    plain_wall = _median([s["wall_s"] for s in plain if not s["failures"]])
    out = {k: (v, _unit(k)) for k, v in values.items()}
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    facts = ok[0]["summary"] if ok else {}
    d = facts.get("n_cav", 0) * facts.get("n_b", 0) ** 2
    sizes = {"d": d, "d2": d * d, "n_states": W.WORKLOADS[workload]["sizes"]["n_states"],
             "n_steps": facts.get("n_steps", 0)}
    out.update({f"sizes.{k}": (v, "count") for k, v in sizes.items()})
    out["health.max_trace_drift"] = (facts.get("max_trace_drift", 0.0), "ratio")
    out["health.leakage_max"] = (facts.get("leakage_max", 0.0), "ratio")
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_gbps"):
        return "GB/s"
    return "count"


def _report(name: str, metrics: dict, samples: dict, failed: int, attempted: int, host: dict,
            args) -> None:
    plain = [s for s in samples["plain"] if not s["failures"]]
    walls = sorted(s["wall_s"] for s in plain)
    print(f"perfbench {name}: seed {args.seed} (variant {W.variant(args.seed)}), "
          f"trace {args.trace}, {args.seconds:g} s of samples")
    print(f"  why: {W.WORKLOADS[name]['why']}")
    print(f"  machine: {json.dumps(host)}")
    print(f"  sizes: {json.dumps(W.WORKLOADS[name]['sizes'])}")
    for mode, runs in samples.items():
        for i, s in enumerate(runs):
            status = "ok" if not s["failures"] else "FAILED: " + "; ".join(s["failures"])
            print(f"  {mode} sample {i}: wall {s.get('wall_s', float('nan')):.4f} s, "
                  f"setup {s.get('setup_s', float('nan')):.4f} s, "
                  f"rss {s.get('rss_kib', 0) / 1024:.1f} MiB, {status}")
    if walls:
        # no percentile above the median has ten samples beyond it under 20
        # samples, so the tail is the maximum
        print(f"  wall_s over {len(walls)} samples: median {statistics.median(walls):.4f} s, "
              f"tail (max) {walls[-1]:.4f} s")
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} samples)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    if args.trace:
        wall = metrics["trace.wall_s"][0]
        shares = sorted(((v / wall, k) for k, (v, u) in metrics.items()
                         if u == "s" and not k.startswith("trace.") and wall), reverse=True)
        print("  self time as a share of traced wall_s: "
              + ", ".join(f"{k} {share:.1%}" for share, k in shares if share >= 0.005))
        absent = sorted({a for s in samples["trace"] for a in s.get("absent", ())})
        print(f"  absent trace targets: {absent or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phonongate" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'phonongate'}; run inside a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, started + KILL_AFTER_S)

    bench.launch("setup")  # warm-up: bytecode and file cache, not counted
    setups = [bench.launch("setup") for _ in range(SETUP_LAUNCHES)]
    broken = [f for s in setups for f in s["failures"]]
    if broken:
        print(f"perfbench: the CLI does not import: {broken[0]}", file=sys.stderr)
        return 1

    modes = ("plain", "trace") if args.trace else ("plain",)
    samples: dict[str, list[dict]] = {m: [] for m in modes}
    min_samples = W.WORKLOADS[args.workload]["min_samples"]
    measured = time.monotonic()
    while True:
        cycle = time.monotonic()
        for m in modes:
            samples[m].append(bench.launch(m))
        now = time.monotonic()
        done = now - measured >= args.seconds and len(samples["plain"]) >= min_samples
        if done or now + (now - cycle) > started + RUN_BUDGET_S:
            break

    if args.trace:
        metrics = per_layer(args.workload, samples["plain"], samples["trace"])
    else:
        metrics = end_to_end(args.workload, setups, samples["plain"])
    host = {**machine.host(), **next((s["runtime"] for s in setups if "runtime" in s), {})}
    attempted = sum(len(v) for v in samples.values())
    failed = sum(1 for v in samples.values() for s in v if s["failures"])
    _report(args.workload, metrics, samples, failed, attempted, host, args)

    record = {
        "workload": args.workload, "seed": args.seed, "variant": bench.variant,
        "trace": args.trace, "seconds": args.seconds, "machine": host,
        "sizes": W.WORKLOADS[args.workload]["sizes"], "attempted": attempted, "failed": failed,
        "setup_launches": [s["setup_s"] for s in setups],
        "samples": {m: [{k: v for k, v in s.items() if k not in ("spans", "counts")} for s in runs]
                    for m, runs in samples.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [[i, *span] for i, s in enumerate(samples["trace"]) for span in s.get("spans", ())]
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["sample", "id", "parent", "name", "start", "end"], "spans": spans}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
