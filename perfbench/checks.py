"""Output checks applied to every sample's `trajectory.csv` and
`summary.json`. A sample with any failed check counts as failed."""
from __future__ import annotations

import csv
import json
import os

import workloads as W

REFERENCE_ROWS = 41


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def fixed_rows(n_rows: int) -> list[int]:
    """REFERENCE_ROWS evenly spaced row indices, first and last included."""
    return sorted({round(k * (n_rows - 1) / (REFERENCE_ROWS - 1)) for k in range(REFERENCE_ROWS)})


def reference_entry(header, rows) -> dict:
    """The rows of one output stored as the reference for later samples."""
    idx = fixed_rows(len(rows))
    return {"rows": idx, "columns": {name: [rows[i][j] for i in idx] for j, name in enumerate(header)}}


def check_reference(header, rows, ref: dict | None, tol: float = W.REFERENCE_TOL) -> list[str]:
    if ref is None:
        return ["no stored reference for this workload variant"]
    if sorted(header) != sorted(ref["columns"]):
        return [f"columns {header} differ from the reference {sorted(ref['columns'])}"]
    failures = []
    for j, name in enumerate(header):
        worst = max(abs(rows[i][j] - v) for i, v in zip(ref["rows"], ref["columns"][name]))
        if not worst <= tol:
            failures.append(f"{name} deviates from the reference by {worst:.3g} > {tol:g}")
    return failures


def _near(t_us: float, targets, tol: float) -> bool:
    return min(abs(t_us - t) for t in targets) <= tol


def check_fig3(header, rows, summary) -> list[str]:
    spec = W.FIG3_PEAK
    failures = []
    j = header.index("F_avg")
    late = [(r[j], r[0] * 1e6) for r in rows if r[0] * 1e6 >= spec["after_us"]]
    peaks = {"sampled": max(late),
             "summary": (summary["peak_after_initial"]["value"], summary["peak_after_initial"]["t_us"])}
    for kind, (value, t_us) in peaks.items():
        if abs(value - spec["target"]) > spec["tol"] or not _near(t_us, spec["times_us"], spec["time_tol_us"]):
            failures.append(f"fig3 {kind} F_avg peak {value:.4f} at {t_us:.3f} us is off the published peaks")
    return failures


def check_fig10(summary) -> list[str]:
    found = [m["t_us"] for m in summary["local_maxima"]]
    return [f"fig10 has no maximum within {W.FIG10_TIME_TOL_US} us of {t} us"
            for t in W.FIG10_MAXIMA_US if not found or not _near(t, found, W.FIG10_TIME_TOL_US)]


def check_output(workload: str, outdir, ref: dict | None) -> list[str]:
    """Every check for one sample; returns the failures (empty when correct)."""
    try:
        header, rows = read_csv(os.path.join(outdir, "trajectory.csv"))
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    try:
        return _check(workload, header, rows, summary, ref)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def _check(workload, header, rows, summary, ref) -> list[str]:
    n_steps = W.WORKLOADS[workload]["sizes"]["n_steps"]
    if len(rows) != n_steps:
        return [f"{len(rows)} rows, expected {n_steps}"]
    failures = check_reference(header, rows, ref)
    drift = summary["integrator"]["max_trace_drift"]
    if not drift <= W.MAX_TRACE_DRIFT:
        failures.append(f"max_trace_drift {drift:.3g} > {W.MAX_TRACE_DRIFT:g}")
    if workload == "fig3":
        failures += check_fig3(header, rows, summary)
    elif workload == "fig10":
        failures += check_fig10(summary)
    return failures


def summary_facts(outdir) -> dict:
    """Sizes and health figures that summary.json reports."""
    try:
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
        cfg = summary["config"]
        return {"n_cav": cfg["dims"]["n_cav"], "n_b": cfg["dims"]["n_b"], "n_steps": cfg["n_steps"],
                "max_trace_drift": summary["integrator"]["max_trace_drift"],
                "leakage_max": summary["leakage_max"]}
    except (OSError, ValueError, KeyError, TypeError):
        return {}
