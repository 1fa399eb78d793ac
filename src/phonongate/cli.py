"""Command-line interface: spectra, gate checks, analytic curves,
master-equation runs, figure data and parameter sweeps, all emitted as CSV
plus a JSON summary.

Output root defaults to $PHONONGATE_OUTDIR, falling back to ./phonongate_out.
"""
from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import runner
from .duffing import duffing_spectrum
from .dynamics import IntegrationError
from .files import write_csv
from .gates import cnot_sequence, exchange_unitary, ideal_cnot, phase_aligned_distance
from .hamiltonians import exchange_rate
from .runner import PAPER_VA_XG_SQ, PRESETS, ScenarioConfig


def _default_out() -> str:
    return os.environ.get("PHONONGATE_OUTDIR", "phonongate_out")


def _scenario_from_sources(config_path, preset, flags: dict, defaults=None) -> ScenarioConfig:
    """Parse a command's scenario, once, from one document: its JSON config,
    or without one the command's `defaults` document; under it a preset's
    parameters (and, where the document has no `initial`, the four basis kets
    averaged over 00, 01 and 11); over both the command's `flags`, dotted
    config keys set where they are not None."""
    if config_path is None and preset is None and defaults is None:
        raise ValueError("need --config and/or --preset")
    doc = dict(defaults or {})
    if config_path:
        with open(config_path) as fh:
            doc = json.load(fh)
    if preset:
        if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
            raise ValueError("a config and its params must be JSON objects")
        doc["params"] = {**PRESETS[preset], **doc.get("params", {})}
        doc.setdefault("label", preset)
        if "initial" not in doc:
            doc["initial"] = {"kind": "fixed-list", "labels": ["00", "01", "10", "11"]}
            doc.setdefault("average_over", ["00", "01", "11"])
    return ScenarioConfig.from_mapping(doc, {key: v for key, v in flags.items() if v is not None})


class _Main(click.Group):
    """Reports a rejected config or input, or a run a numerical gate refused,
    from any command, as one JSON error line on stderr and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, IntegrationError) as exc:
            click.echo(json.dumps({"error": str(exc)}), err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Phononic CNOT gate simulator."""


@main.command()
@click.option("--omega-g-hz", type=float, default=28.6e6, show_default=True,
              help="Beam frequency (Hz).")
@click.option("--lambda-hz", "lambda_hz", type=float, default=209e3, show_default=True,
              help="Duffing rate (Hz).")
@click.option("--dim", type=int, default=16, show_default=True)
@click.option("--dim-trust", type=int, default=4, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
def spectrum(omega_g_hz, lambda_hz, dim, dim_trust, out):
    """Dump beam eigenenergies, transition frequencies and X matrix elements."""
    spec = duffing_spectrum(2 * np.pi * omega_g_hz, 2 * np.pi * lambda_hz, dim, dim_trust)
    outdir = out or os.path.join(_default_out(), "spectrum")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "spectrum.csv")
    write_csv(path, ["n", "E_rad_s", "delta_n0_rad_s"] + [f"X_n{m}" for m in range(dim_trust)],
              [np.arange(dim), spec.energies, spec.energies - spec.energies[0],
               *spec.X[:, :dim_trust].real.T])
    click.echo(f"wrote {path}")


@main.command()
@click.option("--g-hz", type=float, default=21e3, show_default=True)
@click.option("--omega-hz", type=float, default=36.6e6, show_default=True)
@click.option("--delta-hz", type=float, default=49.9e6, show_default=True)
@click.option("--xg2", type=float, default=PAPER_VA_XG_SQ, show_default=True,
              help="Squared qubit deflection element X_G^2.")
def gatecheck(g_hz, omega_hz, delta_hz, xg2):
    """Print the exchange rate, the ISWAP check, and the CNOT-sequence distance."""
    delta, omega_g, g = (2 * np.pi * v for v in (delta_hz, omega_hz, g_hz))
    rate = exchange_rate(delta, omega_g, g, xg2)
    if not 0 < rate < np.inf:  # t_gate = pi/(2 Omega) is a time
        raise ValueError("gatecheck needs a finite nonzero exchange rate from Delta, g and X_G^2, "
                         f"and a positive one to time the gate by pi/(2 Omega), got Omega = {rate:g}")
    t_gate = np.pi / (2 * rate)
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    d_iswap = phase_aligned_distance(exchange_unitary(rate, t_gate), iswap)
    d_cnot = phase_aligned_distance(cnot_sequence(rate, t_gate), ideal_cnot())
    click.echo(f"Omega = {rate:.6g} rad/s")
    click.echo(f"t_gate = pi/(2 Omega) = {t_gate:.6g} s")
    click.echo(f"d(U_G(t_gate), ISWAP) = {d_iswap:.3e}")
    click.echo(f"d(U_Gate(t_gate), CNOT) = {d_cnot:.3e}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None,
              help="Parameter set under a config's params.  [default without a config: paper_va]")
@click.option("--out", type=click.Path(), default=None)
@click.option("--t-max-us", type=float, default=None)
def analytic(config_path, preset, out, t_max_us):
    """Closed-form gate-fidelity curves for the analytic parameter set."""
    outdir = out or os.path.join(_default_out(), "analytic")
    cfg = _scenario_from_sources(config_path, preset if config_path else preset or "paper_va",
                                 {"t_max_us": t_max_us}, runner.ANALYTIC_DEFAULTS)
    if cfg.mode != "analytic":
        raise ValueError(f"analytic needs a config with mode 'analytic', got {cfg.mode!r}")
    summary = runner.run_scenario(cfg, outdir)
    click.echo(json.dumps({"peak_fidelity": summary["peak_fidelity"],
                           "peak_time_s": summary["peak_time_s"],
                           "outdir": str(outdir)}))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None,
              help="Base parameter set; config values override per key.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--fixed-step", is_flag=True,
              help="Deterministic fixed-step integrator (master runs only).")
@click.option("--nb", type=int, default=None,
              help="Beam truncation dims.n_b, 2 or >= 4 (master runs only).")
def evolve(config_path, preset, out, fixed_step, nb):
    """Run one scenario from a JSON config and/or preset, in its mode: a
    master-equation run, or the closed-form curves of an analytic config."""
    cfg = _scenario_from_sources(config_path, preset, {"integrator": "rk4" if fixed_step else None,
                                                       "dims.n_b": nb})
    outdir = out or os.path.join(_default_out(), cfg.label)
    summary = runner.run_scenario(cfg, outdir)
    click.echo(json.dumps({"peak_fidelity": summary["peak_fidelity"],
                           "peak_time_us": summary["peak_time_us"],
                           "outdir": str(outdir)}))


@main.command()
@click.argument("fig_id", type=click.Choice(["fig2", *runner.FIGURES]))
@click.option("--out", type=click.Path(), default=None)
@click.option("--fixed-step", is_flag=True, help="Deterministic fixed-step integrator.")
@click.option("--nb", type=int, default=None, help="Beam truncation dims.n_b, 2 or >= 4.")
@click.option("--bloch-grid", type=int, default=None,
              help="Angular points per axis of fig9's and fig10's Bloch grid.")
def figure(fig_id, out, fixed_step, nb, bloch_grid):
    """Emit the CSV data behind one published figure. Each flag given sets a
    config key of the figure's scenarios, which refuse one they do not read."""
    outdir = out or os.path.join(_default_out(), fig_id)
    flags = {"integrator": "rk4" if fixed_step else None, "dims.n_b": nb,
             "initial.grid": None if bloch_grid is None else [bloch_grid, bloch_grid]}
    summary = runner.run_figure(fig_id, outdir, {key: v for key, v in flags.items() if v is not None})
    runs = summary.get("runs")  # a figure of several runs echoes each run's peaks by label
    peaks = ({key: {label: run[key] for label, run in runs.items()}
              for key in ("peak_fidelity", "peak_after_initial")} if runs
             else {"peak_fidelity": summary["peak_fidelity"]})
    click.echo(json.dumps({"figure": fig_id, "outdir": str(outdir), **peaks}))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--param", required=True, help="Dotted config key, e.g. params.g_G_hz.")
@click.option("--values", required=True, help="Comma-separated numeric values.")
@click.option("--out", type=click.Path(), default=None)
def sweep(config_path, preset, param, values, out):
    """Re-run one scenario while varying a single named parameter."""
    cfg = _scenario_from_sources(config_path, preset, {})
    vals = [float(v) for v in values.split(",") if v.strip()]
    if not vals:
        raise ValueError("no sweep values given")
    outdir = out or os.path.join(_default_out(), f"sweep_{param.replace('.', '_')}")
    runner.run_sweep(cfg, param, vals, outdir)
    click.echo(json.dumps({"param": param, "n_runs": len(vals), "outdir": str(outdir)}))


if __name__ == "__main__":
    main()
