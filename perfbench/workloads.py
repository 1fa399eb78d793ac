"""The benchmark's workloads: three published user jobs run through the
`phonongate` command line, with the reason each was chosen.

A workload's inputs are fixed published configurations. The seed picks one
of `N_VARIANTS` parameter variants: variant 0 is the literal published
command, and variants 1.. jitter the loss parameters (cavity decay kappa,
mechanical Q, temperature T) by at most `JITTER` relative, through
`evolve --config` with the same figure conventions. The couplings stay
fixed: the fig3 fidelity lobes differ by less than 1 %, so jittering them
would move the highest lobe off the published peak times. Sizes (d, states,
steps) never change with the seed, so every seed does the same work. `reference.json` holds fixed output rows
for every variant, so the 1e-10 output check applies to every seed.
"""
from __future__ import annotations

import copy
import random

N_VARIANTS = 8
JITTER = 0.1
JITTERED_PARAMS = ("kappa_hz", "Q", "T")

# paper_v1 parameters (Hz), as in `phonongate.runner.PAPER_V1`
_PAPER_V1 = {
    "Delta_hz": 28e6, "g_G_hz": 9e6, "G_tilde_hz": 2e6, "omega_G_hz": 28.6e6,
    "lambda_hz": 209e3, "kappa_hz": 523.0, "eps_L_hz": 9.34e5, "Q": 5e6, "T": 3e-3,
}

# `figure fig3` / `figure fig10` written out as `evolve --config` documents:
# bare cavity quadrature, n_cav = 2, n_b = 2, amplitude fidelity
_FIGURE_BASE = {
    "params": _PAPER_V1, "dims": {"n_cav": 2, "n_b": 2}, "t_max_us": 10.0,
    "n_steps": 20001, "mode": "master", "outputs": ["fidelity"],
    "quadrature_convention": "bare", "fidelity_convention": "amplitude",
    "integrator": "expm",
}

# PEAK_SPECS of acceptance criterion 8 (fig3) and the published fig10 maxima
FIG3_PEAK = {"target": 0.88, "tol": 0.06, "times_us": (0.6, 4.84, 6.04), "time_tol_us": 0.3,
             "after_us": 0.3}
FIG10_MAXIMA_US = (1.38, 2.86, 4.24)
FIG10_TIME_TOL_US = 0.3
MAX_TRACE_DRIFT = 1e-6
REFERENCE_TOL = 1e-10


WORKLOADS = {
    "fig3": {
        "cli": ["figure", "fig3"],
        "config": {**_FIGURE_BASE, "label": "fig3",
                   "initial": {"kind": "fixed-list", "cavity_fock": 1,
                               "labels": ["00", "01", "10", "11"]},
                   "average_over": ["00", "01", "11"]},
        "sizes": {"n_cav": 2, "n_b": 2, "n_states": 4, "n_steps": 20001},
        "min_samples": 1,
        "why": "tiny generator (d2=64), 20001 steps, 4 states: the per-step loop, "
               "contraction and CSV writing dominate; Liouvillian and expm are bypassed",
    },
    "fig10": {
        "cli": ["figure", "fig10"],
        "config": {**_FIGURE_BASE, "label": "fig10",
                   "initial": {"kind": "schmidt-entangled", "cavity_fock": 1,
                               "family": "Psi", "grid": [16, 16]}},
        # 16x16 Bloch grid; the two pole rows carry zero weight
        "sizes": {"n_cav": 2, "n_b": 2, "n_states": 224, "n_steps": 20001},
        # a sample takes about as long as a 20-second run, so without this
        # floor a run holds one or two samples depending on the machine's load
        "min_samples": 2,
        "why": "fig3's generator with a 56x wider batch of 224 Bloch states: stepping "
               "and per-state work grow; the only user of Bloch averaging",
    },
    "nb4": {
        "cli": ["evolve", "--preset", "paper_v1", "--nb", "4"],
        "config": {"n_steps": 2001},
        "sizes": {"n_cav": 3, "n_b": 4, "n_states": 4, "n_steps": 2001},
        "min_samples": 1,
        "why": "n_b=4, n_cav=3 (d2=2304): Liouvillian, expm and memory-bound stepping "
               "on an 85 MB propagator dominate; per-step Python overhead does not",
    },
}


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def jitter(variant_id: int) -> dict[str, float]:
    """Relative factors for the jittered parameters of a variant >= 1."""
    rng = random.Random(variant_id)
    return {name: 1.0 + rng.uniform(-JITTER, JITTER) for name in JITTERED_PARAMS}


def command(name: str, variant_id: int) -> tuple[list[str], dict | None]:
    """CLI arguments (before --out) and the --config document, if any."""
    spec = WORKLOADS[name]
    if variant_id == 0 and name != "nb4":
        return list(spec["cli"]), None
    doc = copy.deepcopy(spec["config"])
    if variant_id:
        params = doc.setdefault("params", {})
        for key, f in jitter(variant_id).items():
            params[key] = _PAPER_V1[key] * f
    return (list(spec["cli"]) if name == "nb4" else ["evolve"]), doc
