"""Regenerate reference.json: fixed output rows of every workload variant.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on a program whose outputs are trusted; a later, faster program
must then match these rows to 1e-10 (workloads.REFERENCE_TOL). The other
checks (published peaks, trace drift) must already pass.
"""
from __future__ import annotations

import json
import sys

import checks
import run
import workloads as W


def main(names) -> int:
    run.WORK.mkdir(exist_ok=True)
    refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in names or sorted(W.WORKLOADS):
        for variant in range(W.N_VARIANTS):
            bench = run.Bench(name, variant)
            bench.reference = None
            entries = []
            result = bench.launch("plain", lambda out: entries.append(
                checks.reference_entry(*checks.read_csv(out / "trajectory.csv"))))
            failures = [f for f in result["failures"] if "no stored reference" not in f]
            if failures or not entries:
                print(f"{name} variant {variant}: {failures}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(variant)] = entries[0]
            print(f"{name} variant {variant}: wall {result['wall_s']:.2f} s", flush=True)
            run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
