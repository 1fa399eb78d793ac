"""Digest what a fixed list of `phonongate` commands writes, to compare two trees.

    python3 tools/outputs_digest.py [--src DIR]

Runs each command of `COMMANDS` in process, through the command line, into a
temporary directory, and prints one line per output file: its path under
that directory and the SHA-256 of its bytes. A JSON file is digested as it
parses, with the run's measured `runtime_s` and `timings_s` dropped and the
key order kept. So two trees that print the same lines wrote every CSV byte
for byte and every `summary.json` and `manifest.json` key for key:

    python3 tools/outputs_digest.py --src OLD/src > old.txt
    python3 tools/outputs_digest.py > new.txt && diff old.txt new.txt

`--src` names the package source to import (default: this tree's `src`); the
tool refuses to run a `phonongate` imported from anywhere else. The whole
list takes a few seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# dropped from every JSON file: what a run measures of itself
MEASURED = ("runtime_s", "timings_s")
SHORT_RUN = {"n_steps": 2001}

# name -> (command-line arguments before --out, the --config document or None)
COMMANDS = {
    **{fig: (["figure", fig], None) for fig in
       ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")},
    "fig3_fixed_step": (["figure", "fig3", "--fixed-step"], None),
    "fig3_nb4": (["figure", "fig3", "--nb", "4"], None),
    # rk4's rates past n_b = 2
    "fig3_nb4_fixed_step": (["figure", "fig3", "--nb", "4", "--fixed-step"], None),
    "fig9_grid8": (["figure", "fig9", "--bloch-grid", "8"], None),
    "nb4": (["evolve", "--preset", "paper_v1", "--nb", "4"], SHORT_RUN),
    # the one family whose span reaches 16 columns and 17 rows
    "separable_grid8": (["evolve", "--preset", "paper_v1"],
                        {**SHORT_RUN, "initial": {"kind": "separable-product", "grid": [8, 8]}}),
    "analytic": (["analytic"], None),
    "analytic_paper_v1": (["analytic", "--preset", "paper_v1"], None),
    "sweep": (["sweep", "--preset", "paper_v1", "--param", "params.g_G_hz",
               "--values", "21e3,25e3"], SHORT_RUN),
    "spectrum": (["spectrum"], None),
}


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes, or of a JSON file's document without `MEASURED`."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        if isinstance(doc, dict):
            doc = {key: v for key, v in doc.items() if key not in MEASURED}
        data = json.dumps(doc).encode()
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> list[str]:
    """'path sha256' of every file under root, by path."""
    return [f"{path.relative_to(root).as_posix()} {file_digest(path)}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def run(names, workdir: Path) -> None:
    """Run each named command into workdir/out/<name>, its config in workdir/configs."""
    from click.testing import CliRunner

    from phonongate import cli  # imported here, once `main` has put --src first on sys.path

    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    for name in names:
        args, config = COMMANDS[name]
        if config is not None:
            path = workdir / "configs" / f"{name}.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", str(path)]
        res = CliRunner().invoke(cli.main, [*args, "--out", str(workdir / "out" / name)])
        if res.exit_code != 0:
            raise RuntimeError(f"{name}: {' '.join(args)} exited {res.exit_code}: {res.output}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the phonongate package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import phonongate

    src = Path(args.src).resolve()
    if src not in Path(phonongate.__file__).resolve().parents:
        parser.error(f"phonongate was imported from {phonongate.__file__}, not from under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        run(COMMANDS, Path(tmp))
        print("\n".join(tree_digest(Path(tmp) / "out")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
