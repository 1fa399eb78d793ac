"""Count the code lines of the package, ROADMAP aim 2's measure of its size.

    python3 tools/src_lines.py [REV]

Counts the lines of `src/phonongate/*.py` that hold code: blank lines,
comment-only lines and docstrings (the string that opens a module, class or
function body) do not count. Without REV it reads the work tree; with a git
revision it reads the files as committed there.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/phonongate"


def code_lines(source: str) -> int:
    """Lines of one module's source that are not blank, comment-only or docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def sources(root: Path, rev: str | None) -> dict[str, str]:
    """path -> source of every package module, in the work tree or at a git revision."""
    if rev is None:
        return {str(p.relative_to(root)): p.read_text()
                for p in sorted((root / PACKAGE).glob("*.py"))}
    git = ["git", "-C", str(root)]
    names = subprocess.run(git + ["ls-tree", "--name-only", rev, PACKAGE + "/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {name: subprocess.run(git + ["show", f"{rev}:{name}"], capture_output=True,
                                 text=True, check=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default=None, help="git revision (default: work tree)")
    args = parser.parse_args(argv)
    print(sum(code_lines(src) for src in sources(ROOT, args.rev).values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
