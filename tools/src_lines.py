"""Count the code lines of the package, ROADMAP aim 2's measure of its size.

    python3 tools/src_lines.py [REV] [--by-module] [--unreached]

Counts the lines of `src/phonongate/*.py` that hold code: blank lines,
comment-only lines and docstrings (the string that opens a module, class or
function body) do not count. Without REV it reads the work tree; with a git
revision it reads the files as committed there. With --by-module it also
prints each module's code lines (`by_module`). With --unreached it also
lists, with their code lines, the top-level definitions no command reaches
(`unreached`).
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


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def code_lines(source: str) -> int:
    """Lines of one module's source that are not blank, comment-only or docstring."""
    return len(_code_line_numbers(source))


def _code_line_numbers(source: str) -> set[int]:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if first is not None and _is_docstring(first):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


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


def by_module(srcs: dict[str, str]) -> dict[str, int]:
    """module name -> its code lines, for every module of `sources`."""
    return {Path(path).stem: code_lines(source) for path, source in srcs.items()}


def unreached(srcs: dict[str, str]) -> dict[str, int]:
    """module.name -> code lines of each top-level def, class or assignment
    that no command reaches. The roots are the top-level functions of cli.py
    and every module-level statement that is not an import, a definition or a
    docstring; a definition is reached once its name appears, as a Name or an
    Attribute's attr, in something reached (a class with its whole body).
    Names are matched across modules; dunder names are ignored."""
    defs, roots = {}, []
    for path, source in srcs.items():
        module, lines = Path(path).stem, _code_line_numbers(source)
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_docstring(node):
                continue
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [] if module == "cli" and not isinstance(node, ast.ClassDef) else [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if not names:
                roots.append(node)
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            size = len(lines & set(range(start, node.end_lineno + 1)))
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault(name, []).append((f"{module}.{name}", node, size))
    seen, todo = set(), roots
    while todo:
        for n in ast.walk(todo.pop()):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if name in defs and name not in seen:
                seen.add(name)
                todo.extend(node for _, node, _ in defs[name])
    return {key: size for name, found in defs.items() if name not in seen
            for key, _, size in found}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default=None, help="git revision (default: work tree)")
    parser.add_argument("--by-module", action="store_true",
                        help="also print each module's code lines")
    parser.add_argument("--unreached", action="store_true",
                        help="also list what no command reaches, with its code lines")
    args = parser.parse_args(argv)
    srcs = sources(ROOT, args.rev)
    print(sum(code_lines(src) for src in srcs.values()))
    if args.by_module:
        for module, size in by_module(srcs).items():
            print(f"{size:5d}  {module}")
    if args.unreached:
        for key, size in sorted(unreached(srcs).items()):
            print(f"{size:5d}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
