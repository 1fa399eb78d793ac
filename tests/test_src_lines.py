import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# 7 code lines: the module, class and function docstrings, the comment-only
# lines and the blank lines do not count; a string that is not a docstring,
# a trailing comment and a continuation line do
FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment


# a comment-only line
class A:
    """Class docstring."""

    x = """not a
docstring"""

    def f(self, a,
          b):
        """Function
        docstring."""
        return a + b
'''


def test_code_lines_of_a_fixture():
    assert src_lines.code_lines(FIXTURE) == 7
    assert src_lines.code_lines("") == 0


def test_sources_at_the_work_tree_and_at_a_revision(tmp_path):
    package = tmp_path / "src" / "phonongate"
    package.mkdir(parents=True)
    (package / "a.py").write_text(FIXTURE)
    (package / "notes.txt").write_text("x = 1\n")
    assert list(src_lines.sources(tmp_path, None)) == ["src/phonongate/a.py"]
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-qm", "fixture"], check=True)
    (package / "b.py").write_text("y = 2\n")
    assert src_lines.sources(tmp_path, "HEAD") == {"src/phonongate/a.py": FIXTURE}
    assert sorted(src_lines.sources(tmp_path, None)) == ["src/phonongate/a.py",
                                                         "src/phonongate/b.py"]


def test_by_module_counts_each_module_and_sums_to_the_total(capsys):
    assert src_lines.by_module({"pkg/a.py": FIXTURE, "pkg/b.py": "y = 2\n"}) == {"a": 7, "b": 1}
    assert src_lines.main(["--by-module"]) == 0
    total, *rows = capsys.readouterr().out.splitlines()
    sizes = {name: int(size) for size, name in map(str.split, rows)}
    assert sizes == src_lines.by_module(src_lines.sources(src_lines.ROOT, None))
    assert sum(sizes.values()) == int(total) and "files" in sizes


# a command module and a library module: `main` reaches `used` by name and
# `Shape` by attribute, `Shape` reaches `TABLE` from its body, the module-level
# call reaches `registered`; `unused`, `LIMIT` and `spare` are left, with their
# code lines, and `__version__` is ignored
CLI_FIXTURE = '''"""Commands."""
from . import lib


def main():
    return lib.used() + lib.Shape().area()
'''
LIB_FIXTURE = '''"""Library."""
import math

__version__ = "1"
LIMIT = 3
TABLE = {"a": 1}


def used():
    return 1


class Shape:
    """Reached through its attribute."""

    def area(self):
        return TABLE["a"]


def registered():
    return 2


def unused():
    """Two code lines."""
    return math.pi


@staticmethod
def spare(a,
          b):
    return a + b


print(registered())
'''


def test_unreached_rule_on_a_fixture():
    srcs = {"pkg/cli.py": CLI_FIXTURE, "pkg/lib.py": LIB_FIXTURE}
    assert src_lines.unreached(srcs) == {"lib.LIMIT": 1, "lib.unused": 2, "lib.spare": 4}
    # without the command module nothing but the module-level call is a root
    assert set(src_lines.unreached({"pkg/lib.py": LIB_FIXTURE})) == {
        "lib.LIMIT", "lib.TABLE", "lib.used", "lib.Shape", "lib.unused", "lib.spare"}


def test_unreached_is_only_the_dispersive_surface():
    # what no command reaches is kept in src/ only for the nonresonance map to
    # call: the dispersive gate Hamiltonian with its parameters and its
    # resonance guard. Code only the tests use belongs in tests/oracles.py
    found = src_lines.unreached(src_lines.sources(src_lines.ROOT, None))
    assert set(found) == {
        "hamiltonians.effective_gate_hamiltonian", "hamiltonians.EffectiveGateParams",
        "hamiltonians.ResonanceProximityError"}
