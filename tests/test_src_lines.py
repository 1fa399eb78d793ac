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
