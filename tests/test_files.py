import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from phonongate import files
from phonongate.files import atomic_write, write_csv


class Boom(Exception):
    pass


def test_atomic_write_replaces_target(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("a,b\n")
    assert path.read_bytes() == b"a,b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_failure_keeps_old_content(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(Boom):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise Boom
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_failure_leaves_target_absent(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(Boom):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise Boom
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_gives_the_umask_mode(tmp_path, umask, mode):
    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        with atomic_write(path) as fh:
            fh.write("a,b\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_write_csv_format(tmp_path):
    path = tmp_path / "traj.csv"
    write_csv(path, ["t_s", "F", "G"], [np.array([0.0, 0.5, 1.0]), np.array([1.0, 1 / 3, -0.0]),
                                        np.array([np.nan, np.inf, 2e-300])])
    content = path.read_bytes().decode()
    assert content.split("\n") == ["t_s,F,G", "0,1,nan", "0.5,0.33333333333333331,inf",
                                   "1,-0,2.0000000000000001e-300", ""]
    # a string column (fig2's labels) as it is, an integer column (spectrum's n)
    # with the digits of str(n)
    write_csv(path, ["state", "n", "F"], [("00", "01", "10"), np.arange(3),
                                          np.array([1.0, 1 / 3, -0.0])])
    assert path.read_bytes() == b"state,n,F\n00,0,1\n01,1,0.33333333333333331\n10,2,-0\n"


def test_write_csv_rows_past_one_chunk(tmp_path):
    path = tmp_path / "long.csv"
    n = 2 * files._CHUNK + 3
    x = np.random.default_rng(1).normal(size=n)
    write_csv(path, ["n", "x"], [np.arange(n), x])
    lines = path.read_text().split("\n")
    assert lines == ["n,x", *(f"{i},{v:.17g}" for i, v in enumerate(x.tolist())), ""]


@pytest.mark.parametrize("columns", [
    [np.array([0.0, 1.0]), np.array([1.0, None], dtype=object)],  # cannot be formatted
    [np.arange(3.0), np.arange(2.0)],  # unequal lengths
    [np.arange(300.0), np.arange(2 * files._CHUNK + 1.0)],  # unequal past the first chunk
])
def test_write_csv_failure_keeps_old_content(tmp_path, columns):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises((TypeError, ValueError)):
        write_csv(path, ["a", "b"], columns)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_files_alone_writes_and_formats():
    # every other module says what goes into a file; only files.py opens one
    # atomically, dumps JSON or spells the 17-digit CSV format
    package = Path(files.__file__).parent
    found = []
    for source in sorted(package.glob("*.py")):
        if source.name == "files.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                owner = getattr(getattr(node.func, "value", None), "id", None)
                if name == "atomic_write" or (owner, name) == ("json", "dump"):
                    found.append(f"{source.name}:{node.lineno} calls {name}")
            elif isinstance(node, ast.Constant) and ".17g" in str(node.value):
                found.append(f"{source.name}:{node.lineno} spells .17g")
    assert found == []
