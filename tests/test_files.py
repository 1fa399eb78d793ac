import ast
import os
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import csv_text
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, value):
    # json.dump would write NaN or Infinity, which no JSON parser has to accept
    with pytest.raises(ValueError, match="not JSON compliant"):
        files.write_json(tmp_path / "summary.json", {"peak": 0.5, "stats": {"phase": value}})
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


def _decades():
    # every power of ten from 1e-30 to 1e20 as its nearest double and the
    # doubles 1 ulp below and above it, of both signs
    p = np.array([float(f"1e{k}") for k in range(-30, 21)])
    p = np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])
    return np.concatenate([p, -p])


@pytest.mark.parametrize("values", [
    _decades(),
    # log10 reads -6 exactly, a decade above the value's own
    np.array([9.9999999999999995e-07, -9.9999999999999995e-07]),
    # an exact tie at 17 digits, rounded half to even by '%.17g'
    np.array([123456789012345.125, 123456789012345.375, -0.125]),
    # each lies below its power of ten and rounds up to it: D = 10^17
    np.array([1e-14, -1e-14, 1e-70, 1e-305]),
    # zeros, the ends of the fast range and what lies beyond it
    np.array([0.0, -0.0, 1e-27, 9.9999999999999998e15, 1e16, 5e-324, -2.2250738585072014e-308,
              1.7976931348623157e308, np.nan, -np.nan, np.inf, -np.inf]),
], ids=["decades", "log10-off", "ties", "round-up", "edges"])
def test_write_csv_matches_the_row_loop(tmp_path, values):
    path = tmp_path / "out.csv"
    write_csv(path, ["x"], [values])
    assert path.read_text() == csv_text(["x"], [values])


def test_write_csv_falls_back_on_the_first_and_last_row_of_a_block(tmp_path):
    # 2 columns: a block is _CHUNK // 2 rows; nan, inf, 1e300 and a
    # subnormal go through '%.17g' on each block's edges, beside fast values
    rows, block = 3 * files._CHUNK // 2 + 5, files._CHUNK // 2
    x = np.random.default_rng(2).normal(size=(rows, 2))
    edges = [0, block - 1, block, 2 * block - 1, 2 * block, rows - 1]
    x[edges, 0], x[edges, 1] = [np.nan, np.inf, -1e300, 5e-324, -np.inf, 1e300], -0.25
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], list(x.T))
    assert path.read_text() == csv_text(["a", "b"], list(x.T))


def test_write_csv_string_and_integer_columns(tmp_path):
    # labels of any width, the empty one included, as they are; integers and
    # booleans as the float64 they convert to, 2^60 + 1 included
    labels = np.array(["", "a", "a label longer than a number's 24 bytes", "11"])
    ints = np.array([0, -7, 2 ** 60 + 1, 10 ** 17])
    columns = [ints, labels, np.array([True, False, True, False]), np.linspace(0, 1, 4), labels]
    path = tmp_path / "out.csv"
    write_csv(path, ["n", "s", "b", "x", "t"], columns)
    assert path.read_text() == csv_text(["n", "s", "b", "x", "t"], columns)
    assert path.read_text().split("\n")[3].startswith("1.152921504606847e+18,a label longer")


_BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=200, deadline=None)
@given(table=st.integers(1, 3).flatmap(lambda m: st.lists(
    st.tuples(*[st.one_of(_BITS, st.floats(), st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-27, 1e16, 1e-14])) for _ in range(m)]),
    min_size=1, max_size=40)))
def test_write_csv_matches_the_row_loop_on_any_bit_pattern(tmp_path_factory, table):
    # arbitrary float64 bit patterns (NaNs of any payload, infinities, zeros
    # and subnormals among them) and hypothesis's own floats, in blocks of 7
    # values so that every table spans several
    columns = [np.array(c) for c in zip(*table)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    with mock.patch.object(files, "_CHUNK", 7):
        write_csv(path, [f"c{j}" for j in range(len(columns))], columns)
    assert path.read_text() == csv_text([f"c{j}" for j in range(len(columns))], columns)


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
