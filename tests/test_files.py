import os
import stat

import pytest

from phonongate.files import atomic_write


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
