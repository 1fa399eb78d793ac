"""Atomic file output: every file the package writes appears complete or not
at all."""
from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_write(path):
    """Text handle (LF line endings) streaming into a unique temporary file
    beside `path`. On a clean exit the file is renamed over `path`; on any
    exception it is removed and `path` keeps its old content, or stays absent."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            os.umask(umask := os.umask(0))
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
