"""Output formats and atomic file output: every file the package writes is
formatted here and appears complete or not at all."""
from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

_CHUNK = 256  # CSV rows per write: Python floats take 32 B a value, so never the whole table


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


def write_csv(path, header, columns) -> None:
    """One row per entry of the equal-length `columns` under the `header`
    names: comma separator, LF line endings, a string column as it is and
    every other value with 17 significant digits; written atomically."""
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in columns) + "\n"
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, max(map(len, columns)), _CHUNK):  # strict: columns of unequal length fail
            rows = zip(*(c[s:s + _CHUNK].tolist() for c in columns), strict=True)
            fh.writelines(template % row for row in rows)


def write_json(path, obj) -> None:
    """`obj` as JSON, indented by 2, with a trailing newline; written atomically."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")
