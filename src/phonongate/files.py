"""Output formats and atomic file output: every file the package writes is
formatted here and appears complete or not at all.

A CSV value is written as Python's `'%.17g' % v` writes it, byte for byte,
but whole arrays at a time. For |v| in [1e-27, 1e16) the correctly rounded
17-digit integer D and the decimal exponent e come from exact arithmetic:
|v| 10^(16-e) is a sum of doubles, formed by Dekker's TwoProduct (Numer. Math.
18, 224 (1971)) with the exact doubles 5^p, p <= 22, then scaled by 2^p.
D's digits come from a 4-digit table, and a table of layouts, one per
exponent and digit count, places them as '%.17g' does, in NUL-padded fields
whose padding one compress step drops. Zeros take the same path. Every other
value, and each one whose remainder lies within 1e-6 of half a unit, is
formatted by '%.17g' itself: a fast exact path with a fallback for what it
cannot decide (Loitsch, PLDI 2010)."""
from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

_CHUNK = 2048  # CSV values per block of rows, at least one row: each value takes 32 source
# bytes, 25 text bytes and a dozen 8-byte numbers, and 25 8-byte indices in
# gathers of 512 values; a larger block raises the process's peak memory
_WIDTH = 24  # the longest '%.17g' text: a sign, 17 digits, the point and 'e-308'
_E_MIN, _E_MAX = -28, 15  # the fast path's decimal exponents, for |v| in [1e-27, 1e16)
_TIE = 1e-6  # a remainder this close to half a unit goes to the fallback

# The tables are built, and the values formatted, in float64, int64 and bytes
# with few distinct NumPy loops: the first call of each loop pages in code of
# its own, which counts in the process's resident memory.
# A value's source bytes: NUL, '-', '.', 'e', the digits 0-9, ',', then D's 17 digits.
_SOURCE = np.frombuffer(b"\0-.e0123456789,", np.uint8)
_ZERO, _DIGITS = 4, len(_SOURCE)  # the source columns of '0' and of D's first digit
_P2 = np.array([2 ** k for k in range(45)], float)
_P5 = np.array([5 ** k for k in range(23)], float)  # exact: 5^22 < 2^53


def _digit_tables():
    """(_DIG4, _TZ4): the 4 ASCII digits of 0..9999 as one uint32 word each,
    and the number of their trailing zeros."""
    digits, rest = np.empty((10000, 4), np.uint8), np.arange(10000)
    trailing, zeros = np.zeros(10000, np.int64), np.ones(10000, bool)
    for i in range(3, -1, -1):
        rest, digit = np.divmod(rest, 10)
        digits[:, i] = digit + ord("0")
        zeros &= digit == 0
        trailing += zeros
    return digits.view(np.uint32).ravel(), trailing


_DIG4, _TZ4 = _digit_tables()


def _split(a):
    """a = hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_P5_HI, _P5_LO = _split(_P5)


def _times_p5(a, q):
    """(p, err) with a 5^q = p + err exactly, for q <= 22: Dekker's TwoProduct."""
    p, (ah, al), bh, bl = a * _P5[q], _split(a), _P5_HI[q], _P5_LO[q]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(a, q):
    """(h, r) with a 10^q = h + r, for 0 <= q <= 44: h is exactly the leading
    double, and r the rest, exact for q <= 22 and otherwise the sum of three
    exact terms, rounded by at most 2 ulp of r."""
    h, r = _times_p5(a, np.minimum(q, 22))
    if (far := np.flatnonzero(q > 22)).size:  # a second factor, 5^(q - 22)
        p = q[far] - 22
        (h[far], l2), (l1, l3) = _times_p5(h[far], p), _times_p5(r[far], p)
        r[far] = l2 + l1 + l3
    return h * _P2[q], r * _P2[q]


def _layouts():
    """(exponents * 17 digit counts, _WIDTH + 1) source columns of a
    value's bytes: a place for its sign (NUL here), the text of '%.17g' for
    decimal exponent e and s significant digits, NUL padding, then ','. For
    e >= 0 the text is fixed, e + 1 digits before the point; for -4 <= e < 0
    fixed as 0.000ddd; below, d.ddde-XX. Trailing zeros and a bare point go."""
    e, s = np.arange(_E_MIN, _E_MAX + 1)[:, None, None], np.arange(1, 18)[:, None]
    k = np.arange(-1, _WIDTH)  # the position in the text
    z = np.where(e < -4, 0, np.where(e < 0, -e, 0))  # leading zeros, the first before '.'
    p = np.where(e < 0, 0, e)  # the position of the last digit before the point
    end = np.where(s + z > p + 1, s + z + 1, p + 1)  # the end of the digits and point
    i = k - (k > p)  # the digit at k, counting the leading zeros
    c = k - end  # the position in the exponent suffix 'e-XX'
    tens, ones = np.divmod(-e, 10)
    suffix = np.where(c < 2, np.where(c == 0, 3, 1), _ZERO + np.where(c == 2, tens, ones))
    text = np.where(k < end, np.where(k == p + 1, 2, np.where(i < z, _ZERO, _DIGITS + i - z)),
                    np.where((e < -4) & (c < 4), suffix, 0))
    return np.where(k == _WIDTH - 1, _DIGITS - 1, np.where(k < 0, 0, text)).reshape(
        -1, _WIDTH + 1).astype(np.uint8)


_LAYOUTS = _layouts()


def _fields(x):
    """(n, _WIDTH + 1) uint8: the bytes of '%.17g' % v for each v of the
    float64 vector x, NUL-padded, then a ','."""
    n = len(x)
    with np.errstate(all="ignore"):
        a = np.abs(x)
        fast = (a >= 1e-27) & (a < 1e16)
        a = np.where(fast, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)
        h, r = _scaled(a, 16 - e)
        # log10 can miss by a decade next to a power of ten: step e so that
        # 10^16 <= h + r < 10^17; h is exact and the signs come out right
        step = ((h - 1e17) + r >= 0).astype(np.int64) - ((h - 1e16) + r < 0)
        if (miss := np.flatnonzero(step)).size:
            e[miss] += step[miss]
            h[miss], r[miss] = _scaled(a[miss], 16 - e[miss])
        k = np.floor(r + 0.5)  # h is an integer, so D = h + k; a near-tie falls back
        fast &= np.abs(np.abs(r - k) - 0.5) > _TIE
        d = h.astype(np.int64) + k.astype(np.int64)
        up = d == 10 ** 17  # rounded up to the next decade
        d, e = np.where(fast, d - up * (9 * 10 ** 16), 0), np.where(fast, e + up, 0)
    top, low = np.divmod(d, 10 ** 8)
    d0, mid = np.divmod(top, 10 ** 8)
    (g1, g2), (g3, g4) = np.divmod(mid, 10 ** 4), np.divmod(low, 10 ** 4)
    src = np.empty((n, 32), np.uint8)
    src[:, :_DIGITS], src[:, _DIGITS] = _SOURCE, d0 + ord("0")
    for w, g in enumerate((g1, g2, g3, g4), 4):
        src.view(np.uint32)[:, w] = _DIG4[g]
    trailing = _TZ4[g4]
    for i, g in enumerate((g3, g2, g1), 1):  # past a group of four zeros, the one before it
        if not (zeros := np.flatnonzero(trailing == 4 * i)).size:
            break
        trailing[zeros] += _TZ4[g[zeros]]
    key, out = (e - _E_MIN) * 17 + 16 - trailing, np.empty((n, _WIDTH + 1), np.uint8)
    for s in range(0, n, 512):  # in parts, so that their (512, 25) indices are freed in turn
        part = slice(s, s + 512)
        src.ravel().take(_LAYOUTS[key[part]] + np.arange(32 * s, 32 * min(n, s + 512), 32)[:, None],
                         out=out[part])
    out[:, 0] = (x.view(np.int64) < 0) * ord("-")
    if (slow := np.flatnonzero(~fast & (x != 0))).size:
        text = "".join(("%.17g" % v).ljust(_WIDTH, "\0") + "," for v in x[slow].tolist())
        out[slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH + 1)
    return out


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
    every real value, cast to float64, as '%.17g' writes it; written
    atomically. Each block of rows goes out as one byte string: every
    field NUL-padded and followed by a ',', the row's last one by '\\n', and
    the padding dropped."""
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    if kinds := {c.dtype.kind for c in columns} - set("Ubiuf"):
        raise TypeError(f"CSV columns hold strings or real numbers, not dtype kinds {kinds}")
    numbers = [c for c in columns if c.dtype.kind != "U"]
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.flush()
        labels = {j: np.pad(np.strings.encode(c, fh.encoding)[:, None].view(np.uint8),
                            ((0, 0), (0, 1)), constant_values=ord(","))
                  for j, c in enumerate(columns) if c.dtype.kind == "U"}
        step = max(1, _CHUNK // len(columns))
        for s in range(0, len(columns[0]), step):
            rows = slice(s, s + step)
            if numbers:
                values = np.stack([c[rows] for c in numbers], axis=1, dtype=np.float64)
                fields = _fields(values.ravel()).reshape(len(values), -1)
            if labels:
                fields = iter(np.split(fields, len(numbers), axis=1) if numbers else ())
                fields = np.concatenate([labels[j][rows] if j in labels else next(fields)
                                         for j in range(len(columns))], axis=1)
            fields[:, -1] = ord("\n")
            data = fields.ravel()
            fh.buffer.write(data[data != 0])


def write_json(path, obj) -> None:
    """`obj` as JSON, indented by 2, with a trailing newline; written atomically."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")
