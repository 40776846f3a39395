"""Matrix rows as "%.17g" CSV text, formatted in numpy blocks.

``write_rows(fh, X)`` writes what ``np.savetxt(fh, X, delimiter=",",
fmt="%.17g")`` writes, byte for byte, 4,096 values (whole rows) at a
time.  Each value is laid out in a row of _COLUMNS bytes, and a mask row
picked by the value's sign, decimal point and last nonzero digit keeps
the bytes printed, in order:

    0      "-"
    1      "0", the integer part of |x| < 1
    2-18   the 17 significant digits, as the integer part
    19     "."
    20-23  "0000", zeros after the point of |x| < 0.1
    24-47  the 17 digits again, as the fraction; or a fallback's whole text
    48     the delimiter, "," or "\\n"

The CLI imports this module only when it writes a matrix, so the other
commands do not compile it.
"""

from __future__ import annotations

import numpy as np

_BLOCK_VALUES = 4096
_COLUMNS = 49
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_POW10 = np.array([10.0 ** s for s in range(21)])  # exact for every s <= 22
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# tables in int64, as the writer computes: new dtypes would map more of
# numpy's loops into memory (about 0.2 MB of RSS for uint16 and int8)
_GROUPS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS4 = (_GROUPS + ord("0")).astype(np.uint8).view(np.uint32).ravel()  # "0000".."9999"
# the last nonzero digit of each group, -17 for 0000
_LAST4 = np.where(_GROUPS != 0, np.arange(4), -17).max(axis=1)
del _GROUPS


def _masks() -> np.ndarray:
    """Mask rows: fast values by (sign, point P = E + 1 in -3..17, last
    nonzero digit in 0..16), then +0 and -0, then fallback texts by length."""
    neg, P, last = (a.reshape(-1, 1) for a in np.meshgrid(
        [0, 1], np.arange(-3, 18), np.arange(17), indexing="ij"))
    j = np.arange(17)
    fast = np.hstack([  # by column range, as laid out above
        neg == 1, P <= 0, j < P, last >= P, np.arange(4) < -P,
        (np.maximum(P, 0) <= j) & (j <= last), np.zeros((len(P), 7), bool),
        np.ones((len(P), 1), bool)])
    zero = np.zeros((2, _COLUMNS), bool)
    zero[:, [1, -1]] = True
    zero[1, 0] = True
    slow = np.zeros((24, _COLUMNS), bool)
    slow[:, -1] = True
    slow[:, 24:48] = np.arange(24) < np.arange(1, 25)[:, None]
    return np.vstack([fast, zero, slow])


_MASKS = _masks()
_ZERO_MASK, _SLOW_MASK = 2 * 21 * 17, 2 * 21 * 17 + 2


def write_rows(fh, X: np.ndarray) -> None:
    """Write the rows of the 2-D float64 array X to the text stream fh."""
    n, m = X.shape
    if m == 0:
        fh.write("\n" * n)
        return
    rows = max(1, _BLOCK_VALUES // m)
    buf = np.empty((rows * m, _COLUMNS), np.uint8)
    buf[:, :2] = np.frombuffer(b"-0", np.uint8)
    buf[:, 19:24] = np.frombuffer(b".0000", np.uint8)
    buf[:, -1] = ord(",")
    buf[m - 1::m, -1] = ord("\n")
    for r0 in range(0, n, rows):
        fh.write(_format_17g(X[r0:r0 + rows].ravel(), buf).decode("ascii"))


def _format_17g(x: np.ndarray, buf: np.ndarray) -> bytes:
    """The values x as "%.17g" each, followed by buf's delimiters.

    For 1e-4 <= |x| < 1e17, where %g prints fixed notation, E =
    floor(log10|x|) and p + e = |x| 10^(16 - E) exactly (Dekker's product;
    numpy never fuses a multiply-add).  p >= 10^16 > 2^53 is an even
    integer, so N = p + rint(e) is |x| rounded to 17 digits, ties to even
    as CPython rounds them.  E is checked, not trusted: a value is kept
    only where p + e >= 10^16 and N < 10^17.  Every other value is
    formatted by CPython's own "%.17g"; zeros print as "0" and "-0".
    """
    k = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    E = np.floor(np.log10(a))
    s = (16 - np.clip(E, -4, 16, out=E)).astype(np.intp)
    p = a * np.take(_POW10, s)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    th, tl = np.take(_POW10_HI, s), np.take(_POW10_LO, s)
    e = al * tl - (((p - ah * th) - al * th) - ah * tl)
    N = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fast &= ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (N < 10**17)
    N[~fast] = 10**16
    groups = np.empty((5, k), np.int64)  # N's 17 digits as 1 + 4 x 4
    groups[0], rest = np.divmod(N, 10**16)
    hi, lo = np.divmod(rest, 10**8)
    groups[1], groups[2] = np.divmod(hi, 10**4)
    groups[3], groups[4] = np.divmod(lo, 10**4)
    digits = np.take(_DIGITS4, groups.T).view(np.uint8)[:, 3:]
    buf[:k, 2:19] = digits
    buf[:k, 24:41] = digits
    last = np.take(_LAST4, groups[1:]) + np.arange(1, 17, 4)[:, None]
    last = np.maximum(last.max(axis=0), 0)  # digit 0 is never 0
    neg = np.signbit(x)
    mask = (neg * 21 + 20 - s) * 17 + last  # P + 3 = 20 - s
    zero = x == 0
    mask[zero] = _ZERO_MASK + neg[zero]
    slow = np.flatnonzero(~fast & ~zero)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        buf[slow, 24:48] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        mask[slow] = [_SLOW_MASK + len(t) - 1 for t in text]
    return buf[:k][np.take(_MASKS, mask, axis=0)].tobytes()
