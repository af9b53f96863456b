"""Exact vectorised ``'%.17g'`` text for CSV rows: ``CsvRows``.

The writer of field dumps and of the diagnostics CSV.  Its numbers are the
text of ``'%.17g' % value`` byte for byte.  The kernel ``_g17`` takes the
17 significant digits of |x| in [1e-6, 1e17) (and of +-0) as one int64
from an exact product of x and a power of ten (Dekker 1971), rounded half
to even as dtoa rounds (Gay 1990), and splits it by integer division into
a leading digit and four groups of four digits, whose text comes from a
table (``_csvtables``).  ``CsvRows`` lays a table's rows out once in fixed
columns: each row's prefix, right-aligned, then one slot per value.  A
mask picks the columns of each value's text, and one masked compress per
block of rows yields the block's bytes.  Other values (non-finite, or
outside that range) go through ``'%.17g' %`` one by one.

The module is imported on the first write, not with the package: without
cached bytecode, compiling it would add to every import of chrelax.
"""

from __future__ import annotations

import numpy as np

# Rows of c values are formatted CSV_BLOCK_ROWS // c rows at a time, through
# one text buffer and one mask of the rows' width; the kernel's temporaries
# grow with the block too.  CHANGES.md records the time and memory measured.
CSV_BLOCK_ROWS = 1024

# Veltkamp's constant 2^27 + 1: a * _SPLIT splits a double into two halves
# of 26 bits whose pairwise products are exact (Dekker 1971).
_SPLIT = 134217729.0

# The slot of one value: every column its text can take, in text order.
# A value's mask picks "0." (or the sign and "0.") and the zeros before the
# lead digit for a decimal exponent X in [-4, -1]; the sign, the digits up
# to the point from the first copy, the point and the rest from the second
# copy for X >= 0; the same with an exponent suffix for X in {-5, -6}.  Each
# of these forms ends on its own line end, read as "," in all but a row's
# last slot, so that a typical value's text is two or three runs of columns.
# The lead digit, written with the three zeros before it, and the digit
# groups of both copies are uint32 on 4-byte boundaries.
_SLOT = (b"0.-0.000" + b"0" * 17 + b"\r\n " + b"." + b"0" * 16 + b"\r\n"
         + b"e-056\r\n  ")
_WIDTH = len(_SLOT)  # 56
_SIGN, _LEAD, _HEAD, _POINT, _TAIL, _EXP = 2, 8, 9, 28, 29, 47
_ENDS = (25, 45, 52)  # line ends of the X in [-4, -1], X >= 0 and X < -4 forms
_FALLBACK = 24  # columns for a '%.17g' % text, which ends at _ENDS[0]
_CLASSES = 24 * 18 * 2  # mask rows of (X + 6, digit count, sign)


def _times_pow10(a, i, powers):
    """a * 10^(16 - X) for indices i = X + 6 in [0, 23], exactly, as the
    pair (p, e): p = fl(a * 10^(16 - X)) and p + e is the exact product
    (Dekker's TwoProduct; no FMA needed)."""
    b, b_hi, b_lo = powers.take(i, axis=1)
    t = a * _SPLIT
    a_hi = t - a
    np.subtract(t, a_hi, out=a_hi)
    a_lo = np.subtract(a, a_hi, out=t)
    p = a * b
    # e = a_hi b_hi - p + a_hi b_lo + a_lo b_hi + a_lo b_lo, in that order
    e = np.multiply(a_hi, b_hi, out=b)
    e -= p
    a_hi *= b_lo
    e += a_hi
    b_hi *= a_lo
    e += b_hi
    a_lo *= b_lo
    e += a_lo
    return p, e


def _g17(x, tables):
    """The ``'%.17g'`` text of each value of the float64 vector x, as
    (text, cls, slow): per value five uint32 of text, "000" and the leading
    digit then the four groups of the other 16 digits; each value's row in
    the mask table; and the indices of the values left to the caller
    (non-finite, or with a decimal exponent outside [-6, 16]).

    For a nonzero x with decimal exponent X in [-6, 16], |x| * 10^(16 - X)
    lies in [1e16, 1e17) and 10^(16 - X) is an exact double, so the exact
    product p + e gives the 17 significant digits D = p + rint(e): p is an
    even integer (it is above 2^53), and rint rounds half to even as dtoa
    does.  No D rounds up to 10^17, a carry into the next exponent: that
    takes a double less than 5e-18 relative below a power of ten.  The
    doubles next to 10^0 ... 10^17 are 1.1e-16 relative away or more, and
    the largest doubles below the inexact powers 10^-5 ... 10^-1 are
    8.3e-17 away or more.

    X is first taken from log10 of |x| clamped to [1e-6, 1e17], and can be
    one off, so that D < 10^16 or D >= 10^17; a clamped value gives D = 0
    (inf, >= 1e17) or D = 10^16 (zero, nan, below 1e-6).  The few values
    whose D rounded to a double is at most 10^16 or at least 10^17 are
    taken again from the exact X.
    """
    powers, words, _ = tables
    n = len(x)
    a = np.abs(x)
    np.fmax(a, 1e-6, out=a)  # zero and nan too
    np.fmin(a, 1e17, out=a)  # inf too: its index is 23, whose power is 0
    X = np.log10(a)
    X += 6.0
    i = X.astype(np.intp)  # truncates: X + 6 >= 0 but for roundoff
    p, e = _times_pow10(a, i, powers)
    r = np.rint(e)
    D = np.add(p, r, dtype=np.int64, casting="unsafe")
    r += p  # D rounded to a double: at most 10^16 or at least 10^17 with D
    r -= 5.5e16
    recheck = np.flatnonzero(np.abs(r, out=r) >= 4.5e16)
    slow = recheck[:0]
    if recheck.size:
        xr, pr, er, ir = x[recheck], p[recheck], e[recheck], i[recheck]
        zero = xr == 0.0
        # the sign of p + e - 1e16 and of p + e - 1e17: each difference with
        # p is exact where it is small (Sterbenz), and the sum keeps its sign
        below = (pr - 1e16) + er < 0
        above = (pr - 1e17) + er >= 0  # never at X = 16: a < 1e17
        out = ~(np.abs(xr) < 1e17) | below & (X[recheck] < 1.0) & ~zero
        ir += above.view(np.uint8)
        ir -= below.view(np.uint8)
        ir[zero | out] = 6
        i[recheck] = ir
        pr, er = _times_pow10(np.where(zero | out, 1.0, np.abs(xr)), ir, powers)
        D[recheck] = np.add(pr, np.rint(er), dtype=np.int64, casting="unsafe")
        D[recheck[zero]] = 0
        slow = recheck[out]
    # D as its leading digit and four groups: two 8-digit halves first,
    # in the second column of each pair of groups
    groups = np.empty((5, n), np.int64)
    pairs = groups[1:].reshape(2, 2, n)
    nine = D // 10**8
    np.subtract(D, nine * 10**8, out=pairs[1, 1])
    np.floor_divide(nine, 10**8, out=groups[0])
    np.subtract(nine, groups[0] * 10**8, out=pairs[0, 1])
    np.floor_divide(pairs[:, 1], 10**4, out=pairs[:, 0])
    pairs[:, 1] -= pairs[:, 0] * 10**4
    found = words.take(groups).view(np.uint8).reshape(5, n, 8)
    cls = i * 36
    cls += np.diagonal(found[1:, :, 4:], axis1=0, axis2=2).max(axis=1)
    cls += np.signbit(x).view(np.uint8)
    return found[..., :4].view(np.uint32)[..., 0], cls, slow


class CsvRows:
    """The fixed column layout of the CSV rows of a table of ``columns``
    values per row, with each row's prefix text in place.

    ``write`` writes row i as its prefix, the next lengths[i] bytes of
    ``prefix`` (the rows' prefixes concatenated), then the values of row i
    as ``'%.17g'`` formats them, joined by ',' and ended by CRLF: what
    ``csv.writer`` writes for these strings.
    """

    def __init__(self, prefix, lengths, columns):
        lengths = np.asarray(lengths, np.intp)
        longest = int(lengths.max(initial=0))
        self._wp = wp = longest + (-_HEAD - longest) % 4  # wp + _HEAD = 0 mod 4
        self._width = wp + _WIDTH * columns + (-_WIDTH * columns - wp) % 4
        # the prefixes, right-aligned, and the prefix columns of the row mask
        # by prefix length, each row one void item, so that a block's rows
        # copy in one strided loop
        by_length = np.arange(wp - 1.0, -1.0, -1.0) < np.arange(wp + 1.0)[:, None]
        head = np.zeros((len(lengths), wp), np.uint8)
        head[by_length.take(lengths, axis=0)] = np.frombuffer(prefix, np.uint8)
        self._head, self._lengths = head.view(f"V{wp}"), lengths
        self._head_masks = by_length.view(f"V{wp}")[:, 0]
        self._slots = np.frombuffer(_SLOT * columns, np.uint8).reshape(
            columns, _WIDTH).copy()
        self._slots[:-1, _ENDS] = ord(",")

    def write(self, fh, values):
        """Write the rows of the float64 array ``values`` (of this layout's
        shape) to the binary file fh, CSV_BLOCK_ROWS // columns at a time."""
        n, c = values.shape
        from ._csvtables import TABLES as tables  # built on the first write

        wp, width = self._wp, self._width
        rows = max(1, min(n, CSV_BLOCK_ROWS // c))
        buf = np.zeros((rows, width), np.uint8)
        mask = np.zeros((rows, width), bool)
        body = buf[:, wp:wp + _WIDTH * c].reshape(rows, c, _WIDTH)
        mbody = mask[:, wp:wp + _WIDTH * c].reshape(rows, c, _WIDTH)
        # the slots' fixed text, left in place but where a fallback text goes
        body.view(f"V{_WIDTH}")[..., 0] = self._slots.view(f"V{_WIDTH}")[:, 0]
        head, head_mask = buf[:, :wp].view(f"V{wp}"), mask[:, :wp].view(f"V{wp}")
        slot_masks = mask[:, wp:wp + _WIDTH * c].view(f"V{_WIDTH}")
        words = buf.view(np.uint32)[:, (wp + _HEAD) // 4 - 1:]
        lead = words[:, 0:_WIDTH * c // 4:_WIDTH // 4]  # "000" and the lead digit
        both = np.lib.stride_tricks.as_strided(  # the two copies of the groups
            words[:, 1:], shape=(rows, c, 2, 4), strides=(width, _WIDTH, _TAIL - _HEAD, 4))
        for start in range(0, n, rows):
            k = min(rows, n - start)
            b, m = buf[:k], mask[:k]
            head[:k] = self._head[start:start + k]
            head_mask[:k, 0] = self._head_masks.take(self._lengths[start:start + k])
            x = values[start:start + k].reshape(-1)
            text, cls, slow = _g17(x, tables)
            lead[:k] = text[0].reshape(k, c)
            both[:k] = text[1:].T.reshape(k, c, 1, 4)
            if slow.size:
                r, j = np.divmod(slow, c)
                texts = [b"%.17g" % v for v in x[slow].tolist()]
                cls[slow] = _CLASSES + np.array([len(t) for t in texts])
                body[r, j, :_FALLBACK] = np.frombuffer(
                    b"".join(t.ljust(_FALLBACK) for t in texts), np.uint8
                ).reshape(-1, _FALLBACK)
            slot_masks[:k] = tables[2].take(cls, axis=0).reshape(k, c)
            if c > 1:  # "," ends all but the last slot, in one column
                mbody[:k, :-1, [e + 1 for e in _ENDS]] = False
            fh.write(b[m])
            if slow.size:
                body[r, j] = self._slots[j]


def write_csv_rows(fh, values, prefix, lengths):
    """``CsvRows(prefix, lengths, values.shape[1]).write(fh, values)``: the
    rows of the 2-D float64 array ``values`` to the binary file fh."""
    CsvRows(prefix, lengths, values.shape[1]).write(fh, values)
