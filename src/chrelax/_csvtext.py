"""Exact vectorised ``'%.17g'`` text for CSV rows: ``write_csv_rows``.

The writer of field dumps and of the diagnostics CSV.  Its numbers are the
text of ``'%.17g' % value`` byte for byte.  The kernel ``_g17`` takes the
17 significant digits of |x| in [1e-6, 1e17) (and of +-0) from an exact
product of x and a power of ten (Dekker 1971), rounded half to even as
dtoa rounds (Gay 1990), and lays out the text of a block of rows in a
fixed column layout, joined by one masked compress.  Other values
(non-finite, or outside that range) go through ``'%.17g' %`` one by one.

The module is imported on the first write, not with the package: without
cached bytecode, compiling it would add to every import of chrelax.
"""

from __future__ import annotations

import functools

import numpy as np

# Values formatted per block by write_csv_rows: rows of c values go
# CSV_BLOCK_ROWS // c rows at a time, through one buffer of (prefix + 50
# bytes per value + 2) bytes per row and a mask of the same shape.  The
# second dump of a 64x64 field peaks at 0.51 MB under tracemalloc with 1024
# rows per block, 0.26 MB with 512 and 0.14 MB with 256; its text takes
# 1.8, 2.2 and 3.1 ms on a 2-vCPU VM, as a block costs about 0.1 ms of
# numpy calls.  The peak RSS of the 2-D benchmark run moved by less than
# its run-to-run spread (0.1 MB) between 256 and 1024 rows (Python 3.11,
# numpy 2.4, glibc malloc).
CSV_BLOCK_ROWS = 1024

# Veltkamp's constant 2^27 + 1: a * _SPLIT splits a double into two halves
# of 26 bits whose pairwise products are exact (Dekker 1971).
_SPLIT = 134217729.0

# The text of one value in write_csv_rows' fixed column layout: the sign,
# the "0." and zeros before the digits of exponents -4 to -1, the 17
# digits, a point, the 17 digits again, both exponent suffixes and the
# separator.  A mask picks the columns of each value's text: the digits
# before the point from the first copy, those after it from the second,
# so that the mask is a few runs and the compress stays fast.
_SLOT = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e-05e-06,"
_BODY = len(_SLOT) - 1  # the columns before the separator
_LEAD, _POINT, _TAIL, _EXP = 6, 23, 24, 41  # where each part starts


@functools.cache
def _g17_tables():
    """The tables of ``_g17``, built on its first call (about 21 KB).

    - the powers 10^0 to 10^22 (exact doubles) and their Veltkamp halves;
    - the ASCII text of every digit pair 00 to 99, one uint16 per pair;
    - per pair position 1 to 8 and pair value, the significant digit count
      of the 17 digits if that pair is the last nonzero one (1 for a zero
      pair: the count of the leading digit alone);
    - the slot mask of every (decimal exponent + 6) * 18 + digit count.
    """
    pow10 = np.array([float(10**q) for q in range(23)])
    t = pow10 * _SPLIT
    pow10_hi = t - (t - pow10)
    pow10_lo = pow10 - pow10_hi
    digit = np.frombuffer(b"0123456789", np.uint8)
    text = np.empty((10, 10, 2), np.uint8)  # text[a, b] = "ab"
    text[..., 0] = digit[:, None]
    text[..., 1] = digit
    text = text.view(np.uint16).reshape(-1)
    counts = np.empty((8, 100), np.uint8)
    for pos in range(8):  # the leading digit, 2 * pos digits, then the pair's
        counts[pos] = 1 + 2 * pos + 2
        counts[pos, ::10] = 1 + 2 * pos + 1
    counts[:, 0] = 1
    masks = np.zeros((23, 18, _BODY), bool)
    for X in range(-6, 17):
        for k in range(1, 18):
            m = masks[X + 6, k]
            if X < -4:  # d.ddde-0X
                m[_LEAD] = True
                m[_POINT] = k > 1
                m[_TAIL + 1:_TAIL + k] = True
                m[_EXP:_EXP + 4] = X == -5
                m[_EXP + 4:_EXP + 8] = X == -6
            elif X < 0:  # 0.000ddd, with -X - 1 zeros after the point
                m[1:2 - X] = True
                m[_LEAD:_LEAD + k] = True
            else:  # the integer digits in full, then the point and the rest
                m[_LEAD:_LEAD + X + 1] = True
                m[_POINT] = k > X + 1
                m[_TAIL + X + 1:_TAIL + k] = True
    tables = (pow10, pow10_hi, pow10_lo, text, counts.reshape(-1),
              masks.reshape(-1, _BODY))
    for a in tables:
        a.flags.writeable = False
    return tables


def _times_pow10(a, X, tables):
    """a * 10^(16 - X) for float64 exponents X in [-6, 16], exactly, as the
    pair (p, e): p = fl(a * 10^(16 - X)) and p + e == a * 10^(16 - X)
    (Dekker's TwoProduct; no FMA needed)."""
    pow10, pow10_hi, pow10_lo = tables[:3]
    q = (16 - X).astype(np.intp)
    b, b_hi, b_lo = pow10[q], pow10_hi[q], pow10_lo[q]
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    p = a * b
    return p, a_hi * b_hi - p + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo


def _g17(x, tables):
    """The ``'%.17g'`` text of each value of the float64 vector x, in the
    slot layout of ``_SLOT``: (chars, mask, slow), where chars[i] holds the
    17 digit characters of x[i] and mask[i] the slot columns of its text.
    The values at the indices ``slow`` (non-finite, or with a decimal
    exponent outside [-6, 16]) are left to the caller.

    For a nonzero x with decimal exponent X in [-6, 16], |x| * 10^(16 - X)
    lies in [1e16, 1e17) and 10^(16 - X) is an exact double, so the exact
    product p + e gives the 17 significant digits D = p + rint(e): p is an
    even integer (it is above 2^53), and rint rounds half to even as dtoa
    does.  X starts from floor(log10 |x|), which can be off by one; the
    exact product against 1e16 and 1e17 corrects it.  No D rounds up to
    10^17, a carry into the next exponent: that takes a double less than
    5e-18 relative below a power of ten.  The doubles next to 10^0 ... 10^17
    are 1.1e-16 relative away or more, and the largest doubles below the
    inexact powers 10^-5 ... 10^-1 are 8.3e-17 away or more.
    """
    text, counts, masks = tables[3:]
    n = len(x)
    a = np.abs(x)
    slow = ~(a < 1e17)  # nan, inf and the magnitudes above the range
    zero = a == 0.0
    a[slow | zero] = 1.0
    X = np.log10(a)
    np.clip(np.floor(X, out=X), -6, 16, out=X)
    p, e = _times_pow10(a, X, tables)
    # the sign of p + e - 1e16 and of p + e - 1e17: each difference with p
    # is exact where it is small (Sterbenz), and the sum keeps its sign
    below = (p - 1e16) + e < 0
    above = (p - 1e17) + e >= 0  # never at X = 16: a < 1e17
    slow |= below & (X == -6)  # a decimal exponent below -6
    fix = np.flatnonzero((below | above) & ~slow)
    if fix.size:
        X[fix] += np.where(above[fix], 1.0, -1.0)
        p[fix], e[fix] = _times_pow10(a[fix], X[fix], tables)
    # D = p + rint(e) as its leading digit and eight pairs of digits, one
    # row each, in float64: every step below is exact
    digits = np.empty((9, n))
    hi = np.floor(p / 1e8)  # can be one off, so lo can leave [0, 1e8)
    lo = p - hi * 1e8
    lo += np.rint(e)
    off = np.floor(lo / 1e8)  # -1, 0 or 1
    hi += off
    lo -= off * 1e8
    np.floor(hi / 1e8, out=digits[0])
    hi -= digits[0] * 1e8
    fours = np.empty((4, n))
    np.floor(hi / 1e4, out=fours[0])
    np.subtract(hi, fours[0] * 1e4, out=fours[1])
    np.floor(lo / 1e4, out=fours[2])
    np.subtract(lo, fours[2] * 1e4, out=fours[3])
    np.floor(fours / 100, out=digits[1::2])
    np.subtract(fours, digits[1::2] * 100, out=digits[2::2])
    digits = digits.astype(np.intp)
    chars = text.take(digits.T).view(np.uint8)[:, 1:]
    chars[zero, 0] = 48  # a zero went through as 1: the single digit 0
    # the significant digit count: the largest count over the pairs
    digits[1:] += np.arange(0, 800, 100)[:, None]
    k = counts.take(digits[1:]).max(axis=0)
    mask = masks.take(((X + 6) * 18 + k).astype(np.intp), axis=0)
    mask[:, 0] = np.signbit(x)
    return chars, mask, np.flatnonzero(slow)


def write_csv_rows(fh, values, prefix, lengths):
    """Write CSV rows of ``'%.17g'`` text to the binary file fh.

    Row i is its prefix, the next lengths[i] bytes of ``prefix`` (the rows'
    prefixes, concatenated), then the values of row i of the 2-D float64
    array ``values`` as ``'%.17g'`` formats them, joined by ',' and ended by
    CRLF: what ``csv.writer`` writes for these strings.  ``_g17`` formats a
    block of about CSV_BLOCK_ROWS values at a time into one buffer with a
    fixed column layout per row (the prefix, padded to the longest, then one
    ``_SLOT`` per value and CRLF); one masked compress of the buffer then
    yields the block's text.  Values outside ``_g17``'s range are formatted
    by ``'%.17g' %`` into their slots.
    """
    n, c = values.shape
    if n == 0:
        return
    tables = _g17_tables()
    lengths = np.asarray(lengths)
    text = np.frombuffer(prefix, np.uint8)
    at = 0  # where the block's prefixes start in text
    wp, ws = int(lengths.max()), len(_SLOT)
    slots = slice(wp, wp + ws * c)
    template = np.frombuffer(bytes(wp) + _SLOT * c + b"\r\n", np.uint8)
    rows = min(n, max(1, CSV_BLOCK_ROWS // c))
    buf = np.empty((rows, len(template)), np.uint8)
    mask = np.zeros(buf.shape, bool)
    mask[:, wp + _BODY:slots.stop - 1:ws] = True  # separators
    mask[:, -2:] = True  # CRLF
    width = max(wp, _BODY)
    heads = np.arange(width + 1.0)[:, None] > np.arange(width)  # row i: i columns
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        b, m = buf[:stop - start], mask[:stop - start]
        b[:] = template
        lens = lengths[start:stop]
        m[:, :wp] = own = heads[:, :wp].take(lens, axis=0)
        size = int(lens.sum())
        b[:, :wp][own] = text[at:at + size]
        at += size
        x = values[start:stop].reshape(-1)
        chars, vmask, slow = _g17(x, tables)
        # views: the split last axis is contiguous, so these write into buf
        body = b[:, slots].reshape(len(b), c, ws)
        mbody = m[:, slots].reshape(len(b), c, ws)
        chars = chars.reshape(len(b), c, 17)
        body[:, :, _LEAD:_POINT] = chars
        body[:, :, _TAIL:_TAIL + 17] = chars
        mbody[:, :, :_BODY] = vmask.reshape(len(b), c, _BODY)
        if slow.size:
            r, j = np.divmod(slow, c)
            texts = [b"%.17g" % v for v in x[slow].tolist()]
            body[r, j, :_BODY] = np.frombuffer(
                b"".join(t.ljust(_BODY) for t in texts), np.uint8).reshape(-1, _BODY)
            mbody[r, j, :_BODY] = heads[[len(t) for t in texts], :_BODY]
        fh.write(b[m])
