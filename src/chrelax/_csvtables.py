"""The tables of the ``'%.17g'`` CSV kernel in ``_csvtext``.

They are built when this module is first imported, on the first write.  It
is a module of its own so that compiling it and compiling ``_csvtext`` do
not hold both syntax trees at once: without cached bytecode, that compile
is the largest allocation of the first write.
"""

from __future__ import annotations

import numpy as np

from ._csvtext import (
    _CLASSES,
    _ENDS,
    _EXP,
    _FALLBACK,
    _LEAD,
    _POINT,
    _SIGN,
    _SPLIT,
    _TAIL,
    _WIDTH,
)


def _build():
    """(powers, words, masks): the tables of ``_csvtext._g17`` (about 130 KB).

    - 10^22 ... 10^0 (exact doubles) and 0, by index i = X + 6 (an index of
      23 is a magnitude the kernel caps), with their Veltkamp halves;
    - one 8-byte word per group 0000 to 9999: its text, then its digit
      counts (below);
    - the slot mask of every class (i * 18 + digit count) * 2 + sign, then
      of a fallback text of every length from 0 to 24, one void item each.

    The tables are built from float compares and byte copies: loops that
    the solver and the kernel run anyway, so that the first write touches
    few new pages of numpy's code.
    """
    pow10 = np.array([float(10**q) for q in range(22, -1, -1)] + [0.0])
    t = pow10 * _SPLIT
    hi = t - (t - pow10)
    powers = np.stack([pow10, hi, pow10 - hi])
    # per group 100 a + b, its text in bytes 0-3 (the pairs a and b), and in
    # byte 4 + j twice the significant digit count of the 17 digits if it is
    # group j + 1 of the four and the last nonzero one: 1 + 4 j digits, then
    # those of the group up to its last nonzero digit (2 for a zero group,
    # the leading digit alone; its row max over j is the count of D)
    digit = np.frombuffer(b"0123456789", np.uint8)
    pair = np.empty((10, 10, 2), np.uint8)  # "cd" for the pair 10 c + d
    pair[..., 0] = digit[:, None]
    pair[..., 1] = digit
    words = np.empty((100, 100, 8), np.uint8)
    words[..., 0:2] = pair.reshape(100, 1, 2)
    words[..., 2:4] = pair.reshape(1, 100, 2)
    last = np.full((10, 10), 2.0)  # digits of a pair up to its last nonzero one
    last[:, 0] = 1.0
    last[0, 0] = 0.0
    last = last.reshape(100)
    for j in range(4):
        words[:, 1:, 4 + j] = 2.0 + 8 * j + 2.0 * (2.0 + last[1:])
        words[:, 0, 4 + j] = 2.0 + 8 * j + 2.0 * last
    words[0, 0, 4:] = 2

    masks = np.zeros((_CLASSES + _FALLBACK + 1, _WIDTH), bool)
    forms = masks[:_CLASSES].reshape(24, 18, 2, _WIDTH)
    x = np.arange(-6.0, 18.0)[:, None, None, None]
    k, neg = np.arange(18.0)[:, None, None], np.arange(2.0)[:, None] == 1
    col = np.arange(float(_WIDTH))

    def at(first, n=1):
        return (col >= first) & (col < first + n)

    e, a, b = x[:2], x[2:6], x[6:]  # X < -4, -4 <= X < 0, X >= 0
    forms[:2] = (at(_SIGN) & neg | at(_LEAD) | at(_POINT) & (k > 1)
                 | at(_TAIL, k - 1) | at(_EXP, 3) | at(_EXP - 2 - e) | at(_ENDS[2], 2))
    forms[2:6] = (np.where(neg, at(_SIGN, 3), at(0, 2)) | at(_LEAD + a + 1, k - a - 1)
                  | at(_ENDS[0], 2))
    forms[6:] = at(_SIGN) & neg | at(_ENDS[1], 2)
    forms[6:] |= at(_LEAD, b + 1) | at(_POINT) & (k > b + 1)
    forms[6:] |= at(_TAIL + b, k - 1 - b)
    masks[_CLASSES:] = col < np.arange(_FALLBACK + 1)[:, None]
    masks[_CLASSES:, _ENDS[0]:_ENDS[0] + 2] = True
    tables = (powers, words.view(np.int64).reshape(-1), masks.view(f"V{_WIDTH}")[:, 0])
    for a in tables:
        a.flags.writeable = False
    return tables


TABLES = _build()
