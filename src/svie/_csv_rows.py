"""The rows of paths.csv, ``pid,t,x``, with every number as ``'%.17g'`` writes it, formatted a block of paths at a time.

``'%.17g'`` of a double is its correctly rounded 17-significant-digit decimal (round half to even) in fixed
notation when the rounded exponent X is in [-4, 16], trailing fractional zeros and a bare point dropped.
Every finite |x| in [1e-4, 1e16) has such an X, and its digits are built here for a whole block with
integer and float64 array arithmetic: with k = 16 - floor(log10 |x|), 10**k is an exact double (k <= 21)
and Dekker's two-product splits |x| * 10**k exactly into p + e, where p >= 1e16 > 2**53 is an even
integer, so ``int(p) + rint(e)`` is the rounded 17-digit significand, rint's ties to even being ties to
even on it (T. J. Dekker, Numer. Math. 18, 1971).

Each number is laid out in fixed columns padded with spaces, which no field of the file contains: a
block of paths is a (paths, n + 1, width) uint8 array of ``pid``, ``,t,``, ``x`` and ``\\n`` fields,
and ``bytes.translate`` deletes the padding.  The few other values of such a block (0, -0, nan, inf,
subnormal or exponent form) take a placeholder in the array pass and are then formatted by one
``'%-24.17g'`` template, at most 24 characters each.  A block of which fewer than half the values are
in that range is written as one line template per path, a ``'%.17g'`` per value, since the array pass
would cost more than it saves there.  Only ``svie simulate`` imports this module.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_rows"]

_NUMBER = "%.17g"  # every number of paths.csv: 17 significant digits read back as the same double
_PAD = 32  # b" "
_X_WIDTH = 24  # the longest _NUMBER of a double: '-1.2345678901234567e-308'
_PADDED = f"%-{_X_WIDTH}{_NUMBER[1:]}".encode()  # an x field of a value outside the fast range
# at most this many paths per block, and blocks of no more than about _BLOCK_VALUES numbers
_BLOCK_PATHS = 16
_BLOCK_VALUES = 4112  # 16 paths x 257 grid times

# 10**k, k = 0..22, each exact (a product of exact powers of ten is exact up to 10**22), and its
# Veltkamp split into two halves of at most 26 significant bits
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.cumprod(np.full(23, 10.0)) / 10.0
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# An x field is 24 bytes, three little-endian words.  Byte 0 is the sign, bytes 1-5 the '0.' and zeros
# before the digits when X < 0, and bytes 6-23 the 17 digits with a decimal point among them.  The
# digits are built at bytes 7-23 (R) and also one byte lower (L), so that the digits before the point
# come from L and those after it from R.
_WORD = np.dtype("<u8")
# The tables are built from those of 0..99, so that no temporary is larger than a table.
# The ASCII digits of 0..9999 in the low four bytes of a word, first digit lowest; of 0..9 in the top byte.
_PAIRS = np.arange(100, dtype=_WORD) // 10 + 48 | (np.arange(100, dtype=_WORD) % 10 + 48) << 8
_GROUPS = (_PAIRS[:, None] | _PAIRS << 16).reshape(-1)
_LEAD = (np.arange(10, dtype=_WORD) + 48) << 56
# the index of the last nonzero digit of 0..9999 written in four digits, and -99 for 0
_LAST_PAIR = np.where(np.arange(100) % 10 > 0, 1, np.where(np.arange(100) > 0, 0, -99))
_LAST = np.where(np.arange(100) > 0, _LAST_PAIR + 2, _LAST_PAIR[:, None]).reshape(-1)


def _layouts() -> np.ndarray:
    """Per word of an x field, the bytes taken from L, from R and constant, per layout (X + 4, K, negative).

    K is the last column of the digit area that is kept: the last nonzero digit for X < 0, and the
    point or the last nonzero digit after it, whichever is further, for X >= 0 (X itself if none).
    """
    exponent = np.arange(-4, 17).reshape(21, 1, 1, 1)
    keep = np.arange(18).reshape(1, 18, 1, 1)
    column = np.arange(24) - 6  # column of the digit area, negative in the prefix
    point = np.where(exponent < 0, 18, exponent + 1)
    digit = (column >= 0) & (column <= keep)
    table = np.zeros((3, 21, 18, 2, 24), np.uint8)
    table[0] = np.where(digit & (column < point), np.uint8(255), np.uint8(0))
    table[1] = np.where(digit & (column > point), np.uint8(255), np.uint8(0))
    table[2] = np.where(column > keep, np.uint8(_PAD), np.where(column == point, np.uint8(46), np.uint8(0)))  # b"."
    prefixes = np.frombuffer(b"0.000" b"0.00 " b"0.0  " b"0.   " + b"     " * 17, np.uint8)
    table[2, ..., 1:6] = prefixes.reshape(21, 1, 1, 5)
    table[2, ..., 0] = np.frombuffer(b" -", np.uint8)
    # (tables, words, layouts), so that each word's lookup reads one contiguous row
    return table.reshape(3, -1, 24).view(_WORD).transpose(0, 2, 1).copy()


_FROM_L, _FROM_R, _CONST = _layouts()


def _significand(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(a * 10**k) as int64, exact (ties to even) while a * 10**k >= 2**53."""
    p = a * _POW10[k]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # e = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo, the exact a * 10**k - p, in place
    hi = _POW10_HI[k]
    e = a_hi * hi
    e -= p
    hi *= a_lo
    a_lo *= _POW10_LO[k]
    a_hi *= _POW10_LO[k]
    e += a_hi
    e += hi
    e += a_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _in_fast_range(values: np.ndarray) -> np.ndarray:
    """Where 1e-4 <= |value| < 1e16, the values whose digits the array pass builds."""
    a = np.abs(values)
    with np.errstate(invalid="ignore"):
        return (a >= 1e-4) & (a < 1e16)


def _format(values: np.ndarray, fast: np.ndarray, out: np.ndarray) -> None:
    """Write _NUMBER of each value, space padded, into the rows of ``out``, a (values, 24) uint8 view.

    ``fast`` is ``_in_fast_range(values)``.  Each intermediate array is deleted once used, so that a
    block's working set stays near 100 bytes a value.
    """
    a = np.abs(values)
    slow = None if fast.all() else np.flatnonzero(~fast)
    if slow is not None:
        a[slow] = 1.0

    # 17 significant digits d, 10**16 <= d < 10**17, with |x| ~ d * 10**(X - 16)
    k = 16 - np.clip(np.floor(np.log10(a)), -4.0, 15.0).astype(np.int64)
    d = _significand(a, k)
    # log10 may miss the decade by one, and rounding may carry into the next one
    off = np.flatnonzero((d >= 10**17) | (d < 10**16))
    if off.size:
        k[off] += np.where(d[off] < 10**16, 1, -1)
        d[off] = _significand(a[off], k[off])
    del a
    exponent = 16 - k

    # the lead digit and four groups of four
    high, low = np.divmod(d, 10**8)
    del d
    lead, high = np.divmod(high, 10**8)
    groups = (high // 10**4, high % 10**4, low // 10**4, low % 10**4)
    del high, low
    last = np.zeros_like(lead)  # the lead digit is never 0
    for group, col in zip(groups, (1, 5, 9, 13)):
        np.maximum(last, _LAST[group] + col, out=last)
    keep = np.where(exponent < 0, last, np.where(last > exponent, last + 1, exponent))
    layout = ((exponent + 4) * 18 + keep) * 2 + np.where(np.signbit(values), 1, 0)
    del last, keep, exponent

    # R word by word; L's word w is R's shifted down a byte, with the low byte of R's next word on top
    r = [_LEAD[lead], _GROUPS[groups[0]] | _GROUPS[groups[1]] << 32, _GROUPS[groups[2]] | _GROUPS[groups[3]] << 32]
    del lead, groups
    words = out.view(_WORD)
    for word in range(3):
        field = r[word] >> 8
        if word < 2:
            field |= r[word + 1] << 56
        field &= _FROM_L[word][layout]
        r[word] &= _FROM_R[word][layout]
        field |= r[word]
        field |= _CONST[word][layout]
        words[:, word] = field

    if slow is not None:
        text = (_PADDED * len(slow)) % tuple(values[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, _X_WIDTH)


def write_rows(fh, times: np.ndarray, values: np.ndarray) -> None:
    """Write a ``pid,t,x`` line per path and grid time to the text handle ``fh``, path 0 first."""
    values = np.asarray(values, dtype=np.float64)
    n_paths, width = values.shape
    id_width = len(str(n_paths - 1))
    tails = ["," + _NUMBER % float(t) + "," for t in times]
    templates = ["", *(tail + _NUMBER + "\n" for tail in tails)]  # joined by a pid, a path's lines
    t_width = max(map(len, tails))
    x_start = id_width + t_width
    line = x_start + _X_WIDTH + 1
    per_block = max(1, min(_BLOCK_PATHS, _BLOCK_VALUES // width))

    block = np.empty((per_block, width, line), np.uint8)
    tails = np.frombuffer("".join(tail.ljust(t_width) for tail in tails).encode("ascii"), np.uint8)
    block[:, :, id_width:x_start] = tails.reshape(width, t_width)
    block[:, :, -1] = 10  # b"\n"
    lines = block.reshape(-1, line)
    for start in range(0, n_paths, per_block):
        rows = values[start : start + per_block]
        fast = _in_fast_range(rows)
        if 2 * np.count_nonzero(fast) < fast.size:
            fh.writelines(str(pid).join(templates) % tuple(row.tolist()) for pid, row in enumerate(rows, start))
            continue
        ids = b"".join(b"%-*d" % (id_width, pid) for pid in range(start, start + len(rows)))
        block[: len(rows), :, :id_width] = np.frombuffer(ids, np.uint8).reshape(len(rows), 1, id_width)
        _format(rows.reshape(-1), fast.reshape(-1), lines[: rows.size, x_start:-1])
        fh.write(lines[: rows.size].tobytes().translate(None, b" ").decode("ascii"))
