"""Exact, vectorized ``'%.17g' % v`` of float64 blocks, for CSV tables.

:func:`format_floats` turns a 2-D float block into the bytes that
formatting each value with ``'%.17g'`` and joining a row's values with
``,`` and the rows with ``\\n`` would give.  Digits come from an exact
product with a power of ten (Dekker, "A floating-point technique for
extending the available precision", 1971); the ``%g`` layout from small
tables, built on first use.  The few values whose digits the product
leaves undecided go through ``'%.17g' % v`` one at a time.

Imported by :func:`triplaq.cli_io.write_csv` on its first float table, so
that commands writing none do not compile it.
"""

import functools

import numpy as np

# The kernel formats |x| in [1e-98, 1e98) itself, and zeros; every other
# value (subnormals, inf, nan, the far exponents) goes through _percent_g.
# Over that range log10 lands within one of the decimal exponent E, every
# exponent has two digits, and no product below under- or overflows.
_FAST_MIN, _FAST_MAX = 1e-98, 1e98
_E_MIN, _E_MAX = -99, 99        # floor(log10|x|) over that range, give or take one
_SPLIT = 134217729.0            # 2**27 + 1: Veltkamp's split into 26-bit halves
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17
#: Undecided rounding: the computed remainder of x*10**q above its integer
#: part is within 4.3e-15 of the exact one (see _decimal).
_TIE_TOL = 5e-15
#: A value's 32-byte slot, four little-endian uint64 words: its head (sign
#: and "0.00" prefix) right-aligned in bytes 0-7, the 17 digits with the
#: point inserted in bytes 8-25, then the "e+XX" tail and the separator.
_SLOT = 32
_BODY, _TAIL = 8, 26


def _le(text: bytes, at: int) -> int:
    """``text`` placed from byte ``at`` of a little-endian integer."""
    return int.from_bytes(text, "little") << (8 * at)


def _read_only(*tables):
    """``tables``, locked: every call of a cached table function shares them."""
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _powers_of_ten():
    """(hi, lo, hi's upper and lower 26-bit halves) of 10**(16 - E) for
    each decimal exponent E from _E_MIN: hi the double nearest 10**(16 - E)
    and lo the double nearest the rest, both from exact integer ratios.
    Built on first use, like the layout tables."""
    hi, lo = [], []
    for q in range(16 - _E_MIN, 15 - _E_MAX, -1):
        n = 10 ** abs(q)
        if q >= 0:
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            hi.append(1 / n)
            m, k = hi[-1].as_integer_ratio()
            lo.append((k - m * n) / (n * k))
    hi, lo = np.array(hi), np.array(lo)
    split = _SPLIT * hi
    hi_hi = split - (split - hi)
    return _read_only(hi, lo, hi_hi, hi - hi_hi)


@functools.cache
def _layout_tables():
    """The kernel's layouts per decimal exponent E (from _E_MIN), per
    notation class, and per 4-digit group (its ASCII and its significant
    length)."""
    es = range(_E_MIN, _E_MAX + 1)
    # class 0-20: fixed notation at E = class - 4; 21: exponent notation
    fixed = [-4 <= e <= 16 for e in es]
    cls = np.array([e + 4 if f else 21 for e, f in zip(es, fixed)])
    tails = [b"" if f else b"e%+03d" % e for e, f in zip(es, fixed)]
    tail = np.array([_le(t, _TAIL - 24) for t in tails], np.uint64)
    sep_shift = np.array([8 * (_TAIL - 24 + len(t)) for t in tails], np.uint64)
    # per class: the point's place among the 18 body bytes (17: none), the
    # integer digits, always kept, and the head for each sign
    ce = np.arange(-4, 17)
    point = np.append(np.where(ce < 0, 17, ce + 1), 1)
    whole = np.append(np.where(ce < 0, 0, ce + 1), 1)
    heads = np.zeros((22, 2), np.uint64)
    head_len = np.zeros((22, 2), np.int64)
    for c in range(22):
        prefix = b"0." + b"0" * (3 - c) if c < 4 else b""
        for neg in (0, 1):
            text = b"-" * neg + prefix
            heads[c, neg] = _le(text, _BODY - len(text))
            head_len[c, neg] = len(text)
    # body byte b is digit b before the point and digit b - 1 after it:
    # byte masks over the digit words and the words shifted up a byte
    b = np.arange(24)
    insert = np.stack([(255 * (b < point[:, None])),
                       (255 * (b > point[:, None])),
                       (46 * (b == point[:, None]))],
                      axis=1).astype(np.uint8).view(np.uint64)      # (22, 3, 3)
    # bytes kept per class, sign and count s of significant digits
    s = np.arange(1, 18)
    body = np.maximum(s, whole[:, None]) + (s > point[:, None])      # (22, 17)
    col = np.arange(_SLOT)
    tail_len = np.append(np.zeros(21, np.int64), 4)
    keep = ((col >= _BODY - head_len[:, :, None, None])
            & (col < _BODY + body[:, None, :, None])
            | (col >= _TAIL) & (col <= _TAIL + tail_len[:, None, None, None]))
    # each 4-digit group as 4 ASCII bytes, and its length less trailing zeros
    g = np.arange(10000)
    ascii4 = np.zeros(10000, np.uint64)
    sig4 = np.where(g > 0, 4, -99).astype(np.int8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        ascii4 |= (g // unit % 10 + 48).astype(np.uint64) << (8 * k)
        sig4 -= g % (10 * unit) == 0
    return _read_only(cls, tail, sep_shift, insert.transpose(2, 0, 1).copy(), heads.ravel(),
                      keep.reshape(-1, _SLOT), ascii4, sig4)


def _percent_g(v: float) -> bytes:
    """The per-value fallback of :func:`format_floats`."""
    return ("%.17g" % v).encode()


def _decimal(x: np.ndarray):
    """(D, E, fallback) of the float64 values ``x``: each value's 17
    significant digits as an integer D in [1e16, 1e17), 0 for a zero, its
    decimal exponent E as an index into the tables, and where the digits
    must come from :func:`_percent_g` instead.

    With E = floor(log10|x|) and q = 16 - E, D is x*10**q rounded
    half-even.  10**q = hi + lo from a table, and Dekker's product splits
    x*hi exactly into p + err; p is an integer when E is right.  Since
    |x*10**q| < 1.0000000000000001e17, the terms the sum r = err + fl(x*lo)
    leaves out or rounds are each below 2**-106 * 1e17 < 1.3e-15 (lo's own
    error times x, and the product's rounding), and r, below 32, rounds by
    at most 2**-49 < 1.8e-15: r is within 4.3e-15 of x*10**q - p.  D is
    p + floor(r), plus one where the remainder is above 1/2.
    The fallback takes a remainder within _TIE_TOL of 1/2; a D outside
    [1e16, 1e17), where log10 missed E or the rounding carried into an
    18th digit; and |x| outside [_FAST_MIN, _FAST_MAX), so every
    subnormal, inf and nan.
    """
    hi, lo, hi_hi, hi_lo = _powers_of_ten()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    np.copyto(a, 1.0, where=~fast)
    e = np.log10(a)
    E = np.floor(e, out=e).astype(np.intp)
    E -= _E_MIN
    p = a * hi.take(E)
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    h_hi, h_lo = hi_hi.take(E), hi_lo.take(E)
    r = a_hi * h_hi
    r -= p
    r += np.multiply(a_hi, h_lo, out=a_hi)
    r += np.multiply(a_lo, h_hi, out=h_hi)
    r += np.multiply(a_lo, h_lo, out=h_lo)
    r += np.multiply(a, lo.take(E), out=a)
    whole = np.floor(r)
    r -= whole
    D = p.astype(np.int64)
    D += whole.astype(np.int64)
    fallback = D < _D_MIN
    D += r > 0.5
    r -= 0.5
    fallback |= np.abs(r, out=r) < _TIE_TOL
    fallback |= D >= _D_MAX
    zero = x == 0
    fallback |= ~(fast | zero)
    D[zero] = 0
    E[zero] = -_E_MIN
    return D, E, fallback


def format_floats(block: np.ndarray) -> np.ndarray:
    """The CSV bytes of a 2-D float block, as uint8: each value exactly as
    ``'%.17g' % v`` gives it, followed by ``,``, or ``\\n`` at a row's end.

    :func:`_decimal` gives each value's digits and exponent.  Each value
    then fills a 32-byte slot laid out by tables per notation class, and a
    kept-byte mask per class, sign and digit count drops the rest when the
    block is compacted.  A fallback value's text is written into its slot.
    """
    cls, tail, sep_shift, insert, heads, keep_rows, ascii4, sig4 = _layout_tables()
    rows, cols = block.shape
    x = np.asarray(block, dtype=np.float64).ravel()
    D, E, fallback = _decimal(x)
    # D = d0 * 10**16 + g1 * 10**12 + g2 * 10**8 + g3 * 10**4 + g4
    top = D // 100000000
    D -= top * 100000000
    d0 = top // 100000000
    top -= d0 * 100000000
    g1, g3 = top // 10000, D // 10000
    g2 = top - g1 * 10000
    g4 = D - g3 * 10000
    del D, top
    s = sig4.take(g4) + 13                      # significant digits
    for g, offset in ((g3, 9), (g2, 5), (g1, 1)):
        np.maximum(s, sig4.take(g) + offset, out=s)
    np.maximum(s, 1, out=s)
    # the 17 digit bytes as three words, and each shifted up a byte
    a1, a2, a3, a4 = (ascii4.take(g) for g in (g1, g2, g3, g4))
    del g1, g2, g3, g4
    w1 = d0.astype(np.uint64) | 48
    w1 |= a1 << 8
    w1 |= a2 << 40
    w2 = a2 >> 24
    w2 |= a3 << 8
    w2 |= a4 << 40
    w3 = a4 >> 24
    del a1, a2, a3, a4
    c = cls.take(E)
    slot = np.empty((x.size, _SLOT // 8), np.uint64)
    for k, (w, up) in enumerate(((w1, w1 << 8),
                                 (w2, (w2 << 8) | (w1 >> 56)),
                                 (w3, (w3 << 8) | (w2 >> 56)))):
        before, after, point = insert[k].take(c, axis=0).T
        w &= before
        up &= after
        w |= up
        w |= point
        slot[:, k + 1] = w
    del w1, w2, w3
    code = c * 2
    code += np.signbit(x)
    slot[:, 0] = heads.take(code)
    sep = np.empty((rows, cols), np.uint64)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    sep = sep.ravel() << sep_shift.take(E)
    sep |= tail.take(E)
    slot[:, 3] |= sep
    code *= 17
    code += s - 1
    keep = keep_rows.take(code, axis=0)
    out = slot.view(np.uint8)
    if fallback.any():
        at = np.flatnonzero(fallback)
        texts = [_percent_g(v) + (b"\n" if i % cols == cols - 1 else b",")
                 for i, v in zip(at.tolist(), x[at].tolist())]
        out[at] = np.array(texts, dtype=f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)
        keep[at] = np.arange(_SLOT) < np.array([len(t) for t in texts])[:, None]
    return out[keep]
