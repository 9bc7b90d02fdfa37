"""GXV2 chunk codec for rolled-up points (pure NumPy, no Ray).

A chunk (the points of one conversation inside one chunk span) is stored as
two self-contained blobs: one of values, one of timestamps.

Values take one of two modes per chunk, chosen from the chunk's own points:

- RATIO: every value equals ``a / k`` bit for bit, for an integer ``k`` in
  1..255 and an integer ``|a| < 2^53``. A window mean is such a ratio
  (sum / count), and so is a decimal rounded to two places (k = 100). The
  chunk stores each ``k - 1`` and the zigzag delta of each ``a`` at fixed
  per-chunk bit widths (the decimal-structure idea of Camel, SIGMOD 2024).
  -0.0, NaN and ±inf never fit.
- XOR: the float compression of Pelkonen et al., "Gorilla: A Fast, Scalable,
  In-Memory Time Series Database" (VLDB 2015): per point, XOR with the
  previous value; '0' when identical, '10' + meaningful bits when the
  previous window of leading/trailing zeros still covers it, '11' + 5-bit
  leading-zero count + 6-bit length + meaningful bits otherwise.

The encoder writes whichever mode gives the shorter blob (RATIO on a tie).
Timestamps are delta-of-delta coded in units of the chunk's gcd of deltas,
with the token classes '0' (dod 0), '10' + 7 bits, '110' + 9 bits,
'1110' + 12 bits and '1111' + 64 bits raw. Deltas and dods wrap modulo 2^64,
so every int64 array round-trips.

Byte layout. ``varint`` is unsigned LEB128 (minimal length), ``zz`` the
zigzag map of a signed value; a payload is an MSB-first bit stream padded
with zero bits to a byte boundary and ends the blob.

======================  =========================================  ==========  ==========
blob / mode             field                                      size        present
======================  =========================================  ==========  ==========
values                  tag ``0xA0 | mode`` (0 XOR, 1 RATIO)        1 byte      always
                        n, the point count                          varint      always
values XOR              first value, float64 little-endian          8 bytes     n >= 1
                        XOR tokens of points 1..n-1                  payload     n >= 2
values RATIO            ``k0 - 1``                                   1 byte      always
                        ``zz(a0)``                                   varint      always
                        wk, bit width of ``k - 1`` (0..8)           1 byte      n >= 2
                        wa, bit width of ``zz(Δa)`` (1..64)         1 byte      n >= 2
                        points 1..n-1: ``k - 1`` in wk bits, then    payload     n >= 2
                        ``zz(a_i - a_{i-1})`` in wa bits
timestamps              tag ``0xD0``                                 1 byte      always
                        n, the point count                          varint      always
                        ``zz(t0)``                                   varint      n >= 1
                        unit, gcd of the deltas (1 if 0 or 2^63)    varint      n >= 3
                        ``zz(first delta / unit)``                   varint      n >= 2
                        dod tokens of points 2..n-1, in units       payload     n >= 3
======================  =========================================  ==========  ==========

Encoding is vectorized across every chunk of a batch: classification,
widths, token sizes and bit packing are NumPy passes over all points, and
the blobs are cut from one buffer. Only the XOR window-reuse decision is a
Python loop, over the non-zero XORs of chunks that RATIO does not already
beat. Decoding takes a whole binary column: every header is parsed and
validated at once, RATIO chunks decode with one vectorized unpack, a
segmented cumsum and one division, and XOR values and dod tokens decode in
lockstep, one NumPy step per point index over the chunks still active. A
corrupt blob raises ``ValueError`` before anything is sized from its header.

The reference (amanasci/ChronoXtract) has no compression at all; this is an
engine-side requirement from BASELINE.json's north rule ("Gorilla XOR /
delta-of-delta timestamp compression of the rolled-up points").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "encode_values",
    "decode_values",
    "decode_values_batch",
    "encode_timestamps",
    "decode_timestamps",
    "decode_timestamps_batch",
    "encode_values_batch",
    "encode_timestamps_batch",
]

_U = np.uint64
_MAGIC_V, _MAGIC_T = 0xA, 0xD  # high nibble of the tag byte
_XOR, _RATIO, _DOD = 0, 1, 0  # low nibble: the mode
_K_MAX = 255  # largest RATIO denominator
_A_MAX = 2.0**53  # RATIO numerators stay below this in magnitude
_NEG_ZERO = _U(1 << 63)  # bits of -0.0
# denominator groups _fit_k tries in turn, and its rows per 2-D block
_K_GROUPS = tuple(np.arange(lo, hi + 1, dtype=np.float64) for lo, hi in ((1, 2), (3, 8), (9, 32), (33, _K_MAX)))
_K_ALL = (np.arange(1, _K_MAX + 1, dtype=np.float64),)
_K_BLOCK = 4096

# Timestamp dod token classes, the single source for encoder and decoder.
# Class 0 = dod 0 (control bits only), classes 1-3 = bounded payloads with the
# asymmetric [-63,64) / [-255,256) / [-2047,2048) encode ranges (the decoder
# accepts the full signed payload range), class 4 = raw 64-bit.
#            (ctrl prefix, ctrl bits, payload bits)
_T_TOKENS = ((0b0, 1, 0), (0b10, 2, 7), (0b110, 3, 9), (0b1110, 4, 12), (0b1111, 4, 64))
_T_CTRL_BITS = np.array([t[0] for t in _T_TOKENS], dtype=np.uint64)
_T_CTRL_N = np.array([t[1] for t in _T_TOKENS], dtype=np.int64)
_T_PAY_N = np.array([t[2] for t in _T_TOKENS], dtype=np.int64)
# decoder: per 4-bit peek at a control prefix, the token class and from it
# the control bits, the bits consumed, the payload sign-extend shift and mask
_T_PEEK_CLASS = np.array(
    [next(c for c, (pre, nb, _) in enumerate(_T_TOKENS) if v >> (4 - nb) == pre) for v in range(16)]
)
_T_PEEK_CTRL = _T_CTRL_N[_T_PEEK_CLASS].astype(np.uint64)
_T_PEEK_USED = (_T_CTRL_N + _T_PAY_N)[_T_PEEK_CLASS]
_T_PEEK_SHIFT = np.minimum(64 - _T_PAY_N, 63)[_T_PEEK_CLASS]
_T_PEEK_MASK = np.where(_T_PAY_N > 0, -1, 0)[_T_PEEK_CLASS]

_POW2 = _U(1) << np.arange(64, dtype=np.uint64)


# ---- integer helpers ----------------------------------------------------------


def _bitlen(u: np.ndarray) -> np.ndarray:
    """Bits needed for each uint64 (0 for 0)."""
    return np.searchsorted(_POW2, u, side="right").astype(np.int64)


def _varint_len(u: np.ndarray) -> np.ndarray:
    return np.maximum(1, (_bitlen(u) + 6) // 7)


def _zz(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return ((x << 1) ^ (x >> 63)).view(np.uint64)


def _unzz(u: np.ndarray) -> np.ndarray:
    return ((u >> _U(1)) ^ (_U(0) - (u & _U(1)))).view(np.int64)


def _counts(starts: np.ndarray, size: int) -> np.ndarray:
    return np.diff(np.append(starts, size))


def _ranges(first: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(first[i], first[i] + cnt[i])``."""
    return np.repeat(first - (np.cumsum(cnt) - cnt), cnt) + np.arange(int(cnt.sum()))


def _per_chunk(ufunc, x: np.ndarray, starts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over each chunk's points (0 for an empty chunk)."""
    out = np.zeros(starts.size, x.dtype)
    ne = n > 0
    if ne.any():
        out[ne] = ufunc.reduceat(x, starts[ne])
    return out


def _firsts(x: np.ndarray, starts: np.ndarray, n: np.ndarray) -> np.ndarray:
    out = np.zeros(starts.size, x.dtype)
    out[n > 0] = x[starts[n > 0]]
    return out


def _seg_cumsum(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Inclusive cumsum of ``x`` restarted at every chunk (int64, wrapping)."""
    cs = np.cumsum(x)
    ne = n > 0
    first = (np.cumsum(n) - n)[ne]
    return cs - np.repeat(cs[first] - x[first], n[ne])


# ---- encoder ------------------------------------------------------------------


def _fit_k(x: np.ndarray) -> np.ndarray:
    """Smallest k in 1..255 with ``x == a / k`` bit for bit for an integer
    ``|a| < 2^53``, per value; 0 where none fits. -0.0 never fits (an int64
    numerator has no sign of zero), NaN never compares equal, and a value
    whose smallest k needs ``|a| >= 2^53`` needs it for every larger k too.
    A few values try every k at once; many try the small k groups first,
    since most values that fit at all fit there."""
    k = np.zeros(x.size, np.int64)
    todo = np.flatnonzero(x.view(np.uint64) != _NEG_ZERO)
    with np.errstate(over="ignore", invalid="ignore"):
        for ks in _K_ALL if x.size <= 16 else _K_GROUPS:
            for lo in range(0, todo.size, _K_BLOCK):
                blk = todo[lo : lo + _K_BLOCK]
                a = np.rint(x[blk, None] * ks)
                a /= ks
                hit = a == x[blk, None]
                found = hit.any(axis=1)
                k[blk[found]] = hit.argmax(axis=1)[found] + int(ks[0])
            todo = todo[k[todo] == 0]
            if not todo.size:
                break
        big = np.flatnonzero(k)
        k[big[~(np.abs(np.rint(x[big] * k[big])) < _A_MAX)]] = 0
    return k


def _ratio_k(v: np.ndarray, starts: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point its RATIO denominator, 0 unless every point of its chunk
    has one; per chunk whether it does. Points are tested in rounds growing
    eightfold (each chunk's first point, the next 8, the next 64, ...) and a
    chunk leaves at the first round with a point that no k fits, so
    arbitrary floats cost one search per chunk."""
    k = np.zeros(v.size, np.int64)
    alive = n > 0
    lo, size = 0, 1
    while True:
        cs = np.flatnonzero(alive & (n > lo))
        if not cs.size:
            break
        cnt = np.minimum(n[cs] - lo, size)
        idx = _ranges(starts[cs] + lo, cnt)
        k[idx] = kk = _fit_k(v[idx])
        alive[np.repeat(cs, cnt)[kk == 0]] = False
        lo, size = lo + size, 8 * size
    k[~np.repeat(alive, n)] = 0
    return k, alive


def _clz_ctz(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading (clamped to 31, so the 5-bit field holds it) and trailing zero
    counts of each uint64; 64 for 0."""
    lz = np.full(x.size, 64, dtype=np.int64)
    tz = np.full(x.size, 64, dtype=np.int64)
    nz = x != 0
    if nz.any():
        xn = x[nz]
        e = ((xn.astype(np.float64).view(np.uint64) >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1023
        # float rounding can push x just past 2^e; correct where 2^e > x
        too_big = (e >= 64) | ((e < 64) & ((_U(1) << np.minimum(e, 63).astype(np.uint64)) > xn))
        lz[nz] = 63 - (e - too_big)
        low = xn & (_U(0) - xn)  # an exact power of two, so its exponent is exact
        tz[nz] = ((low.astype(np.float64).view(np.uint64) >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1023
    return np.minimum(lz, 31), tz


def _xor_windows(lz: np.ndarray, tz: np.ndarray, idx: np.ndarray, chunk: np.ndarray):
    """For the non-zero XORs at points ``idx`` (in chunk order): whether each
    opens a new window ('11') and the window's (lz, length) each point uses.
    A point reuses the last window when its own leading and trailing zeros
    both cover it; the first non-zero XOR of a chunk always opens one: its
    key ``lz - 64 * chunk`` is below every key of an earlier chunk."""
    L, T = lz[idx], tz[idx]
    opens = []
    pl = pt = 1 << 62
    for i, (l, t) in enumerate(zip((L - 64 * chunk[idx]).tolist(), T.tolist())):
        if l < pl or t < pt:
            pl = l
            pt = t
            opens.append(i)
    new = np.zeros(idx.size, bool)
    new[opens] = True
    src = np.maximum.accumulate(np.where(new, np.arange(idx.size), 0))
    return new, L[src], 64 - L[src] - T[src]


def _or_runs(words: np.ndarray, at: np.ndarray, vals: np.ndarray) -> None:
    """``words[at] |= vals`` for non-decreasing ``at`` with repeats."""
    if not at.size:
        return
    run = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
    words[at[run]] |= np.bitwise_or.reduceat(vals, run)


def _assemble(fields, sb: np.ndarray, sn: np.ndarray, row_chunk: np.ndarray, n_chunks: int) -> list:
    """Blobs from header fields and payload tokens.

    ``fields`` lists, in blob order, ``(kind, per-chunk uint64 values,
    per-chunk presence)`` with kind ``"u8"``, ``"f64"`` (8 bytes, little
    endian) or ``"varint"``. Tokens come as slots: one row per payload
    point, in chunk order (``row_chunk``), each slot ``sn`` bits (0..64, 0
    for an empty slot) holding the low bits of ``sb``. Each chunk's tokens
    are packed MSB-first after its header and padded to a byte."""
    lens = []
    for kind, vals, present in fields:
        ln = _varint_len(vals) if kind == "varint" else {"u8": 1, "f64": 8}[kind]
        lens.append(np.where(present, ln, 0))
    hdr = np.sum(lens, axis=0)
    pay_bits = np.bincount(row_chunk, weights=sn.sum(axis=1), minlength=n_chunks).astype(np.int64)
    off = np.concatenate(([0], np.cumsum(hdr + (pay_bits + 7) // 8)))
    words = np.zeros(int(off[-1]) // 8 + 2, np.uint64)
    if sn.size:
        flat = sn.ravel()
        cum = (np.cumsum(flat) - flat).reshape(sn.shape)  # bit offsets in one stream
        first = np.append(cum[:, 0], 0)[np.searchsorted(row_chunk, np.arange(n_chunks))]
        pos = cum + (8 * (off[:-1] + hdr) - first)[row_chunk][:, None]
        keep = sn > 0
        pos, bits, nb = pos[keep], sb[keep], sn[keep]
        end = (pos & 63) + nb
        fits = end <= 64
        head = (bits << np.where(fits, 64 - end, 0).astype(np.uint64)) >> np.where(fits, 0, end - 64).astype(np.uint64)
        _or_runs(words, pos >> 6, head)
        sp = ~fits
        _or_runs(words, (pos[sp] >> 6) + 1, bits[sp] << (128 - end[sp]).astype(np.uint64))
    buf = words.astype(">u8").view(np.uint8)
    # header bytes, every field at once: byte j of a field is bits 8j.. of
    # a fixed-size field, or 7-bit group j (with its continuation bit) of a
    # varint
    at, cols = off[:-1].copy(), []
    for (kind, vals, present), ln in zip(fields, lens):
        cols.append((at[present], vals[present], ln[present], np.full(int(present.sum()), kind == "varint")))
        at += ln
    p, x, ln, var = (np.concatenate(c) for c in zip(*cols))
    j = np.arange(int(ln.max(initial=0)), dtype=np.uint64)
    step = np.where(var, _U(7), _U(8))[:, None]
    byte = (x[:, None] >> (step * j)) & ((_U(1) << step) - _U(1))
    byte |= np.where(var[:, None] & (j < (ln[:, None] - 1).astype(np.uint64)), _U(0x80), _U(0))
    used = j < ln[:, None].astype(np.uint64)
    buf[(p[:, None] + j.astype(np.int64))[used]] = byte[used]
    data = buf[: int(off[-1])].tobytes()
    o = off.tolist()
    return [data[o[i] : o[i + 1]] for i in range(n_chunks)]


def encode_values_batch(values: np.ndarray, starts: np.ndarray) -> list:
    """Encode many chunks at once; ``starts`` delimits the chunks of the
    concatenated ``values``. Each blob depends only on its own chunk's
    points, so a chunk encodes to the same bytes alone or in any batch."""
    v = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    starts = np.asarray(starts, dtype=np.int64)
    n = _counts(starts, v.size)
    bits = v.view(np.uint64)
    chunk = np.repeat(np.arange(starts.size), n)
    rest = np.ones(v.size, bool)  # points after their chunk's first
    rest[starts[n > 0]] = False

    # XOR: a lower bound on each chunk's size, from each point's own window
    xor = np.zeros(v.size, np.uint64)
    xor[1:] = bits[1:] ^ bits[:-1]
    xor[~rest] = 0
    nz = xor != 0
    lz, tz = _clz_ctz(xor)
    xor_hdr = 1 + _varint_len(n.astype(np.uint64)) + 8 * (n >= 1)
    lb = np.where(nz, 66 - lz - tz, rest.astype(np.int64))
    xor_bytes = xor_hdr + (_per_chunk(np.add, lb, starts, n) + 7) // 8

    # RATIO: numerators, their deltas and the per-chunk field widths
    k, fits = _ratio_k(v, starts, n)
    a = np.rint(np.where(k > 0, v, 0.0) * k).astype(np.int64)
    da = np.zeros(v.size, np.int64)
    da[1:] = a[1:] - a[:-1]
    zda = np.where(rest, _zz(da), _U(0))
    km1 = np.where(rest & (k > 0), k - 1, 0).astype(np.uint64)
    wk = _bitlen(_per_chunk(np.maximum, km1, starts, n))
    wa = np.maximum(1, _bitlen(_per_chunk(np.maximum, zda, starts, n)))
    a0, k0 = _firsts(a, starts, n), _firsts(k, starts, n)
    ratio_bytes = 3 + _varint_len(n.astype(np.uint64)) + _varint_len(_zz(a0))
    ratio_bytes += np.where(n >= 2, 2 + ((n - 1) * (wk + wa) + 7) // 8, 0)
    ratio = fits & (ratio_bytes <= xor_bytes)

    # exact XOR windows for the chunks the bound did not settle
    xp = np.flatnonzero(nz & ~np.repeat(ratio, n))
    new, ulz, ulen = _xor_windows(lz, tz, xp, chunk)
    xbits = rest.astype(np.int64)
    xbits[xp] = 2 + 11 * new + ulen
    xor_bytes = xor_hdr + (_per_chunk(np.add, xbits, starts, n) + 7) // 8
    ratio |= fits & (ratio_bytes <= xor_bytes)

    # token slots per point after the first: XOR (ctrl, meta, payload) or
    # RATIO (k - 1, zz(delta a))
    pts = np.flatnonzero(rest)
    sb = np.zeros((pts.size, 3), np.uint64)
    sn = np.zeros((pts.size, 3), np.int64)
    is_r = ratio[chunk[pts]]
    rp, c = pts[is_r], chunk[pts[is_r]]
    sb[is_r, 0], sn[is_r, 0] = km1[rp], wk[c]
    sb[is_r, 1], sn[is_r, 1] = zda[rp], wa[c]
    is_x = ~is_r
    sn[is_x, 0] = 1 + nz[pts[is_x]]  # '0' or '10'/'11'
    keep = ~ratio[chunk[xp]]
    xrow = (np.cumsum(rest) - 1)[xp[keep]]
    new, ulz, ulen = new[keep], ulz[keep], ulen[keep]
    sb[xrow, 0] = np.where(new, 0b11, 0b10).astype(np.uint64)
    sb[xrow, 1] = ((ulz << 6) | (ulen & 63)).astype(np.uint64)
    sn[xrow, 1] = 11 * new
    sb[xrow, 2] = xor[xp[keep]] >> (64 - ulz - ulen).astype(np.uint64)
    sn[xrow, 2] = ulen

    always = np.ones(starts.size, bool)
    x1, r2 = ~ratio & (n >= 1), ratio & (n >= 2)
    fields = [
        ("u8", np.where(ratio, (_MAGIC_V << 4) | _RATIO, (_MAGIC_V << 4) | _XOR).astype(np.uint64), always),
        ("varint", n.astype(np.uint64), always),
        ("f64", _firsts(bits, starts, n), x1),
        ("u8", np.maximum(k0 - 1, 0).astype(np.uint64), ratio),
        ("varint", _zz(a0), ratio),
        ("u8", wk.astype(np.uint64), r2),
        ("u8", wa.astype(np.uint64), r2),
    ]
    return _assemble(fields, sb, sn, chunk[pts], starts.size)


def _dod_class(dod: np.ndarray) -> np.ndarray:
    """Token class index (into _T_TOKENS) for each delta-of-delta."""
    cls = np.full(dod.size, 4, dtype=np.int64)
    cls[(dod >= -2047) & (dod < 2048)] = 3
    cls[(dod >= -255) & (dod < 256)] = 2
    cls[(dod >= -63) & (dod < 64)] = 1
    cls[dod == 0] = 0
    return cls


def encode_timestamps_batch(ts_us: np.ndarray, starts: np.ndarray) -> list:
    """Delta-of-delta encode many chunks at once; like
    ``encode_values_batch``, each blob depends only on its own chunk."""
    t = np.ascontiguousarray(np.asarray(ts_us, dtype=np.int64))
    starts = np.asarray(starts, dtype=np.int64)
    n = _counts(starts, t.size)
    chunk = np.repeat(np.arange(starts.size), n)
    rest = np.ones(t.size, bool)
    rest[starts[n > 0]] = False
    d = np.zeros(t.size, np.int64)
    d[1:] = t[1:] - t[:-1]  # wraps modulo 2^64, as the decoder's sums do
    d[~rest] = 0
    du = d.view(np.uint64)
    g = _per_chunk(np.gcd, np.where(d < 0, _U(0) - du, du), starts, n)
    unit = np.where((n >= 3) & (g >= 1) & (g < _U(1 << 63)), g, _U(1)).astype(np.int64)
    q = d // np.repeat(unit, n)  # exact: unit divides every delta of its chunk
    at_dod = rest.copy()
    at_dod[starts[n > 1] + 1] = False
    pts = np.flatnonzero(at_dod)
    dod = q[pts] - q[pts - 1]  # wraps when unit is 1
    cls = _dod_class(dod)
    pay = _T_PAY_N[cls]
    mask = np.where(pay >= 64, _U(0xFFFFFFFFFFFFFFFF), (_U(1) << np.minimum(pay, 63).astype(np.uint64)) - _U(1))
    sb = np.stack((_T_CTRL_BITS[cls], dod.view(np.uint64) & mask), axis=1)
    sn = np.stack((_T_CTRL_N[cls], pay), axis=1)
    q1 = np.zeros(starts.size, np.int64)
    q1[n >= 2] = q[starts[n >= 2] + 1]
    always = np.ones(starts.size, bool)
    fields = [
        ("u8", np.full(starts.size, (_MAGIC_T << 4) | _DOD, np.uint64), always),
        ("varint", n.astype(np.uint64), always),
        ("varint", _zz(_firsts(t, starts, n)), n >= 1),
        ("varint", unit.astype(np.uint64), n >= 3),
        ("varint", _zz(q1), n >= 2),
    ]
    return _assemble(fields, sb, sn, chunk[pts], starts.size)


def encode_values(values: np.ndarray) -> bytes:
    """One chunk's values blob (``encode_values_batch`` of one chunk)."""
    return encode_values_batch(values, np.zeros(1, np.int64))[0]


def encode_timestamps(ts_us: np.ndarray) -> bytes:
    """One chunk's timestamps blob (``encode_timestamps_batch`` of one chunk)."""
    return encode_timestamps_batch(ts_us, np.zeros(1, np.int64))[0]


# ---- decoder ------------------------------------------------------------------


def _blob_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """(int64 offsets, uint8 data) of a binary or large_binary column, which
    may be a ChunkedArray and may be sliced; blob bytes are not copied
    unless several chunks must be combined."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if not (pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)):
        raise ValueError(f"Gorilla blobs must be a binary column, not {col.type}")
    if col.null_count:
        raise ValueError("null Gorilla blob")
    if len(col) == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint8)
    _, off_buf, data_buf = col.buffers()
    off_type = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offsets = np.frombuffer(off_buf, dtype=off_type)[col.offset : col.offset + len(col) + 1]
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.empty(0, np.uint8)
    return offsets.astype(np.int64), data


class _Blobs:
    """Header cursor over a column of blobs.

    ``mode`` and ``n`` (uint64, unvalidated until ``bound``) are read for
    every blob; the field readers take the blobs that hold the field and
    advance their cursor ``pos``, raising ``ValueError`` where a field runs
    past its blob's end."""

    def __init__(self, col, magic: int, modes: tuple):
        offsets, self.data = _blob_buffers(col)
        self.pos, self.end = offsets[:-1].copy(), offsets[1:]
        if (self.end - self.pos < 2).any():
            raise ValueError("truncated Gorilla blob header")
        tag = self.data[self.pos]
        if ((tag >> 4) != magic).any():
            raise ValueError(f"bad Gorilla blob magic (expected {magic:#x}_)")
        self.mode = tag & 15
        if not np.isin(self.mode, modes).all():
            raise ValueError("bad Gorilla blob mode")
        self.pos += 1
        self.n = self.varint(np.arange(self.pos.size))

    def _take(self, sel: np.ndarray, size: int) -> np.ndarray:
        p = self.pos[sel]
        if (p + size > self.end[sel]).any():
            raise ValueError("truncated Gorilla blob header")
        self.pos[sel] += size
        return p

    def u8(self, sel: np.ndarray) -> np.ndarray:
        return self.data[self._take(sel, 1)].astype(np.int64)

    def f64_bits(self, sel: np.ndarray) -> np.ndarray:
        p = self._take(sel, 8)
        view = np.ndarray((max(self.data.size - 7, 0),), dtype="<u8", buffer=self.data, strides=(1,))
        return view[p].astype(np.uint64)

    def varint(self, sel: np.ndarray) -> np.ndarray:
        p, e = self.pos[sel], self.end[sel]
        at = p[:, None] + np.arange(10)
        inside = at < e[:, None]
        b = np.where(inside, self.data[np.minimum(at, self.data.size - 1)], 0).astype(np.uint64)
        stop = inside & (b < 0x80)
        if not stop.any(axis=1).all():
            raise ValueError("Gorilla varint runs past its blob or overflows 64 bits")
        ln = stop.argmax(axis=1) + 1
        last = b[np.arange(sel.size), ln - 1]
        if ((ln == 10) & (last > 1)).any():
            raise ValueError("Gorilla varint overflows 64 bits")
        if ((ln > 1) & (last == 0)).any():
            raise ValueError("non-minimal Gorilla varint")
        parts = np.where(np.arange(10) < ln[:, None], (b & _U(0x7F)) << (_U(7) * np.arange(10, dtype=np.uint64)), _U(0))
        self.pos[sel] += ln
        return np.bitwise_or.reduce(parts, axis=1) if sel.size else np.zeros(0, np.uint64)

    def bound(self, free: int) -> tuple[np.ndarray, np.ndarray]:
        """Point counts (int64) and payload bytes, once every header is read.
        Each point past the first ``free`` takes at least one payload bit,
        and a blob with no such point has no payload."""
        pay = self.end - self.pos
        if (self.n > (8 * pay + free).astype(np.uint64)).any():
            raise ValueError("Gorilla point count exceeds what its payload can hold")
        n = self.n.astype(np.int64)
        if ((n <= free) & (pay != 0)).any():
            raise ValueError("Gorilla blob length does not match its header")
        return n, pay

    def payload_words(self, sel: np.ndarray, pay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The payloads of blobs ``sel`` as big-endian uint64 words, each
        starting at a fresh word (``base``), zero-padded and followed by three
        zero words so a three-word window gather never leaves the array."""
        size = pay[sel]
        nw = (size + 7) // 8
        base = np.cumsum(nw) - nw
        data = np.concatenate((self.data, np.zeros(8, np.uint8)))
        view = np.ndarray((data.size - 7,), dtype=">u8", buffer=data, strides=(1,))
        words = np.zeros(int(nw.sum()) + 3, np.uint64)
        words[:-3] = view[np.repeat(self.pos[sel] - 8 * base, nw) + 8 * np.arange(int(nw.sum()))]
        last = (base + nw - 1)[nw > 0]  # drop the bytes past each payload's end
        words[last] &= _U(0xFFFFFFFFFFFFFFFF) << (_U(8) * (8 * nw - size)[nw > 0].astype(np.uint64))
        return words, base


def _window(words: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """128 bits of the stream from each bit position, as (high, low) words.
    Word indices are clipped, so a corrupt lane reads garbage rather than
    out of range; the end-of-payload check catches it."""
    w = np.minimum(pos >> 6, words.size - 3)
    off = (pos & 63).view(np.uint64)
    r = _U(63) - off  # w >> (64 - off) as (w >> 1) >> (63 - off): no shift by 64
    a, b, c = words[w], words[w + 1], words[w + 2]
    return (a << off) | ((b >> _U(1)) >> r), (b << off) | ((c >> _U(1)) >> r)


def _top(hi: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The top ``width`` (0..64) bits of each word."""
    width = width.astype(np.uint64)
    return np.where(width > 0, hi >> (_U(64) - np.maximum(width, _U(1))), _U(0))


def _check_end(words: np.ndarray, end: np.ndarray, start: np.ndarray, pay: np.ndarray) -> None:
    """Each lane's stream, from bit ``start`` to bit ``end``, must end in the
    last byte of its payload, and the padding after it must be zero bits."""
    used = end - start
    pad = 8 * pay - used
    if ((pad < 0) | (pad > 7)).any():
        raise ValueError("Gorilla token stream does not end at its payload end")
    if _top(_window(words, end)[0], pad).any():
        raise ValueError("Gorilla payload padding is not zero")


def _lockstep(n: np.ndarray, first_step: int):
    """Lane order (point count descending) and, for each step
    ``i >= first_step``, how many lanes still have a point ``i``; always a
    prefix of that order."""
    order = np.argsort(-n, kind="stable")
    neg = -n[order]
    top = int(-neg[0]) if neg.size else 0
    steps = np.arange(first_step, max(top, first_step))
    return order, np.searchsorted(neg, -steps, side="left").tolist()


def decode_values_batch(col) -> tuple[np.ndarray, np.ndarray]:
    """Decode a binary column of values blobs. Returns every chunk's values
    concatenated (float64) and the per-chunk point counts."""
    bl = _Blobs(col, _MAGIC_V, (_XOR, _RATIO))
    xs, rs = np.flatnonzero(bl.mode == _XOR), np.flatnonzero(bl.mode == _RATIO)
    if (bl.n[rs] == 0).any():
        raise ValueError("bad Gorilla blob mode: an empty RATIO blob")
    x1 = xs[bl.n[xs] >= 1]
    first = bl.f64_bits(x1)
    k0 = bl.u8(rs) + 1
    a0 = _unzz(bl.varint(rs))
    r2 = rs[bl.n[rs] >= 2]
    wk, wa = bl.u8(r2), bl.u8(r2)
    if (wk > 8).any() or (wa < 1).any() or (wa > 64).any():
        raise ValueError("Gorilla RATIO field width out of range")
    n, pay = bl.bound(1)
    rec = wk + wa
    if (pay[r2] != ((n[r2] - 1) * rec + 7) // 8).any():
        raise ValueError("Gorilla RATIO payload length does not match its header")
    out = np.empty(int(n.sum()), dtype=np.uint64)
    dst = np.cumsum(n) - n
    out[dst[x1]] = first

    # XOR chunks: lockstep over points 1..n-1
    lanes = xs[n[xs] >= 2]
    words, base = bl.payload_words(lanes, pay)
    order, active = _lockstep(n[lanes], 1)
    lanes, base, dl = lanes[order], base[order], dst[lanes[order]]
    prev = out[dl]
    pos = base * 64  # bit cursor into words, per lane
    lz = np.zeros(lanes.size, dtype=np.uint64)
    ln = np.full(lanes.size, 64, dtype=np.uint64)
    for i, k in enumerate(active, start=1):
        hi, lo = _window(words, pos[:k])
        nz = hi >> _U(63)  # control '0' → repeat the previous value
        is11 = (hi >> _U(62)) == 3  # '11' → new lz/len window from the 11-bit meta
        if is11.any():
            meta = (hi >> _U(51)) & _U(0x7FF)
            np.copyto(lz[:k], meta >> _U(6), where=is11)
            np.copyto(ln[:k], ((meta - _U(1)) & _U(63)) + _U(1), where=is11)  # len 64 stored as 0
            if (lz[:k] + ln[:k] > 64).any():
                raise ValueError("Gorilla value window wider than 64 bits")
        s = np.where(is11, _U(13), _U(2))
        payload = ((hi << s) | (lo >> (_U(64) - s))) >> (_U(64) - ln[:k])
        prev[:k] ^= (payload << (_U(64) - lz[:k] - ln[:k])) & (_U(0) - nz)
        out[dl[:k] + i] = prev[:k]
        pos[:k] += (_U(1) + nz * (s + ln[:k] - _U(1))).view(np.int64)
    _check_end(words, pos, base * 64, pay[lanes])

    # RATIO chunks: fixed-width records, one unpack for every point
    words, base = bl.payload_words(r2, pay)
    m = n[r2] - 1
    rec_pos = np.repeat(base * 64, m) + _ranges(np.zeros(r2.size, np.int64), m) * np.repeat(rec, m)
    lane_wk = np.repeat(wk, m)
    km1 = _top(_window(words, rec_pos)[0], lane_wk)
    dz = _top(_window(words, rec_pos + lane_wk)[0], np.repeat(wa, m))
    _check_end(words, base * 64 + m * rec, base * 64, pay[r2])
    nr = n[rs]
    ka = np.empty(int(nr.sum()), np.int64)
    da = np.empty(int(nr.sum()), np.int64)
    rfirst = np.cumsum(nr) - nr
    ka[rfirst], da[rfirst] = k0, a0
    rest = np.ones(ka.size, bool)
    rest[rfirst] = False
    ka[rest], da[rest] = km1.astype(np.int64) + 1, _unzz(dz)
    a = _seg_cumsum(da, nr)
    if (ka > _K_MAX).any() or (a >= 1 << 53).any() or (a <= -(1 << 53)).any():
        raise ValueError("Gorilla RATIO point out of range")
    out[_ranges(dst[rs], nr)] = (a.astype(np.float64) / ka).view(np.uint64)
    return out.view(np.float64), n


def decode_timestamps_batch(col) -> tuple[np.ndarray, np.ndarray]:
    """Decode a binary column of timestamps blobs. Returns every chunk's
    timestamps concatenated (int64) and the per-chunk point counts."""
    bl = _Blobs(col, _MAGIC_T, (_DOD,))
    idx = np.arange(bl.n.size)
    s1, s3, s2 = idx[bl.n >= 1], idx[bl.n >= 3], idx[bl.n >= 2]
    t0 = _unzz(bl.varint(s1))
    unit = bl.varint(s3)
    if ((unit == 0) | (unit >= _U(1 << 63))).any():
        raise ValueError("Gorilla timestamp unit out of range")
    q1 = _unzz(bl.varint(s2))
    n, pay = bl.bound(2)
    q = np.zeros(int(n.sum()), dtype=np.int64)  # per point: delta / unit
    dst = np.cumsum(n) - n
    q[dst[s2] + 1] = q1

    lanes = s3
    words, base = bl.payload_words(lanes, pay)
    order, active = _lockstep(n[lanes], 2)
    lanes, base, dl = lanes[order], base[order], dst[lanes[order]]
    cur = q1[np.searchsorted(s2, lanes)]
    pos = base * 64
    for i, k in enumerate(active, start=2):
        hi, lo = _window(words, pos[:k])
        peek = hi >> _U(60)
        cb = _T_PEEK_CTRL[peek]
        x = ((hi << cb) | (lo >> (_U(64) - cb))).view(np.int64)
        cur[:k] += (x >> _T_PEEK_SHIFT[peek]) & _T_PEEK_MASK[peek]  # arithmetic shift sign-extends
        q[dl[:k] + i] = cur[:k]
        pos[:k] += _T_PEEK_USED[peek]
    _check_end(words, pos, base * 64, pay[lanes])

    units = np.ones(n.size, np.int64)
    units[s3] = unit.view(np.int64)
    x = q * np.repeat(units, n)  # wraps modulo 2^64, as the encoder's deltas did
    x[dst[s1]] = t0
    return _seg_cumsum(x, n), n


def decode_values(data: bytes) -> np.ndarray:
    """Inverse of encode_values, for one blob."""
    return decode_values_batch(pa.array([data], pa.binary()))[0]


def decode_timestamps(data: bytes) -> np.ndarray:
    """Inverse of encode_timestamps, for one blob."""
    return decode_timestamps_batch(pa.array([data], pa.binary()))[0]
