"""Gorilla-style compression for rolled-up points (pure NumPy, no Ray).

Implements the two stream codecs from Pelkonen et al., "Gorilla: A Fast,
Scalable, In-Memory Time Series Database" (VLDB 2015, public paper):

- values: XOR float compression — per point, XOR with the previous value;
  '0' when identical, '10' + meaningful bits when the leading/trailing-zero
  window of the previous XOR still covers it, '11' + 6-bit leading-zero count
  + 6-bit length + meaningful bits otherwise.
- timestamps: delta-of-delta int compression — '0' for dod == 0, then
  widening ranges ('10' 7 bits / '110' 9 bits / '1110' 12 bits / '1111' 64
  bits raw) chosen to fit microsecond-resolution transcript data.

Encoding is vectorized: classification, control bits and payloads are
computed with NumPy and packed via a bitwise_or.at scatter into 64-bit words.
Decoding is batched too: ``decode_values_batch`` / ``decode_timestamps_batch``
take a whole binary column of blobs, validate every header at once, gather all
payload words into one array and decode all chunks in lockstep, one NumPy step
per point index over the chunks still active at that index. Round-trip is
bit-exact, asserted in tests; a corrupt blob raises ``ValueError`` before
anything is sized from its header.

The reference (amanasci/ChronoXtract) has no compression at all — this is an
engine-side requirement from BASELINE.json's north rule ("Gorilla XOR /
delta-of-delta timestamp compression of the rolled-up points").
"""

from __future__ import annotations

import struct

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

_MAGIC_V = b"GXV1"
_MAGIC_T = b"GDT1"


def _pack_bits(bits: np.ndarray, nbits: np.ndarray) -> bytes:
    """Pack a token stream into a big-endian-within-word bitstream.

    ``bits[i]`` holds the token payload in its low ``nbits[i]`` bits
    (nbits <= 64). Tokens are laid out MSB-first inside consecutive uint64
    words. Returns the packed words as little-endian bytes plus the total bit
    count prefix is left to the caller.
    """
    nbits = nbits.astype(np.int64)
    if nbits.size == 0:
        return b""
    offsets = np.concatenate(([0], np.cumsum(nbits)))[:-1]
    total = int(offsets[-1] + nbits[-1])
    n_words = (total + 63) // 64
    words = np.zeros(n_words + 1, dtype=np.uint64)  # +1 pad for straddle
    word_idx = offsets >> 6
    bit_in = offsets & 63  # int64
    b = bits.astype(np.uint64)
    # place MSB-first: token occupies bits [bit_in, bit_in+nb) from the top
    shift1 = 64 - bit_in - nbits  # int64; negative → straddles into next word
    fits = shift1 >= 0
    s_left = np.where(fits, shift1, 0).astype(np.uint64)
    s_right = np.where(fits, 0, -shift1).astype(np.uint64)
    first = np.where(fits, b << s_left, b >> s_right)
    np.bitwise_or.at(words, word_idx, first.astype(np.uint64))
    if (~fits).any():
        sel = ~fits
        rem = (-shift1[sel]).astype(np.uint64)  # bits spilling into next word
        second = (b[sel] << (np.uint64(64) - rem)).astype(np.uint64)
        np.bitwise_or.at(words, word_idx[sel] + 1, second)
    return words[:n_words].astype(">u8").tobytes()


def encode_values(values: np.ndarray) -> bytes:
    """Gorilla XOR-compress a float64 array. Layout:
    magic | u32 count | f64 first | u64 total_bits | packed tokens."""
    v = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0:
        return _MAGIC_V + struct.pack("<I", 0)
    bits_v = v.view(np.uint64)
    header = _MAGIC_V + struct.pack("<I", n) + struct.pack("<d", float(v[0]))
    if n == 1:
        return header + struct.pack("<Q", 0)
    xor = bits_v[1:] ^ bits_v[:-1]

    # leading zeros: exponent trick with power-of-two rounding correction
    def _clz64(x: np.ndarray) -> np.ndarray:
        lz = np.full(x.shape, 64, dtype=np.int64)
        nzm = x != 0
        xf = x[nzm].astype(np.float64)
        e = ((xf.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - 1023
        # float rounding can push x just past 2^e; correct where 2^e > x
        too_big = (e >= 64) | ((e < 64) & ((np.uint64(1) << np.minimum(e, 63).astype(np.uint64)) > x[nzm]))
        e = e - too_big.astype(np.int64)
        lz[nzm] = 63 - e
        return lz

    def _ctz64(x: np.ndarray) -> np.ndarray:
        tz = np.full(x.shape, 64, dtype=np.int64)
        nzm = x != 0
        lowbit = x[nzm] & (np.uint64(0) - x[nzm])
        # lowbit is an exact power of two → exponent is exact
        e = ((lowbit.astype(np.float64).view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - 1023
        tz[nzm] = e
        return tz

    lz = np.minimum(_clz64(xor), 31)  # clamp so 5/6-bit fields always fit
    tz = _ctz64(xor)
    # sequential window-reuse decision (prev meaningful-bit window), per paper
    m = xor.size
    ctrl = np.empty(m, dtype=np.uint8)  # 0:'0' 1:'10' 2:'11'
    use_lz = np.empty(m, dtype=np.int64)
    use_len = np.empty(m, dtype=np.int64)
    prev_lz, prev_tz = -1, -1
    lz_l, tz_l, xz = lz.tolist(), tz.tolist(), (xor != 0).tolist()
    for i in range(m):
        if not xz[i]:
            ctrl[i] = 0
            use_lz[i] = 0
            use_len[i] = 0
            continue
        if prev_lz >= 0 and lz_l[i] >= prev_lz and tz_l[i] >= prev_tz:
            ctrl[i] = 1
            use_lz[i] = prev_lz
            use_len[i] = 64 - prev_lz - prev_tz
        else:
            ctrl[i] = 2
            prev_lz, prev_tz = lz_l[i], tz_l[i]
            use_lz[i] = prev_lz
            use_len[i] = 64 - prev_lz - prev_tz
    # token stream: control token then (for ctrl==2) meta token then payload
    is0, is10, is11 = ctrl == 0, ctrl == 1, ctrl == 2
    n_tok = m + is11.sum() + (is10 | is11).sum()
    tok_bits = np.zeros(n_tok, dtype=np.uint64)
    tok_n = np.zeros(n_tok, dtype=np.int64)
    # interleave: for each i: ctrl token; [meta]; [payload]
    tok_per = 1 + (is11).astype(np.int64) + (is10 | is11).astype(np.int64)
    tok_off = np.concatenate(([0], np.cumsum(tok_per)))[:-1]
    # ctrl tokens
    tok_bits[tok_off] = np.where(is0, 0, np.where(is10, 0b10, 0b11)).astype(np.uint64)
    tok_n[tok_off] = np.where(is0, 1, 2)
    # meta tokens for ctrl==2: 5-bit lz + 6-bit len (len 64 stored as 0)
    meta_pos = tok_off[is11] + 1
    stored_len = np.where(use_len[is11] == 64, 0, use_len[is11])
    tok_bits[meta_pos] = ((use_lz[is11].astype(np.uint64)) << np.uint64(6)) | stored_len.astype(np.uint64)
    tok_n[meta_pos] = 11
    # payload tokens: xor >> window_tz where window_tz = 64 - lz - len
    pay_sel = is10 | is11
    pay_pos = tok_off[pay_sel] + 1 + is11[pay_sel].astype(np.int64)
    win_tz = (64 - use_lz[pay_sel] - use_len[pay_sel]).astype(np.uint64)  # int64 math, then cast
    tok_bits[pay_pos] = xor[pay_sel] >> win_tz
    tok_n[pay_pos] = use_len[pay_sel]
    total_bits = int(tok_n.sum())
    return header + struct.pack("<Q", total_bits) + _pack_bits(tok_bits, tok_n)


# Timestamp dod token classes — the SINGLE source for both encoders and the
# decoder (a boundary or width changed in one copy but not the others makes
# streams undecodable). Class 0 = dod==0 (ctrl-only token), classes 1-3 =
# bounded payloads with the asymmetric [-63,64) / [-255,256) / [-2047,2048)
# encode ranges (the decoder accepts the full signed payload range), class 4
# = raw 64-bit.
#            (ctrl prefix, ctrl bits, payload bits)
_T_TOKENS = ((0b0, 1, 0), (0b10, 2, 7), (0b110, 3, 9), (0b1110, 4, 12), (0b1111, 4, 64))
_T_CTRL_BITS = np.array([t[0] for t in _T_TOKENS], dtype=np.uint64)
_T_CTRL_N = np.array([t[1] for t in _T_TOKENS], dtype=np.int64)
_T_PAY_N = np.array([t[2] for t in _T_TOKENS], dtype=np.int64)
# decoder: token class of each 4-bit peek at a control prefix
_T_PEEK_CLASS = np.array(
    [next(c for c, (pre, nb, _) in enumerate(_T_TOKENS) if v >> (4 - nb) == pre) for v in range(16)]
)


def _dod_class(dod: np.ndarray) -> np.ndarray:
    """Token class index (into _T_TOKENS) for each delta-of-delta."""
    cls = np.full(dod.size, 4, dtype=np.int64)
    cls[(dod >= -2047) & (dod < 2048)] = 3
    cls[(dod >= -255) & (dod < 256)] = 2
    cls[(dod >= -63) & (dod < 64)] = 1
    cls[dod == 0] = 0
    return cls


def encode_timestamps(ts_us: np.ndarray) -> bytes:
    """Delta-of-delta compress an int64 microsecond array. Layout:
    magic | u32 count | i64 first | i64 first_delta | u64 total_bits | tokens."""
    t = np.ascontiguousarray(np.asarray(ts_us, dtype=np.int64))
    n = t.size
    if n == 0:
        return _MAGIC_T + struct.pack("<I", 0)
    header = _MAGIC_T + struct.pack("<Iq", n, int(t[0]))
    if n == 1:
        return header + struct.pack("<qQ", 0, 0)
    deltas = np.diff(t)
    header = _MAGIC_T + struct.pack("<Iqq", n, int(t[0]), int(deltas[0]))
    if n == 2:
        return header + struct.pack("<Q", 0)
    dod = np.diff(deltas)
    m = dod.size
    ctrl = _dod_class(dod)
    ctrl_bits = _T_CTRL_BITS[ctrl]
    ctrl_n = _T_CTRL_N[ctrl]
    pay_n = _T_PAY_N[ctrl]
    # two tokens per element (payload token absent when dod == 0)
    has_pay = ctrl > 0
    tok_per = 1 + has_pay.astype(np.int64)
    tok_off = np.concatenate(([0], np.cumsum(tok_per)))[:-1]
    n_tok = int(tok_per.sum())
    tok_bits = np.zeros(n_tok, dtype=np.uint64)
    tok_n = np.zeros(n_tok, dtype=np.int64)
    tok_bits[tok_off] = ctrl_bits
    tok_n[tok_off] = ctrl_n
    pos = tok_off[has_pay] + 1
    pn = pay_n[has_pay]
    safe_pn = np.minimum(pn, 63).astype(np.uint64)
    mask = np.where(pn >= 64, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << safe_pn) - np.uint64(1))
    tok_bits[pos] = np.ascontiguousarray(dod[has_pay]).view(np.uint64) & mask
    tok_n[pos] = pn
    total_bits = int(tok_n.sum())
    return header + struct.pack("<Q", total_bits) + _pack_bits(tok_bits, tok_n)


# ---- batch encoders: many chunks in one vectorized pass ----------------------
# Per-chunk numpy-call overhead (~0.3 ms/chunk) dominates when tiers hold one
# small chunk per conversation; these produce byte-identical blobs to the
# single-chunk encoders (asserted in tests) while vectorizing classification,
# leading/trailing-zero math and bit packing across ALL chunks at once.


def _pack_bits_grouped(bits: np.ndarray, nbits: np.ndarray, tok_chunk: np.ndarray, n_chunks: int):
    """Pack a global token stream where each chunk's tokens start at a fresh
    64-bit word. Returns (words, chunk_word_start, chunk_word_end, bits_per_chunk)."""
    nbits = nbits.astype(np.int64)
    bits_per_chunk = np.zeros(n_chunks, dtype=np.int64)
    np.add.at(bits_per_chunk, tok_chunk, nbits)
    words_per_chunk = (bits_per_chunk + 63) // 64
    word_start = np.concatenate(([0], np.cumsum(words_per_chunk)))
    total_words = int(word_start[-1])
    if nbits.size == 0:
        return np.zeros(1, dtype=np.uint64), word_start[:-1], word_start[1:], bits_per_chunk
    # within-chunk bit offsets: global cumsum minus each chunk's first cumsum
    cum = np.concatenate(([0], np.cumsum(nbits)))[:-1]
    first_idx = np.full(n_chunks, -1, dtype=np.int64)
    # first token index per chunk (tok_chunk is non-decreasing)
    change = np.concatenate(([True], tok_chunk[1:] != tok_chunk[:-1]))
    first_positions = np.flatnonzero(change)
    first_idx[tok_chunk[first_positions]] = first_positions
    base_bits = np.where(first_idx >= 0, cum[np.maximum(first_idx, 0)], 0)
    offsets = cum - base_bits[tok_chunk] + word_start[tok_chunk] * 64
    words = np.zeros(total_words + 1, dtype=np.uint64)
    word_idx = offsets >> 6
    bit_in = offsets & 63
    b = bits.astype(np.uint64)
    shift1 = 64 - bit_in - nbits
    fits = shift1 >= 0
    s_left = np.where(fits, shift1, 0).astype(np.uint64)
    s_right = np.where(fits, 0, -shift1).astype(np.uint64)
    first = np.where(fits, b << s_left, b >> s_right)
    np.bitwise_or.at(words, word_idx, first.astype(np.uint64))
    if (~fits).any():
        sel = ~fits
        rem = (-shift1[sel]).astype(np.uint64)
        second = (b[sel] << (np.uint64(64) - rem)).astype(np.uint64)
        np.bitwise_or.at(words, word_idx[sel] + 1, second)
    return words[:total_words], word_start[:-1], word_start[1:], bits_per_chunk


def encode_values_batch(values: np.ndarray, starts: np.ndarray) -> list:
    """Gorilla-XOR encode many chunks at once; ``starts`` delimits chunks of
    the concatenated ``values``. Byte-identical to encode_values per chunk."""
    v = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    starts = np.asarray(starts, dtype=np.int64)
    n_chunks = starts.size
    ends = np.concatenate((starts[1:], [v.size]))
    bits_v = v.view(np.uint64)
    # global xor with chunk-start positions masked out
    xor_all = np.zeros(v.size, dtype=np.uint64)
    if v.size > 1:
        xor_all[1:] = bits_v[1:] ^ bits_v[:-1]
    # vectorized clz/ctz over every position (chunk firsts ignored later)
    lz_all = np.full(v.size, 64, dtype=np.int64)
    nzm = xor_all != 0
    if nzm.any():
        xf = xor_all[nzm].astype(np.float64)
        e = ((xf.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - 1023
        too_big = (e >= 64) | ((e < 64) & ((np.uint64(1) << np.minimum(e, 63).astype(np.uint64)) > xor_all[nzm]))
        lz_all[nzm] = 63 - (e - too_big.astype(np.int64))
    lz_all = np.minimum(lz_all, 31)
    tz_all = np.full(v.size, 64, dtype=np.int64)
    if nzm.any():
        lowbit = xor_all[nzm] & (np.uint64(0) - xor_all[nzm])
        e = ((lowbit.astype(np.float64).view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - 1023
        tz_all[nzm] = e
    # sequential window-reuse per chunk (python over precomputed lists)
    lz_l, tz_l, nz_l = lz_all.tolist(), tz_all.tolist(), nzm.tolist()
    ctrl = np.zeros(v.size, dtype=np.uint8)
    use_lz = np.zeros(v.size, dtype=np.int64)
    use_len = np.zeros(v.size, dtype=np.int64)
    for c in range(n_chunks):
        prev_lz = prev_tz = -1
        for i in range(int(starts[c]) + 1, int(ends[c])):
            if not nz_l[i]:
                continue
            if prev_lz >= 0 and lz_l[i] >= prev_lz and tz_l[i] >= prev_tz:
                ctrl[i] = 1
                use_lz[i] = prev_lz
                use_len[i] = 64 - prev_lz - prev_tz
            else:
                ctrl[i] = 2
                prev_lz, prev_tz = lz_l[i], tz_l[i]
                use_lz[i] = prev_lz
                use_len[i] = 64 - prev_lz - prev_tz
    # token stream (chunk-first positions excluded)
    pos_mask = np.ones(v.size, dtype=bool)
    pos_mask[starts] = False
    idx = np.flatnonzero(pos_mask)
    if idx.size:
        c_ctrl = ctrl[idx]
        is0, is10, is11 = c_ctrl == 0, c_ctrl == 1, c_ctrl == 2
        tok_per = 1 + is11.astype(np.int64) + (is10 | is11).astype(np.int64)
        tok_off = np.concatenate(([0], np.cumsum(tok_per)))[:-1]
        n_tok = int(tok_per.sum())
        tok_bits = np.zeros(n_tok, dtype=np.uint64)
        tok_n = np.zeros(n_tok, dtype=np.int64)
        chunk_of_pos = np.searchsorted(starts, idx, side="right") - 1
        tok_chunk = np.zeros(n_tok, dtype=np.int64)
        np.add.at(tok_chunk, tok_off, 1)
        tok_chunk = np.cumsum(tok_chunk) - 1
        tok_chunk = chunk_of_pos[tok_chunk]
        tok_bits[tok_off] = np.where(is0, 0, np.where(is10, 0b10, 0b11)).astype(np.uint64)
        tok_n[tok_off] = np.where(is0, 1, 2)
        meta_pos = tok_off[is11] + 1
        ul = use_len[idx]
        stored_len = np.where(ul[is11] == 64, 0, ul[is11])
        tok_bits[meta_pos] = (use_lz[idx][is11].astype(np.uint64) << np.uint64(6)) | stored_len.astype(np.uint64)
        tok_n[meta_pos] = 11
        pay_sel = is10 | is11
        pay_pos = tok_off[pay_sel] + 1 + is11[pay_sel].astype(np.int64)
        win_tz = (64 - use_lz[idx][pay_sel] - ul[pay_sel]).astype(np.uint64)
        tok_bits[pay_pos] = xor_all[idx][pay_sel] >> win_tz
        tok_n[pay_pos] = ul[pay_sel]
        words, ws, we, bpc = _pack_bits_grouped(tok_bits, tok_n, tok_chunk, n_chunks)
    else:
        words = np.zeros(0, dtype=np.uint64)
        ws = we = np.zeros(n_chunks, dtype=np.int64)
        bpc = np.zeros(n_chunks, dtype=np.int64)
    out = []
    be_words = words.astype(">u8")
    for c in range(n_chunks):
        m = int(ends[c] - starts[c])
        if m == 0:
            out.append(_MAGIC_V + struct.pack("<I", 0))
            continue
        header = _MAGIC_V + struct.pack("<I", m) + struct.pack("<d", float(v[starts[c]]))
        if m == 1:
            out.append(header + struct.pack("<Q", 0))
            continue
        blob = be_words[ws[c] : we[c]].tobytes()
        out.append(header + struct.pack("<Q", int(bpc[c])) + blob)
    return out


def encode_timestamps_batch(ts_us: np.ndarray, starts: np.ndarray) -> list:
    """Delta-of-delta encode many chunks at once; byte-identical to
    encode_timestamps per chunk."""
    t = np.ascontiguousarray(np.asarray(ts_us, dtype=np.int64))
    starts = np.asarray(starts, dtype=np.int64)
    n_chunks = starts.size
    ends = np.concatenate((starts[1:], [t.size]))
    deltas = np.zeros(t.size, dtype=np.int64)
    if t.size > 1:
        deltas[1:] = t[1:] - t[:-1]
    dod = np.zeros(t.size, dtype=np.int64)
    if t.size > 2:
        dod[2:] = deltas[2:] - deltas[1:-1]
    # valid dod positions: index >= chunk_start + 2
    pos_mask = np.ones(t.size, dtype=bool)
    pos_mask[starts] = False
    second = starts + 1
    second = second[second < t.size]
    pos_mask[second] = False
    # (no cross-chunk dod leakage: positions < start+2 are masked, and every
    # surviving dod reads deltas at offsets >= start+1, both inside the chunk)
    idx = np.flatnonzero(pos_mask)
    if idx.size:
        d = dod[idx]
        cls = _dod_class(d)
        ctrl_bits = _T_CTRL_BITS[cls]
        ctrl_n = _T_CTRL_N[cls]
        pay_n = _T_PAY_N[cls]
        has_pay = cls > 0
        tok_per = 1 + has_pay.astype(np.int64)
        tok_off = np.concatenate(([0], np.cumsum(tok_per)))[:-1]
        n_tok = int(tok_per.sum())
        tok_bits = np.zeros(n_tok, dtype=np.uint64)
        tok_n = np.zeros(n_tok, dtype=np.int64)
        chunk_of_pos = np.searchsorted(starts, idx, side="right") - 1
        tok_chunk = np.zeros(n_tok, dtype=np.int64)
        np.add.at(tok_chunk, tok_off, 1)
        tok_chunk = np.cumsum(tok_chunk) - 1
        tok_chunk = chunk_of_pos[tok_chunk]
        tok_bits[tok_off] = ctrl_bits
        tok_n[tok_off] = ctrl_n
        ppos = tok_off[has_pay] + 1
        pn = pay_n[has_pay]
        safe_pn = np.minimum(pn, 63).astype(np.uint64)
        mask = np.where(pn >= 64, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << safe_pn) - np.uint64(1))
        tok_bits[ppos] = np.ascontiguousarray(d[has_pay]).view(np.uint64) & mask
        tok_n[ppos] = pn
        words, ws, we, bpc = _pack_bits_grouped(tok_bits, tok_n, tok_chunk, n_chunks)
    else:
        words = np.zeros(0, dtype=np.uint64)
        ws = we = np.zeros(n_chunks, dtype=np.int64)
        bpc = np.zeros(n_chunks, dtype=np.int64)
    out = []
    be_words = words.astype(">u8")
    for c in range(n_chunks):
        m = int(ends[c] - starts[c])
        s = int(starts[c])
        if m == 0:
            out.append(_MAGIC_T + struct.pack("<I", 0))
            continue
        if m == 1:
            out.append(_MAGIC_T + struct.pack("<Iq", 1, int(t[s])) + struct.pack("<qQ", 0, 0))
            continue
        header = _MAGIC_T + struct.pack("<Iqq", m, int(t[s]), int(deltas[s + 1]))
        if m == 2:
            out.append(header + struct.pack("<Q", 0))
            continue
        blob = be_words[ws[c] : we[c]].tobytes()
        out.append(header + struct.pack("<Q", int(bpc[c])) + blob)
    return out


# ---- batched decoders: every blob of a column in one lockstep pass ------------

_U = np.uint64
_HDR_V = 24  # magic | u32 count | f64 first | u64 total_bits
_HDR_T = 32  # magic | u32 count | i64 first | i64 first_delta | u64 total_bits
# per 4-bit peek: control bits, bits consumed, payload sign-extend shift, mask
_T_PEEK_CTRL = _T_CTRL_N[_T_PEEK_CLASS].astype(np.uint64)
_T_PEEK_USED = (_T_CTRL_N + _T_PAY_N)[_T_PEEK_CLASS]
_T_PEEK_SHIFT = np.minimum(64 - _T_PAY_N, 63)[_T_PEEK_CLASS]
_T_PEEK_MASK = np.where(_T_PAY_N > 0, -1, 0)[_T_PEEK_CLASS]


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


def _at(data: np.ndarray, pos: np.ndarray, dtype: str) -> np.ndarray:
    """The ``dtype`` value stored at each byte position ``pos`` of ``data``
    (unaligned reads through a one-byte-stride view), in native byte order."""
    dt = np.dtype(dtype)
    view = np.ndarray((max(data.size - dt.itemsize + 1, 0),), dtype=dt, buffer=data, strides=(1,))
    return view[pos].astype(dt.newbyteorder("="))


class _Blobs:
    """Validated headers and gathered payload words of a column of blobs.

    ``n`` holds every blob's point count; the other per-blob arrays cover only
    the non-empty blobs (``full``). ``words`` is every payload as big-endian
    uint64 words, concatenated and padded with three zero words so a
    three-word window gather never leaves it; blob ``j``'s payload starts at
    word ``base[j]``."""

    def __init__(self, col, magic: bytes, hdr: int):
        offsets, self.data = _blob_buffers(col)
        starts, lens = offsets[:-1], np.diff(offsets)
        if (lens < 8).any():
            raise ValueError("truncated Gorilla blob header")
        if (_at(self.data, starts, "<u4") != int.from_bytes(magic, "little")).any():
            raise ValueError(f"bad Gorilla blob magic (expected {magic!r})")
        self.n = _at(self.data, starts + 4, "<u4").astype(np.int64)
        self.full = self.n > 0
        if (lens[~self.full] != 8).any() or (lens[self.full] < hdr).any():
            raise ValueError("Gorilla blob length does not match its header")
        self.starts = starts[self.full]
        tb = _at(self.data, self.starts + hdr - 8, "<u8")
        pay = lens[self.full] - hdr
        n_words = tb // _U(64) + (tb % _U(64) != 0)
        if (pay.astype(np.uint64) != n_words * _U(8)).any():
            raise ValueError("Gorilla payload length does not match its bit count")
        self.total_bits = tb.astype(np.int64)  # bounded by the payload now
        if (self.n[self.full] > self.total_bits + 2).any():
            raise ValueError("Gorilla point count exceeds what its payload can hold")
        n_words = n_words.astype(np.int64)
        self.base = np.cumsum(n_words) - n_words
        at = np.repeat(self.starts + hdr - 8 * self.base, n_words) + 8 * np.arange(int(n_words.sum()))
        self.words = np.concatenate((_at(self.data, at, ">u8"), np.zeros(3, np.uint64)))

    def field(self, at: int, dtype: str) -> np.ndarray:
        """The 8-byte little-endian header field at byte ``at`` of every
        non-empty blob."""
        return _at(self.data, self.starts + at, dtype)

    def lockstep(self, first_step: int):
        """Lane order over the non-empty blobs (point count descending), each
        lane's first index in the flat output, and, for each step
        ``i >= first_step``, how many lanes still have a point ``i`` — always
        a prefix of that order."""
        n = self.n[self.full]
        order = np.argsort(-n, kind="stable")
        neg = -n[order]
        top = int(-neg[0]) if neg.size else 0
        steps = np.arange(first_step, max(top, first_step))
        dst = (np.cumsum(self.n) - self.n)[self.full][order]
        return order, dst, np.searchsorted(neg, -steps, side="left").tolist()

    def window(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """128 bits of the stream from each bit position, as (high, low)
        words. Word indices are clipped, so a corrupt lane reads garbage
        rather than out of range; the final bit count check catches it."""
        w = np.minimum(pos >> 6, self.words.size - 3)
        off = (pos & 63).view(np.uint64)
        r = _U(63) - off  # w >> (64 - off) as (w >> 1) >> (63 - off): no shift by 64
        a, b, c = self.words[w], self.words[w + 1], self.words[w + 2]
        return (a << off) | ((b >> _U(1)) >> r), (b << off) | ((c >> _U(1)) >> r)

    def check_consumed(self, order: np.ndarray, pos: np.ndarray) -> None:
        if (pos - self.base[order] * 64 != self.total_bits[order]).any():
            raise ValueError("Gorilla token stream does not end at its bit count")


def decode_values_batch(col) -> tuple[np.ndarray, np.ndarray]:
    """Decode a binary column of ``encode_values`` blobs. Returns every
    chunk's values concatenated (float64) and the per-chunk point counts."""
    bl = _Blobs(col, _MAGIC_V, _HDR_V)
    out = np.empty(int(bl.n.sum()), dtype=np.uint64)
    order, dst, active = bl.lockstep(1)
    prev = bl.field(8, "<u8")[order]
    out[dst] = prev
    pos = bl.base[order] * 64  # bit cursor into bl.words, per lane
    lz = np.zeros(order.size, dtype=np.uint64)
    ln = np.full(order.size, 64, dtype=np.uint64)
    for i, k in enumerate(active, start=1):
        hi, lo = bl.window(pos[:k])
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
        out[dst[:k] + i] = prev[:k]
        pos[:k] += (_U(1) + nz * (s + ln[:k] - _U(1))).view(np.int64)
    bl.check_consumed(order, pos)
    return out.view(np.float64), bl.n


def decode_timestamps_batch(col) -> tuple[np.ndarray, np.ndarray]:
    """Decode a binary column of ``encode_timestamps`` blobs. Returns every
    chunk's timestamps concatenated (int64) and the per-chunk point counts."""
    bl = _Blobs(col, _MAGIC_T, _HDR_T)
    out = np.empty(int(bl.n.sum()), dtype=np.int64)
    order, dst, active = bl.lockstep(2)
    cur = bl.field(8, "<i8")[order]
    out[dst] = cur
    delta = bl.field(16, "<i8")[order]
    two = bl.n[bl.full][order] >= 2
    cur[two] += delta[two]
    out[dst[two] + 1] = cur[two]
    pos = bl.base[order] * 64
    for i, k in enumerate(active, start=2):
        hi, lo = bl.window(pos[:k])
        peek = hi >> _U(60)
        cb = _T_PEEK_CTRL[peek]
        x = ((hi << cb) | (lo >> (_U(64) - cb))).view(np.int64)
        delta[:k] += (x >> _T_PEEK_SHIFT[peek]) & _T_PEEK_MASK[peek]  # arithmetic shift sign-extends
        cur[:k] += delta[:k]
        out[dst[:k] + i] = cur[:k]
        pos[:k] += _T_PEEK_USED[peek]
    bl.check_consumed(order, pos)
    return out, bl.n


def decode_values(data: bytes) -> np.ndarray:
    """Inverse of encode_values, for one blob."""
    return decode_values_batch(pa.array([data], pa.binary()))[0]


def decode_timestamps(data: bytes) -> np.ndarray:
    """Inverse of encode_timestamps, for one blob."""
    return decode_timestamps_batch(pa.array([data], pa.binary()))[0]
