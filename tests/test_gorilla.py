"""Gorilla codec roundtrip tests (bit-exact per FIXTURES.md §3)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from chronoxtract_ray.state import gorilla as g


@pytest.mark.parametrize(
    "values",
    [
        np.array([], dtype=np.float64),
        np.array([1.5]),
        np.array([1.5, 1.5, 1.5]),
        np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e-300, 3.14159, np.nan]),
        np.random.default_rng(3).normal(50, 20, 1000).round(2),
        np.cumsum(np.random.default_rng(4).normal(0, 1, 5000)),
        np.repeat(7.25, 500),
        np.random.default_rng(5).uniform(-1e9, 1e9, 300),
    ],
    ids=["empty", "single", "constant", "specials", "rounded", "walk", "repeat", "uniform"],
)
def test_value_roundtrip_bit_exact(values):
    dec = g.decode_values(g.encode_values(values))
    assert dec.size == values.size
    if values.size:
        assert (dec.view(np.uint64) == values.view(np.uint64)).all()


@pytest.mark.parametrize(
    "ts",
    [
        np.array([], dtype=np.int64),
        np.array([1000], dtype=np.int64),
        np.array([0, 60_000_000], dtype=np.int64),
        np.arange(0, 60_000_000 * 1000, 60_000_000, dtype=np.int64),
        np.cumsum(np.random.default_rng(6).integers(1, 10_000_000, 2000)).astype(np.int64),
        np.array([0, 10, 5, 100, 2, 1_000_000_000_000], dtype=np.int64),  # non-monotonic + big jumps
    ],
    ids=["empty", "single", "pair", "regular", "random", "jumps"],
)
def test_timestamp_roundtrip_exact(ts):
    dec = g.decode_timestamps(g.encode_timestamps(ts))
    assert dec.size == ts.size
    if ts.size:
        assert (dec == ts).all()


def test_regular_timestamps_compress_hard():
    ts = np.arange(0, 60_000_000 * 2000, 60_000_000, dtype=np.int64)
    enc = g.encode_timestamps(ts)
    assert len(enc) < ts.nbytes / 20  # dod==0 → ~1 bit/point


def test_constant_values_compress_hard():
    v = np.repeat(3.75, 2000)
    enc = g.encode_values(v)
    assert len(enc) < v.nbytes / 20


def test_batch_encoders_byte_identical():
    """A chunk encodes to the same bytes alone as inside any batch: ingest and
    retention re-encode single chunks and must reproduce the batch bytes."""
    rng = np.random.default_rng(17)
    sizes = [1, 2, 3] + list(rng.integers(4, 60, 60))
    vals, tss, starts, off = [], [], [], 0
    for s in sizes:
        starts.append(off)
        vals.append(rng.normal(50, 5, s).round(2))
        tss.append(int(rng.integers(0, 10**12)) + np.cumsum(rng.integers(1, 10**7, s)).astype(np.int64))
        off += s
    rv, rt = _random_chunks(19)
    vals, tss = vals + rv, tss + rt
    starts = np.cumsum([0] + [x.size for x in vals[:-1]])
    v, t = np.concatenate(vals), np.concatenate(tss)
    assert g.encode_values_batch(v, starts) == [g.encode_values(c) for c in vals]
    assert g.encode_timestamps_batch(t, starts) == [g.encode_timestamps(c) for c in tss]
    half = len(vals) // 2  # and the same bytes from a batch that starts mid-way
    assert g.encode_values_batch(v[starts[half] :], starts[half:] - starts[half]) == [g.encode_values(c) for c in vals[half:]]


def _mode(blob: bytes) -> int:
    return blob[0] & 15


def test_values_mode_follows_the_chunk():
    """Window means (sum / count) take RATIO; arbitrary floats, and a ratio
    chunk holding -0.0, NaN or inf, take XOR; each round-trips."""
    rng = np.random.default_rng(3)
    sums, counts = rng.integers(0, 5000, 200), rng.integers(1, 4, 200)
    means = sums / counts
    blob = g.encode_values(means)
    assert _mode(blob) == 1 and len(blob) * 8 < 20 * means.size  # 2 + 15 bits a point
    for bad in (-0.0, np.nan, np.inf):
        v = means.copy()
        v[57] = bad
        assert _mode(g.encode_values(v)) == 0
        assert (g.decode_values(g.encode_values(v)).view(np.uint64) == v.view(np.uint64)).all()
    assert _mode(g.encode_values(rng.normal(50, 20, 100))) == 0
    near = (2.0**53 - rng.integers(1, 2**40, 10)) * rng.choice([-1, 1], 10)  # |a| < 2^53: 55-bit deltas
    assert _mode(g.encode_values(near)) == 1
    assert _mode(g.encode_values(np.array([2.0**53]))) == 0  # |a| = 2^53 does not fit
    assert (g.decode_values(g.encode_values(near)) == near).all()


def test_ratio_search_leaves_arbitrary_floats_early(monkeypatch):
    """The denominator search tests a chunk's points in growing rounds and
    drops the chunk at its first point that no k fits."""
    tested = []
    fit = g._fit_k
    monkeypatch.setattr(g, "_fit_k", lambda x: tested.append(x.size) or fit(x))
    rng = np.random.default_rng(5)
    v = rng.normal(50, 20, 100 * 500)
    starts = np.arange(0, v.size, 500)
    g.encode_values_batch(v, starts)
    assert sum(tested) == 100  # one value per chunk
    tested.clear()
    v[starts] = 7.0  # first values fit, the rest do not
    g.encode_values_batch(v, starts)
    assert sum(tested) == 100 * (1 + 8)


def test_unit_scaled_timestamps_compress():
    """A minute grid with gaps codes its dods in minutes: no raw 64-bit
    tokens, so about 1-10 bits per point."""
    rng = np.random.default_rng(9)
    steps = rng.choice([1, 1, 1, 2, 5, 30], 1000) * 60_000_000
    ts = 1_700_000_000_000_000 + np.cumsum(steps).astype(np.int64)
    blob = g.encode_timestamps(ts)
    assert len(blob) * 8 < 10 * ts.size
    assert (g.decode_timestamps(blob) == ts).all()


# ---- batched decoders --------------------------------------------------------

_WIDE = np.array([0x3FF0000000000000, 0xBFF0000000000001], dtype=np.uint64).view(np.float64)  # xor 0x8000...01: a 64-bit window


def _random_chunks(seed: int = 23):
    """Chunk inputs covering the token classes and both value modes:
    empty/1/2/3-point chunks, chunks up to 1,100 points, 64-bit value
    windows, raw 64-bit dod tokens, NaN, ±inf and -0.0, payloads straddling
    word boundaries, RATIO chunks (``a / k`` with k up to 255 and |a| up to
    near 2^53), RATIO chunks holding one -0.0, NaN or non-ratio value, and
    timestamps whose deltas share a unit of 1, one minute or over 2^40."""
    rng = np.random.default_rng(seed)
    sizes = [0, 1, 2, 3, 0, 1100, 2, 1] + list(rng.integers(0, 60, 80)) + list(rng.integers(60, 1100, 6))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
    vals, tss = [], []
    for i, s in enumerate(sizes):
        v = rng.normal(50, 20, s).round(int(rng.integers(0, 4)))
        if s >= 2 and i % 3 == 0:
            v[rng.integers(0, s, max(1, s // 6))] = rng.choice(specials, max(1, s // 6))
        if s >= 2 and i % 4 == 1:
            v[: 2 * (s // 2)] = np.resize(_WIDE, 2 * (s // 2))
        if i % 6 == 5:  # exact ratios: small numerators over k up to 255, or |a| near 2^53 over small k
            big = i % 12 == 5
            k = rng.integers(1, 4 if big else 256, s)
            a = rng.integers(2**53 - 2**20, 2**53, s) * rng.choice([-1, 1], s) if big else rng.integers(-(10**6), 10**6, s)
            v = a / k
            if s >= 2 and i % 18 == 11:  # one value that breaks the chunk's ratio form
                v[rng.integers(0, s)] = rng.choice([-0.0, np.nan, 0.1 + 1e-9])
        steps = rng.integers(1, 120_000_000, s)
        if s >= 3 and i % 5 == 2:  # jumps far beyond the 12-bit dod range: raw 64-bit tokens
            steps[rng.integers(0, s, max(1, s // 4))] = rng.integers(1 << 40, 1 << 60, max(1, s // 4))
        if i % 7 == 3:  # regular grid: dod == 0 tokens
            steps[:] = 60_000_000
        if i % 8 == 6:  # deltas sharing a unit
            steps = rng.integers(1, 40, s) * [1, 60_000_000, (1 << 40) + 7][i % 3]
        tss.append(int(rng.integers(-(10**15), 10**15)) + np.cumsum(steps).astype(np.int64))
        vals.append(v)
    return vals, tss


def _columns(blobs: list[bytes]):
    """The same blobs as binary, large_binary and a multi-chunk ChunkedArray."""
    third = max(1, len(blobs) // 3)
    return {
        "binary": pa.array(blobs, pa.binary()),
        "large_binary": pa.array(blobs, pa.large_binary()),
        "chunked": pa.chunked_array(
            [pa.array(blobs[:third], pa.binary()), pa.array([], pa.binary()), pa.array(blobs[third:], pa.binary())]
        ),
    }


def _assert_batch_roundtrip(dec, counts, inputs, view):
    assert counts.tolist() == [x.size for x in inputs]
    expect = np.concatenate(inputs) if inputs else np.empty(0, dec.dtype)
    assert dec.dtype == expect.dtype and dec.size == expect.size
    assert (dec.view(view) == expect.view(view)).all()


@pytest.mark.parametrize("kind", ["binary", "large_binary", "chunked"])
def test_batch_decoders_roundtrip_every_chunk(kind):
    vals, tss = _random_chunks()
    assert any(v.size and v.view(np.uint64)[0] == _WIDE.view(np.uint64)[0] for v in vals)
    blobs = [g.encode_values(v) for v in vals]
    assert {_mode(b) for b in blobs} == {0, 1}  # both value modes, mixed in one column
    v_col = _columns(blobs)[kind]
    t_col = _columns([g.encode_timestamps(t) for t in tss])[kind]
    _assert_batch_roundtrip(*g.decode_values_batch(v_col), vals, np.uint64)
    _assert_batch_roundtrip(*g.decode_timestamps_batch(t_col), tss, np.int64)


def test_batch_decoders_on_sliced_and_empty_columns():
    vals, tss = _random_chunks(29)
    v_col = pa.array([g.encode_values(v) for v in vals], pa.binary())
    t_col = pa.array([g.encode_timestamps(t) for t in tss], pa.large_binary())
    for lo, k in ((5, 20), (0, 1), (len(vals) - 3, 3), (7, 0)):
        _assert_batch_roundtrip(*g.decode_values_batch(v_col.slice(lo, k)), vals[lo : lo + k], np.uint64)
        _assert_batch_roundtrip(*g.decode_timestamps_batch(t_col.slice(lo, k)), tss[lo : lo + k], np.int64)
    for col in (pa.array([], pa.binary()), pa.chunked_array([], pa.large_binary())):
        dec, counts = g.decode_values_batch(col)
        assert dec.dtype == np.float64 and dec.size == 0 and counts.size == 0
        dec, counts = g.decode_timestamps_batch(col)
        assert dec.dtype == np.int64 and dec.size == 0 and counts.size == 0


def _chunk_table(vals, tss) -> pa.Table:
    return pa.table(
        {
            "conv_id": pa.array([f"c{i:03d}" for i in range(len(vals))], pa.string()),
            "n_points": pa.array([v.size for v in vals], pa.int64()),
            "gorilla_timestamps": pa.array([g.encode_timestamps(t) for t in tss], pa.binary()),
            "gorilla_values": pa.array([g.encode_values(v) for v in vals], pa.binary()),
        }
    )


def test_decode_chunks_sliced_multichunk_and_empty_tables():
    from chronoxtract_ray.stages.gorilla_stage import decode_chunks

    vals, tss = _random_chunks(31)
    tbl = _chunk_table(vals, tss)
    tbl = pa.concat_tables([tbl.slice(0, 40), tbl.slice(40)])  # two record batches
    for lo, k in ((0, tbl.num_rows), (3, 45), (38, 4)):
        pts = decode_chunks(tbl.slice(lo, k))
        convs = np.repeat([f"c{i:03d}" for i in range(lo, lo + k)], [v.size for v in vals[lo : lo + k]])
        assert pts["conv_id"].to_pylist() == convs.tolist()
        _assert_batch_roundtrip(pts["value"].to_numpy(), np.array([v.size for v in vals[lo : lo + k]]), vals[lo : lo + k], np.uint64)
        assert (pts["window_start"].to_numpy() == np.concatenate(tss[lo : lo + k])).all()
    schema = pa.schema([("conv_id", pa.string()), ("window_start", pa.int64()), ("value", pa.float64())])
    for empty in (tbl.slice(0, 0), pa.table({})):
        out = decode_chunks(empty)
        assert out.num_rows == 0 and out.schema.equals(schema)


def test_decode_chunks_rejects_count_mismatch():
    from chronoxtract_ray.stages.gorilla_stage import decode_chunks

    vals, tss = _random_chunks(37)
    tbl = _chunk_table(vals[:10], tss[:10])
    n = tbl["n_points"].to_numpy().copy()
    n[4] += 1
    with pytest.raises(ValueError, match="n_points"):
        decode_chunks(tbl.set_column(1, "n_points", pa.array(n, pa.int64())))


# ---- corrupt blobs -----------------------------------------------------------

_CODECS = [
    ("values", g.encode_values, g.decode_values, g.decode_values_batch),
    ("ratio", g.encode_values, g.decode_values, g.decode_values_batch),
    ("timestamps", g.encode_timestamps, g.decode_timestamps, g.decode_timestamps_batch),
]
_IDS = [c[0] for c in _CODECS]


def _sample(name: str, n: int = 40) -> np.ndarray:
    """An XOR-mode values chunk, a RATIO-mode one, or unit-scaled timestamps."""
    rng = np.random.default_rng(41)
    if name == "values":
        return rng.normal(50, 20, n)
    if name == "ratio":
        return rng.normal(50, 20, n).round(1)
    return 10**15 + np.cumsum(rng.integers(1, 10**3, n) * 60_000_000).astype(np.int64)


def _varint(x: int) -> bytes:
    out = bytearray()
    while True:
        out.append((x & 0x7F) | (0x80 if x > 0x7F else 0))
        x >>= 7
        if not x:
            return bytes(out)


@pytest.mark.parametrize("name,enc,dec,dec_batch", _CODECS, ids=_IDS)
def test_corrupt_magic_and_truncation_raise(name, enc, dec, dec_batch):
    blob = enc(_sample(name))
    assert _mode(blob) == (1 if name == "ratio" else 0)
    with pytest.raises(ValueError, match="magic"):
        dec(b"X" + blob[1:])
    with pytest.raises(ValueError, match="mode"):
        dec(bytes([blob[0] | 7]) + blob[1:])
    other_enc = g.encode_timestamps if name != "timestamps" else g.encode_values
    with pytest.raises(ValueError, match="magic"):  # the other stream's blob
        dec(other_enc(_sample("timestamps" if name != "timestamps" else "values")))
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            dec(blob[:cut])
    with pytest.raises(ValueError):  # one good blob does not hide a bad one
        dec_batch(pa.array([blob, blob[:-1], blob], pa.binary()))
    for extra in (b"\0", b"\0" * 8):
        with pytest.raises(ValueError):
            dec(blob + extra)
    with pytest.raises(ValueError, match="overflows"):  # an 11-byte count
        dec(blob[:1] + b"\xff" * 10 + b"\x01")
    with pytest.raises(ValueError, match="non-minimal"):
        dec(blob[:1] + bytes([0x80 | blob[1], 0]) + blob[2:])


@pytest.mark.parametrize("name,enc,dec,dec_batch", _CODECS, ids=_IDS)
def test_forged_count_raises_without_allocating(name, enc, dec, dec_batch):
    import tracemalloc

    x = _sample(name)
    blob = enc(x)
    forged = blob[:1] + _varint(2**32 - 1) + blob[1 + len(_varint(x.size)) :]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="point count"):
            dec_batch(pa.array([blob, forged], pa.binary()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError):  # an empty blob claiming points
        dec(blob[:1] + _varint(5))


def test_forged_widths_and_unit_raise():
    """RATIO widths past their range (wk > 8, wa of 0 or over 64) and a
    timestamp unit of 0 or 2^63 raise; so does a RATIO denominator of 256."""
    blob = g.encode_values(_sample("ratio"))
    at = 1 + len(_varint(40)) + 1  # after tag, count and k0 - 1
    at += next(i for i in range(10) if blob[at + i] < 0x80) + 1  # after zz(a0)
    for wk, wa in ((9, blob[at + 1]), (blob[at], 0), (blob[at], 65)):
        with pytest.raises(ValueError, match="width"):
            g.decode_values(blob[:at] + bytes([wk, wa]) + blob[at + 2 :])
    one = g.encode_values(np.array([0.5]))
    with pytest.raises(ValueError, match="out of range"):  # k0 - 1 = 255
        g.decode_values(one[:2] + b"\xff" + one[3:])
    ts = _sample("timestamps")
    tblob = g.encode_timestamps(ts)
    at = 1 + len(_varint(40))
    at += next(i for i in range(10) if tblob[at + i] < 0x80) + 1  # after zz(t0)
    ulen = next(i for i in range(10) if tblob[at + i] < 0x80) + 1
    assert int.from_bytes(bytes(b & 0x7F for b in tblob[at : at + ulen])[::-1], "big") != 0
    for unit in (0, 1 << 63):
        with pytest.raises(ValueError, match="unit"):
            g.decode_timestamps(tblob[:at] + _varint(unit) + tblob[at + ulen :])


@pytest.mark.parametrize("name,enc,dec,dec_batch", _CODECS, ids=_IDS)
def test_flipped_payload_bit_raises_or_decodes_wrong(name, enc, dec, dec_batch):
    """Every flipped bit of a 16-point blob, header included: ValueError or
    a wrong decode of that blob, never an exception of another kind, and
    the neighbouring blobs still decode from their own bytes."""
    x = _sample(name, 16)
    blob = bytearray(enc(x))
    other = _sample(name, 7)
    oblob = enc(other)
    outcomes = {"error": 0, "wrong": 0}
    for bit in range(len(blob) * 8):
        bad = bytearray(blob)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        try:
            out, counts = dec_batch(pa.array([oblob, bytes(bad), oblob], pa.binary()))
        except ValueError:
            outcomes["error"] += 1
            continue
        assert counts[0] == counts[2] == 7
        got = out[7 : 7 + counts[1]]
        if counts[1] != x.size or not np.array_equal(got.view(np.uint64), x.view(np.uint64)):
            outcomes["wrong"] += 1
        # neighbours decode from their own words, whatever the bad lane read
        assert (out[:7].view(np.uint64) == other.view(np.uint64)).all()
        assert (out[-7:].view(np.uint64) == other.view(np.uint64)).all()
    assert outcomes["error"] > 0
    assert outcomes["error"] + outcomes["wrong"] == len(blob) * 8
