"""Multimodal plumbing tests (decode stubbed; Ray-side shape real)."""

from __future__ import annotations

import numpy as np
import pytest

from chronoxtract_ray.stages.multimodal import MediaDecoder, decode_media, frame_sample


@pytest.fixture(scope="module")
def media_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    items = [
        {
            "media_id": f"img-{i:03d}",
            "kind": "image",
            "payload": rng.integers(0, 256, rng.integers(200, 4000), dtype=np.uint8).tobytes(),
            "meta": '{"codec": "fake"}',
        }
        for i in range(20)
    ]
    return rd.from_items(items)


def test_decode_features_deterministic(media_ds):
    a = decode_media(media_ds, n_features=8).to_pandas().sort_values("media_id")
    b = decode_media(media_ds, n_features=8).to_pandas().sort_values("media_id")
    assert len(a) == 20
    assert all(len(f) == 8 for f in a["features"])
    for fa, fb in zip(a["features"], b["features"]):
        assert np.allclose(fa, fb)


def test_real_decoder_is_stubbed():
    with pytest.raises(NotImplementedError):
        MediaDecoder(decoder="none")


def test_frame_sampling(media_ds):
    frames = frame_sample(media_ds, every_n_bytes=512, frame_bytes=32).to_pandas()
    assert (frames.groupby("media_id")["frame_idx"].min() == 0).all()
    assert frames["frame"].map(len).max() <= 32


# ---------------------------------------------------------------------------
# Real raw-codec path (round 3): pure-numpy PPM/WAV decode, features from
# actual pixels/samples, nearest-neighbor resize, corrupt-payload tolerance.
# ---------------------------------------------------------------------------

from chronoxtract_ray.stages.multimodal import (  # noqa: E402
    decode_ppm,
    decode_wav,
    encode_ppm,
    encode_wav,
    resize_images,
    resize_nearest,
)


def test_ppm_roundtrip_and_comments():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(img)), img)
    # header comments + CRLF-ish whitespace are legal PPM
    with_comment = b"P6\n# a comment\n7 5\n# another\n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(with_comment), img)
    for bad in (b"P5\n1 1\n255\n\x00", b"P6\n2 2\n255\n\x00\x00"):
        with pytest.raises(ValueError):
            decode_ppm(bad)


def test_wav_roundtrip_and_stereo_downmix():
    x = (np.sin(np.arange(800) * 0.05) * 20000).astype(np.int16)
    sr, back = decode_wav(encode_wav(16000, x))
    assert sr == 16000 and np.array_equal(back, x)
    # stereo: interleave L=x, R=-x -> mono mean == 0
    import struct as st

    stereo_pcm = np.empty(x.size * 2, dtype="<i2")
    stereo_pcm[0::2], stereo_pcm[1::2] = x, -x
    hdr = st.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + stereo_pcm.nbytes, b"WAVE",
                  b"fmt ", 16, 1, 2, 8000, 32000, 4, 16, b"data", stereo_pcm.nbytes)
    sr2, mono = decode_wav(hdr + stereo_pcm.tobytes())
    assert sr2 == 8000 and np.abs(mono.astype(np.int64)).max() == 0
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxWAVE")


def test_resize_nearest_exact():
    img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    small = resize_nearest(img, 2, 2)
    assert np.array_equal(small, img[::2, ::2])
    big = resize_nearest(img, 8, 8)
    assert big.shape == (8, 8, 3)
    assert np.array_equal(big[::2, ::2], img)


def test_raw_decoder_features_and_corrupt_tolerance(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (6, 9, 3), dtype=np.uint8)
    wav = (np.sin(np.arange(2048) * 0.1) * 15000).astype(np.int16)
    items = [
        {"media_id": "img-0", "kind": "image", "payload": encode_ppm(img), "meta": "{}"},
        {"media_id": "aud-0", "kind": "audio", "payload": encode_wav(8000, wav), "meta": "{}"},
        {"media_id": "bad-0", "kind": "image", "payload": b"JFIF not a ppm", "meta": "{}"},
    ]
    out = (
        decode_media(rd.from_items(items), decoder="raw", n_features=16)
        .to_pandas()
        .set_index("media_id")
    )
    assert bool(out.loc["img-0", "decode_ok"]) and bool(out.loc["aud-0", "decode_ok"])
    assert not bool(out.loc["bad-0", "decode_ok"])
    fi = np.asarray(out.loc["img-0", "features"])
    assert fi[0] == 9 and fi[1] == 6  # w, h
    assert np.allclose(fi[2:5], img.reshape(-1, 3).mean(axis=0))
    fa = np.asarray(out.loc["aud-0", "features"])
    assert fa[0] == 8000 and fa[1] == 2048
    xf = wav.astype(np.float64) / 32768.0
    assert np.isclose(fa[2], np.sqrt((xf * xf).mean()))
    assert np.all(np.isnan(np.asarray(out.loc["bad-0", "features"])))


def test_resize_stage_roundtrip(ray_session):
    import ray.data as rd

    img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    items = [
        {"media_id": "ok", "kind": "image", "payload": encode_ppm(img), "meta": "{}"},
        {"media_id": "bad", "kind": "image", "payload": b"nope", "meta": "{}"},
    ]
    out = resize_images(rd.from_items(items), 2, 2).to_pandas().set_index("media_id")
    assert bool(out.loc["ok", "resize_ok"]) and not bool(out.loc["bad", "resize_ok"])
    assert np.array_equal(decode_ppm(out.loc["ok", "payload"]), img[::2, ::2])
    assert out.loc["bad", "payload"] is None


# ---- PNG codec (round 5: promoted from stub to real — stdlib zlib) ----


def test_png_roundtrip_all_channel_counts():
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(3)
    for c in (1, 2, 3, 4):
        img = rng.integers(0, 256, (7, 5, c), dtype=np.uint8)
        out = mm.decode_png(mm.encode_png(img))
        assert out.shape == img.shape and (out == img).all()
    # 2-d grayscale input round-trips as (h, w, 1)
    g = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    out = mm.decode_png(mm.encode_png(g))
    assert out.shape == (4, 6, 1) and (out[:, :, 0] == g).all()


def _ref_unfilter(rows, bpp):
    """Independent plain-Python reference of the PNG filter reconstruction
    (written directly from the spec, no shared code with the engine)."""
    h = len(rows)
    out = []
    for r in range(h):
        ft, line = rows[r][0], list(rows[r][1:])
        rec = [0] * len(line)
        prev = out[r - 1] if r else [0] * len(line)
        for i in range(len(line)):
            a = rec[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
            rec[i] = (line[i] + pred) % 256
        out.append(rec)
    return out


def test_png_decodes_every_filter_type():
    """Hand-build PNG streams using each filter type and compare against an
    independent spec-reference reconstruction."""
    import struct
    import zlib

    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(9)
    w, h, c = 4, 6, 3
    for ft in (0, 1, 2, 3, 4):
        raw_rows = [bytes([ft]) + rng.integers(0, 256, w * c, dtype=np.uint8).tobytes() for _ in range(h)]
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        payload = (
            mm._PNG_SIG
            + mm._png_chunk(b"IHDR", ihdr)
            + mm._png_chunk(b"IDAT", zlib.compress(b"".join(raw_rows)))
            + mm._png_chunk(b"IEND", b"")
        )
        got = mm.decode_png(payload)
        want = np.array(_ref_unfilter(raw_rows, c), dtype=np.uint8).reshape(h, w, c)
        assert (got == want).all(), f"filter {ft}"


def test_png_rejects_corruption():
    from chronoxtract_ray.stages import multimodal as mm

    good = mm.encode_png(np.zeros((3, 3, 3), np.uint8))
    with pytest.raises(ValueError):
        mm.decode_png(b"nope" + good)
    # flip a raster byte inside IDAT -> CRC failure
    bad = bytearray(good)
    bad[len(good) // 2] ^= 0xFF
    with pytest.raises(ValueError):
        mm.decode_png(bytes(bad))
    with pytest.raises(ValueError):
        mm.decode_png(good[:30])


def test_png_and_ppm_same_pixels_same_features(ray_session):
    """Cross-codec consistency: the SAME pixels through PNG and PPM produce
    bit-identical feature vectors from the raw decoder."""
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(17)
    img = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
    dec = mm.MediaDecoder(kind="image", n_features=16, decoder="raw")
    f_ppm, ok1 = dec._features(mm.encode_ppm(img), "image")
    f_png, ok2 = dec._features(mm.encode_png(img), "image")
    assert ok1 and ok2
    assert (f_ppm == f_png).all()
    # gray PNG: replicated-channel normalization keeps the feature contract
    gray = rng.integers(0, 256, (5, 5), dtype=np.uint8)
    f_gray, ok3 = dec._features(mm.encode_png(gray), "image")
    assert ok3 and np.isfinite(f_gray).all()


def test_bmp_roundtrip_and_padding():
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(23)
    # widths 5 and 6 exercise nonzero and zero 4-byte row padding
    for w in (5, 6, 7, 8):
        img = rng.integers(0, 256, (4, w, 3), dtype=np.uint8)
        out = mm.decode_bmp(mm.encode_bmp(img))
        assert out.shape == img.shape and (out == img).all()
    with pytest.raises(ValueError):
        mm.decode_bmp(b"BMgarbage")
    # and the sniffer routes BMP to identical features as PPM of same pixels
    img = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
    dec = mm.MediaDecoder(kind="image", n_features=16, decoder="raw")
    f_bmp, ok1 = dec._features(mm.encode_bmp(img), "image")
    f_ppm, ok2 = dec._features(mm.encode_ppm(img), "image")
    assert ok1 and ok2 and (f_bmp == f_ppm).all()


def test_png_bad_deflate_flags_not_raises():
    """A CRC-valid chunk whose IDAT is not a valid zlib stream must flag
    decode_ok=false, not poison-pill the task (r5 review)."""
    import struct

    from chronoxtract_ray.stages import multimodal as mm

    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
    payload = (
        mm._PNG_SIG
        + mm._png_chunk(b"IHDR", ihdr)
        + mm._png_chunk(b"IDAT", b"not a zlib stream")  # CRC is valid!
        + mm._png_chunk(b"IEND", b"")
    )
    with pytest.raises(ValueError):
        mm.decode_png(payload)
    dec = mm.MediaDecoder(kind="image", n_features=16, decoder="raw")
    feats, ok = dec._features(payload, "image")
    assert not ok and np.isnan(feats).all()


def test_png_deflate_bomb_and_forged_geometry_raise_bounded():
    """A CRC-valid IDAT that inflates far past its IHDR geometry raises
    ValueError without inflating it: the traced peak stays within the
    geometry's size plus copies of the payload, not the bomb's 64 MB. An
    IHDR over the pixel cap raises before any inflate."""
    import struct
    import tracemalloc
    import zlib

    from chronoxtract_ray.stages import multimodal as mm

    def png(w, h, idat):
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        return mm._PNG_SIG + mm._png_chunk(b"IHDR", ihdr) + mm._png_chunk(b"IDAT", idat) + mm._png_chunk(b"IEND", b"")

    w = h = 128
    geometry = h * (3 * w + 1)
    bomb = png(w, h, zlib.compress(bytes(64 << 20), 9))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="geometry"):
            mm.decode_png(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < geometry + 3 * len(bomb) + (64 << 10)
    with pytest.raises(ValueError, match="geometry"):
        mm.decode_png(png(2**31 - 1, 2**31 - 1, zlib.compress(b"\0" * 16)))
    good = zlib.compress(bytes(geometry))
    assert mm.decode_png(png(w, h, good)).shape == (h, w, 3)
    with pytest.raises(ValueError, match="truncated"):
        mm.decode_png(png(w, h, good[: len(good) // 2]))


def test_resize_images_accepts_png_and_bmp(ray_session):
    import ray.data as rd

    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(31)
    img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    rows = [
        {"media_id": "png", "kind": "image", "payload": mm.encode_png(img)},
        {"media_id": "bmp", "kind": "image", "payload": mm.encode_bmp(img)},
        {"media_id": "ppm", "kind": "image", "payload": mm.encode_ppm(img)},
    ]
    out = mm.resize_images(rd.from_items(rows), 4, 4).take_all()
    by_id = {r["media_id"]: r for r in out}
    assert all(by_id[k]["resize_ok"] for k in ("png", "bmp", "ppm"))
    ref = mm.decode_ppm(by_id["ppm"]["payload"])
    for k in ("png", "bmp"):
        assert (mm.decode_ppm(by_id[k]["payload"]) == ref).all()


# ---- GIF codec (round 5: real variable-width LZW) ----


def test_gif_roundtrip_random_palettes():
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(41)
    for n_colors in (2, 13, 256):
        palette = rng.integers(0, 256, (n_colors, 3), dtype=np.uint8)
        idx = rng.integers(0, n_colors, (11, 9))
        img = palette[idx]
        out = mm.decode_gif(mm.encode_gif(img))
        assert out.shape == img.shape and (out == img).all(), n_colors


def test_gif_repetitive_forces_dict_growth_and_reset():
    """Long runs force KwKwK entries, width growth and (at size) the 4096
    dictionary reset — the full LZW state machine."""
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(43)
    # 160x160 with long runs: dictionary blows past 4096 -> clear+reset path
    base = np.repeat(rng.integers(0, 4, (160, 20)), 8, axis=1)
    palette = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255], [9, 9, 9]], np.uint8)
    img = palette[base]
    out = mm.decode_gif(mm.encode_gif(img))
    assert (out == img).all()
    # KwKwK specifically: aaa... pattern emits code == next_code
    aaa = np.zeros((1, 64), np.int64)
    img2 = palette[aaa]
    assert (mm.decode_gif(mm.encode_gif(img2)) == img2).all()


def test_gif_interlaced_roundtrip():
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(47)
    palette = rng.integers(0, 256, (7, 3), dtype=np.uint8)
    for h in (1, 2, 5, 8, 13):
        img = palette[rng.integers(0, 7, (h, 6))]
        out = mm.decode_gif(mm.encode_gif(img, interlace=True))
        assert (out == img).all(), f"h={h}"


def test_gif_uncompressed_trick_stream():
    """Independent decoder vector: a hand-built clear-code-heavy stream
    (the classic 'uncompressed GIF' construction — literals only, clear
    emitted before the dictionary can grow past one entry) must decode to
    the literal index sequence without exercising our encoder."""
    import struct

    from chronoxtract_ray.stages import multimodal as mm

    min_code = 2  # clear=4, end=5, width starts at 3
    indices = [0, 1, 2, 3, 3, 2, 1, 0, 2, 2]
    bits = []
    bits.append((4, 3))  # clear
    for k in indices:
        bits.append((k, 3))
        bits.append((4, 3))  # clear after every literal: table never grows
    bits.append((5, 3))  # end
    acc = acc_n = 0
    data = bytearray()
    for code, w in bits:
        acc |= code << acc_n
        acc_n += w
        while acc_n >= 8:
            data.append(acc & 0xFF)
            acc >>= 8
            acc_n -= 8
    if acc_n:
        data.append(acc & 0xFF)
    assert mm._lzw_decode(bytes(data), min_code) == indices
    # and through the full container: 5x2 image of those indices
    palette = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]], np.uint8)
    payload = bytearray(b"GIF89a")
    payload += struct.pack("<HHBBB", 5, 2, 0x80 | 0x01, 0, 0)  # gct: 4 entries
    payload += palette.tobytes()
    payload += b"\x2c" + struct.pack("<HHHHB", 0, 0, 5, 2, 0)
    payload.append(min_code)
    payload.append(len(data))
    payload += data
    payload += b"\x00\x3b"
    img = mm.decode_gif(bytes(payload))
    assert (img == palette[np.array(indices).reshape(2, 5)]).all()


def test_gif_rejects_corruption_and_too_many_colors():
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(53)
    img = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)  # likely 16 colors
    good = mm.encode_gif(img)
    with pytest.raises(ValueError):
        mm.decode_gif(b"JUNK" + good)
    with pytest.raises(ValueError):
        mm.decode_gif(good[: len(good) // 2])
    # >256 distinct colors cannot be palettized
    i = np.arange(17 * 17, dtype=np.int64)
    big = np.stack([i % 256, i // 256, np.zeros_like(i)], axis=1).reshape(17, 17, 3)
    with pytest.raises(ValueError):
        mm.encode_gif(big.astype(np.uint8))


def test_gif_features_match_ppm(ray_session):
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(59)
    palette = rng.integers(0, 256, (30, 3), dtype=np.uint8)
    img = palette[rng.integers(0, 30, (10, 12))]
    dec = mm.MediaDecoder(kind="image", n_features=16, decoder="raw")
    f_gif, ok1 = dec._features(mm.encode_gif(img), "image")
    f_ppm, ok2 = dec._features(mm.encode_ppm(img), "image")
    assert ok1 and ok2 and (f_gif == f_ppm).all()


def test_no_codec_ever_escapes_valueerror_on_truncation_or_corruption():
    """No-poison-pill guarantee across ALL codecs: decoding a payload
    truncated at ANY offset, or with any single corrupted byte, must either
    succeed or raise ValueError — never IndexError/struct.error/zlib.error,
    which would escape the decode stage's catch and kill a Ray task."""
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(61)
    img = rng.integers(0, 256, (6, 7, 3), dtype=np.uint8)
    pal_img = rng.integers(0, 256, (16, 3), dtype=np.uint8)[rng.integers(0, 16, (6, 7))]
    snd = (rng.standard_normal(63) * 5000).astype(np.int16)  # odd: pad path
    cases = [
        (mm.decode_ppm, mm.encode_ppm(img)),
        (mm.decode_png, mm.encode_png(img)),
        (mm.decode_bmp, mm.encode_bmp(img)),
        (mm.decode_gif, mm.encode_gif(pal_img)),
        (lambda p: mm.decode_wav(p)[1], mm.encode_wav(8000, snd)),
        (lambda p: mm.decode_wav(p)[1], mm.encode_wav_g711(8000, snd, "mulaw")),
        (lambda p: mm.decode_wav(p)[1], mm.encode_wav_g711(8000, snd, "alaw")),
        (mm.decode_image_any, mm.encode_png(img)),
    ]
    for dec, payload in cases:
        for cut in range(len(payload)):  # every truncation point
            try:
                dec(payload[:cut])
            except ValueError:
                pass
        for _ in range(200):  # random single-byte corruptions
            b = bytearray(payload)
            i = int(rng.integers(0, len(b)))
            b[i] ^= int(rng.integers(1, 256))
            try:
                dec(bytes(b))
            except ValueError:
                pass


# ---- G.711 µ-law / A-law (round 5) ----


def test_g711_byte_idempotence_and_known_values():
    from chronoxtract_ray.stages import multimodal as mm

    all_bytes = np.arange(256, dtype=np.uint8)
    for dec_table, enc in (
        (mm._MULAW_TABLE, mm.linear_to_mulaw),
        (mm._ALAW_TABLE, mm.linear_to_alaw),
    ):
        lin = dec_table[all_bytes]
        # decode(encode(decode(b))) == decode(b): the companding fixpoint
        assert (dec_table[enc(lin)] == lin).all()
    # canonical silence codes
    assert mm._MULAW_TABLE[0xFF] == 0
    assert mm._ALAW_TABLE[0xD5] == 8  # A-law smallest positive
    # decode tables are odd-symmetric around zero (sign bit flips sign)
    assert mm._MULAW_TABLE[0x7F] == -mm._MULAW_TABLE[0xFF]
    assert mm._ALAW_TABLE[0x55] == -mm._ALAW_TABLE[0xD5]


def test_g711_quantization_error_bounded():
    from chronoxtract_ray.stages import multimodal as mm

    rng = np.random.default_rng(67)
    x = rng.integers(-32768, 32768, 5000).astype(np.int16)
    for enc, table in ((mm.linear_to_mulaw, mm._MULAW_TABLE), (mm.linear_to_alaw, mm._ALAW_TABLE)):
        back = table[enc(x)].astype(np.int64)
        err = np.abs(back - x.astype(np.int64))
        # logarithmic companding: error scales with magnitude
        assert (err <= (np.abs(x.astype(np.int64)) >> 4) + 40).all()


def test_g711_wav_container_roundtrip():
    from chronoxtract_ray.stages import multimodal as mm

    x = (np.sin(np.arange(400) * 0.07) * 20000).astype(np.int16)
    for law, table, enc in (
        ("mulaw", mm._MULAW_TABLE, mm.linear_to_mulaw),
        ("alaw", mm._ALAW_TABLE, mm.linear_to_alaw),
    ):
        sr, got = mm.decode_wav(mm.encode_wav_g711(8000, x, law))
        assert sr == 8000
        assert (got == table[enc(x)]).all()
    with pytest.raises(ValueError):
        mm.encode_wav_g711(8000, x, "dpcm")
    # and through the real feature path
    dec = mm.MediaDecoder(kind="audio", n_features=16, decoder="raw")
    feats, ok = dec._features(mm.encode_wav_g711(8000, x, "mulaw"), "audio")
    assert ok and feats[0] == 8000 and feats[1] == 400
