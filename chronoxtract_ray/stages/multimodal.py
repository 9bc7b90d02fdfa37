"""Multimodal (image/audio/video) column plumbing — actor-pool stages.

Decoder tiers (per round instructions — compressed codecs' libraries are NOT
in this container):

- ``decoder="raw"`` — REAL decode with pure numpy + stdlib: PPM (P6),
  PNG (full chunk walk with CRC verification, zlib inflate, all five
  filter types — stdlib zlib, no imaging library), 24-bit BMP and GIF
  images (real variable-width LZW with interlace support), and WAV audio
  (PCM16 plus G.711 µ-law/A-law expansion). Features are computed from the actual pixels/samples
  (channel stats, luminance histogram moments / RMS, zero-crossings,
  spectral centroid and band energies via rFFT). Corrupt or unsupported
  payloads set ``decode_ok=false`` with NaN features instead of killing
  the job — at 100 TB some records are always broken.
- ``decoder="fake"`` — deterministic pseudo-features from payload bytes
  (plumbing tests that don't care about codecs).
- ``decoder="none"`` — raises NotImplementedError at actor construction: the
  honest placeholder for the remaining compressed codecs (JPEG/MP3/H.264).
  PNG/GIF/BMP graduated to the real tier in round 5 because they can be
  VALIDATED here (stdlib zlib + hand-built spec-reference streams give
  encoder-independent vectors); a from-scratch JPEG/MP3 would be
  implementable in principle but, with no reference codec in this
  container, only testable by round-tripping our own lossy encoder —
  which proves self-consistency, not correctness (a wrong zigzag order
  on both sides cancels). Stubbing beats shipping unvalidatable decode.

Shape notes for scale: binary payloads make rows huge, so run with small
``batch_size`` (16-64), keep ``batch_format="pyarrow"`` (binary columns
don't survive pandas object dtype well), and size ``concurrency`` by decoder
memory, not CPU.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

__all__ = [
    "MediaDecoder",
    "decode_media",
    "frame_sample",
    "resize_images",
    "decode_ppm",
    "encode_ppm",
    "decode_png",
    "encode_png",
    "decode_bmp",
    "encode_bmp",
    "decode_gif",
    "encode_gif",
    "decode_image_any",
    "decode_wav",
    "encode_wav",
    "encode_wav_g711",
    "linear_to_mulaw",
    "linear_to_alaw",
    "resize_nearest",
    "MEDIA_SCHEMA",
]


# ---------------------------------------------------------------------------
# Pure-numpy codecs for the uncompressed formats (no external libraries).
# ---------------------------------------------------------------------------


def decode_ppm(payload: bytes) -> np.ndarray:
    """Decode a binary PPM (P6) image → uint8 array of shape (h, w, 3).

    Handles the standard header: magic, whitespace/comments, width, height,
    maxval (must be 255), single whitespace byte, then raw RGB. Raises
    ValueError on anything malformed."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM payload")
    # tokenize header: P6 <w> <h> <maxval>, '#' comments run to end-of-line
    pos, fields = 2, []
    n = len(payload)
    while len(fields) < 3:
        while pos < n and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < n and payload[pos : pos + 1] == b"#":
            while pos < n and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not payload[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PPM header")
        fields.append(int(payload[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255 or w <= 0 or h <= 0:
        raise ValueError(f"unsupported PPM geometry w={w} h={h} maxval={maxval}")
    need = w * h * 3
    raster = payload[pos : pos + need]
    if len(raster) != need:
        raise ValueError("truncated PPM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)


def encode_ppm(img: np.ndarray) -> bytes:
    """uint8 (h, w, 3) array → binary PPM (P6) payload."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError("encode_ppm expects (h, w, 3)")
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(typ: bytes, data: bytes) -> bytes:
    import zlib

    return (
        struct.pack(">I", len(data))
        + typ
        + data
        + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray) -> bytes:
    """uint8 image → PNG payload (bit depth 8, no interlace, filter-0 rows,
    zlib-compressed, CRC-correct). Accepts (h, w) grayscale or (h, w, c)
    with c ∈ {1, 2, 3, 4} (gray / gray+alpha / RGB / RGBA)."""
    import zlib

    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    try:
        color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    except KeyError:
        raise ValueError(f"encode_png: unsupported channel count {c}")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    rows = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(rows))
        + _png_chunk(b"IEND", b"")
    )


_PNG_MAX_PIXELS = 1 << 26  # largest IHDR geometry decode_png accepts (64 Mpx)


def _png_unfilter(raw: bytes, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse the PNG per-row filters (types 0-4 per the spec) →
    (h, stride) uint8 of reconstructed scanline bytes. Filters None/Up/Sub
    are vectorized (Sub as a per-lane cumulative sum mod 256); Average and
    Paeth are inherently sequential along the row and run as per-byte loops
    — our own encoder emits filter 0, so the hot path never pays them."""
    arr = np.frombuffer(raw, dtype=np.uint8)
    if arr.size != h * (stride + 1):
        raise ValueError("PNG: decompressed size does not match geometry")
    arr = arr.reshape(h, stride + 1)
    out = np.zeros((h, stride), np.uint8)
    for r in range(h):
        ftype = int(arr[r, 0])
        line = arr[r, 1:].astype(np.int64)
        prev = out[r - 1].astype(np.int64) if r else np.zeros(stride, np.int64)
        if ftype == 0:
            rec = line
        elif ftype == 1:  # Sub: recon[i] = raw[i] + recon[i - bpp]
            rec = (line.reshape(-1, bpp).cumsum(axis=0) % 256).reshape(-1)
        elif ftype == 2:  # Up
            rec = (line + prev) % 256
        elif ftype == 3:  # Average
            rec = np.empty(stride, np.int64)
            for i in range(stride):
                left = rec[i - bpp] if i >= bpp else 0
                rec[i] = (line[i] + (left + prev[i]) // 2) % 256
        elif ftype == 4:  # Paeth
            rec = np.empty(stride, np.int64)
            for i in range(stride):
                a = rec[i - bpp] if i >= bpp else 0
                b = prev[i]
                cc = prev[i - bpp] if i >= bpp else 0
                p = a + b - cc
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else cc)
                rec[i] = (line[i] + pred) % 256
        else:
            raise ValueError(f"PNG: unknown filter type {ftype}")
        out[r] = rec.astype(np.uint8)
    return out


def decode_png(payload: bytes) -> np.ndarray:
    """Decode a PNG → uint8 array of shape (h, w, c), c ∈ {1, 2, 3, 4}.

    Real decode with stdlib zlib + numpy (no external imaging library):
    chunk walk with CRC verification, IDAT concatenation, inflate, and
    full filter reconstruction per the PNG specification. Supported: bit
    depth 8, color types 0/2/4/6 (gray / RGB / gray+alpha / RGBA),
    non-interlaced. Raises ValueError on anything else (palette images,
    16-bit depth, Adam7) — flagged not-decodable upstream, same contract
    as the other codecs."""
    import zlib

    if not payload.startswith(_PNG_SIG):
        raise ValueError("not a PNG payload")
    pos, n = len(_PNG_SIG), len(payload)
    ihdr = None
    idat = []
    while pos + 8 <= n:
        (length,) = struct.unpack(">I", payload[pos : pos + 4])
        typ = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + length]
        if len(data) != length or pos + 12 + length > n:
            raise ValueError("PNG: truncated chunk")
        (crc,) = struct.unpack(">I", payload[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(typ + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG: bad CRC in {typ!r} chunk")
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        pos += 12 + length
    if ihdr is None or not idat:
        raise ValueError("PNG: missing IHDR/IDAT")
    w, h, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth != 8 or comp != 0 or filt != 0 or interlace != 0:
        raise ValueError(
            f"PNG: unsupported depth/compression/interlace ({depth}/{comp}/{interlace})"
        )
    channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color_type)
    if channels is None:
        raise ValueError(f"PNG: unsupported color type {color_type} (palette?)")
    if w <= 0 or h <= 0 or w * h > _PNG_MAX_PIXELS:
        raise ValueError(f"PNG: bad geometry {w}x{h} (at most {_PNG_MAX_PIXELS} pixels)")
    # inflate no further than the geometry allows: a deflate bomb stops at
    # h * (stride + 1) bytes instead of exhausting the worker's memory
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(b"".join(idat), h * (w * channels + 1))
    except zlib.error as e:
        # normalize to the codec contract (ValueError on malformed input):
        # a CRC-valid but zlib-invalid IDAT must flag decode_ok=false
        # upstream, not poison-pill the Ray task (r5 review)
        raise ValueError(f"PNG: bad deflate stream: {e}") from None
    if inflater.unconsumed_tail:
        raise ValueError("PNG: IDAT inflates past the IHDR geometry")
    if not inflater.eof:
        raise ValueError("PNG: truncated deflate stream")
    out = _png_unfilter(raw, h, w * channels, channels)
    return out.reshape(h, w, channels)


def decode_bmp(payload: bytes) -> np.ndarray:
    """Decode a Windows BMP (BITMAPINFOHEADER, 24-bit uncompressed) →
    uint8 (h, w, 3) RGB. Handles 4-byte row padding and both bottom-up
    (positive height) and top-down (negative height) rasters. Raises
    ValueError on palette/compressed/other-depth variants."""
    if len(payload) < 54 or payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    data_off = struct.unpack("<I", payload[10:14])[0]
    hdr_size = struct.unpack("<I", payload[14:18])[0]
    if hdr_size < 40:
        raise ValueError(f"BMP: unsupported header size {hdr_size}")
    w, h_raw = struct.unpack("<ii", payload[18:26])
    planes, depth = struct.unpack("<HH", payload[26:30])
    compression = struct.unpack("<I", payload[30:34])[0]
    if planes != 1 or depth != 24 or compression != 0:
        raise ValueError(f"BMP: unsupported depth={depth} compression={compression}")
    if w <= 0 or h_raw == 0:
        raise ValueError("BMP: bad geometry")
    h = abs(h_raw)
    row_bytes = (w * 3 + 3) & ~3  # rows pad to 4-byte boundaries
    need = row_bytes * h
    raster = payload[data_off : data_off + need]
    if len(raster) != need:
        raise ValueError("BMP: truncated raster")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(h, row_bytes)[:, : w * 3]
    img = rows.reshape(h, w, 3)[:, :, ::-1]  # BGR → RGB
    return img[::-1] if h_raw > 0 else img  # bottom-up → top-down


def encode_bmp(img: np.ndarray) -> bytes:
    """uint8 (h, w, 3) RGB → 24-bit bottom-up BMP payload."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError("encode_bmp expects (h, w, 3)")
    row_bytes = (w * 3 + 3) & ~3
    pad = row_bytes - w * 3
    bgr_bottom_up = img[::-1, :, ::-1]
    raster = b"".join(bgr_bottom_up[r].tobytes() + b"\x00" * pad for r in range(h))
    size = 54 + len(raster)
    return (
        b"BM"
        + struct.pack("<IHHI", size, 0, 0, 54)
        + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(raster), 2835, 2835, 0, 0)
        + raster
    )




# ---- GIF (LZW) ------------------------------------------------------------

_GIF_MAX_CODE = 1 << 12  # LZW code width is capped at 12 bits per the spec


def _lzw_decode(data: bytes, min_code_size: int) -> list[int]:
    """GIF-variant LZW decode (LSB-first variable-width codes, clear/end
    control codes, KwKwK case, 12-bit cap) → pixel index list."""
    clear, end = 1 << min_code_size, (1 << min_code_size) + 1
    bitpos, total = 0, len(data) * 8

    def read(width: int):
        nonlocal bitpos
        if bitpos + width > total:
            return None
        v = 0
        for k in range(width):
            v |= ((data[(bitpos + k) >> 3] >> ((bitpos + k) & 7)) & 1) << k
        bitpos += width
        return v

    table: list = [(i,) for i in range(clear)] + [None, None]
    width = min_code_size + 1
    prev = None
    out: list[int] = []
    while True:
        code = read(width)
        if code is None:
            raise ValueError("GIF: truncated LZW stream")
        if code == clear:
            table = [(i,) for i in range(clear)] + [None, None]
            width = min_code_size + 1
            prev = None
            continue
        if code == end:
            break
        if code < len(table) and table[code] is not None:
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + (prev[0],)  # KwKwK
        else:
            raise ValueError(f"GIF: bad LZW code {code}")
        out.extend(entry)
        if prev is not None:
            table.append(prev + (entry[0],))
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
    return out


def _lzw_encode(indices, min_code_size: int) -> bytes:
    """GIF-variant LZW encode, bit-for-bit the inverse of _lzw_decode's
    width/clear discipline (emits a clear when the table would exceed the
    12-bit cap)."""
    clear, end = 1 << min_code_size, (1 << min_code_size) + 1
    out = bytearray()
    acc = acc_bits = 0

    def emit(code: int, width: int):
        nonlocal acc, acc_bits
        acc |= code << acc_bits
        acc_bits += width
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8

    def fresh():
        return {(i,): i for i in range(clear)}

    width = min_code_size + 1
    emit(clear, width)
    table = fresh()
    size = clear + 2  # mirrors the decoder's table length
    w: tuple = ()
    for k in indices:
        wk = w + (int(k),)
        if wk in table:
            w = wk
            continue
        # the encoder registers each new string one code EARLIER than the
        # decoder reconstructs it, so the width bump fires at 2^width + 1
        # (the classic LZW early/late-change synchronization)
        if size == (1 << width) + 1 and width < 12:
            width += 1
        emit(table[w], width)
        table[wk] = size
        size += 1
        if size == _GIF_MAX_CODE:
            if size == (1 << width) + 1 and width < 12:
                width += 1
            emit(table[(int(k),)], width)
            emit(clear, width)
            table, size, width = fresh(), clear + 2, min_code_size + 1
            w = ()
            continue
        w = (int(k),)
    if w:
        if size == (1 << width) + 1 and width < 12:
            width += 1
        emit(table[w], width)
        size += 1
    if size == (1 << width) + 1 and width < 12:
        width += 1
    emit(end, width)
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def _gif_interlace_order(h: int) -> np.ndarray:
    """Row emission order of a GIF interlaced raster (the four Adam-style
    passes per the spec)."""
    return np.concatenate(
        [np.arange(0, h, 8), np.arange(4, h, 8), np.arange(2, h, 4), np.arange(1, h, 2)]
    ).astype(np.int64)


def decode_gif(payload: bytes) -> np.ndarray:
    """Decode the FIRST image of a GIF87a/89a → uint8 (h, w, 3) RGB.

    Real decode, pure Python/numpy: logical screen descriptor, global and
    local color tables, extension-block skipping, full variable-width LZW
    with clear/end/KwKwK/12-bit-cap semantics, and interlaced rasters.
    Raises ValueError on malformed input."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    if len(payload) < 13:
        raise ValueError("GIF: truncated screen descriptor")
    packed = payload[10]
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(payload[pos : pos + 3 * n], dtype=np.uint8)
        if gct.size != 3 * n:
            raise ValueError("GIF: truncated global color table")
        gct = gct.reshape(n, 3)
        pos += 3 * n
    while pos < len(payload):
        b = payload[pos]
        if b == 0x21:  # extension: label + sub-blocks
            pos += 2
            if pos > len(payload):
                raise ValueError("GIF: truncated extension")
            while pos < len(payload) and payload[pos] != 0:
                pos += 1 + payload[pos]
            pos += 1
        elif b == 0x2C:  # image descriptor
            if pos + 10 > len(payload):
                raise ValueError("GIF: truncated image descriptor")
            w, h = struct.unpack("<HH", payload[pos + 5 : pos + 9])
            ipacked = payload[pos + 9]
            pos += 10
            table = gct
            if ipacked & 0x80:
                n = 2 << (ipacked & 0x07)
                table = np.frombuffer(payload[pos : pos + 3 * n], dtype=np.uint8)
                if table.size != 3 * n:
                    raise ValueError("GIF: truncated local color table")
                table = table.reshape(n, 3)
                pos += 3 * n
            if table is None:
                raise ValueError("GIF: image has no color table")
            if w <= 0 or h <= 0:
                raise ValueError("GIF: bad geometry")
            if pos >= len(payload):
                raise ValueError("GIF: truncated before LZW data")
            min_code = payload[pos]
            pos += 1
            if not 2 <= min_code <= 11:
                raise ValueError(f"GIF: bad LZW minimum code size {min_code}")
            chunks = []
            while pos < len(payload) and payload[pos] != 0:
                ln = payload[pos]
                chunk = payload[pos + 1 : pos + 1 + ln]
                if len(chunk) != ln:
                    raise ValueError("GIF: truncated data sub-block")
                chunks.append(chunk)
                pos += 1 + ln
            idx = np.array(_lzw_decode(b"".join(chunks), min_code), dtype=np.int64)
            if idx.size != w * h:
                raise ValueError(f"GIF: decoded {idx.size} pixels for {w}x{h}")
            if (idx >= table.shape[0]).any():
                raise ValueError("GIF: pixel index outside color table")
            img = table[idx].reshape(h, w, 3)
            if ipacked & 0x40:  # interlaced: rows arrived in pass order
                out = np.empty_like(img)
                out[_gif_interlace_order(h)] = img
                img = out
            return img
        elif b == 0x3B:  # trailer
            break
        else:
            raise ValueError(f"GIF: unknown block 0x{b:02x}")
    raise ValueError("GIF: no image data")


def encode_gif(img: np.ndarray, interlace: bool = False) -> bytes:
    """uint8 (h, w, 3) RGB with <= 256 distinct colors → GIF89a payload
    (global color table, real LZW compression, optional interlacing)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError("encode_gif expects (h, w, 3)")
    colors, inv = np.unique(img.reshape(-1, 3), axis=0, return_inverse=True)
    if colors.shape[0] > 256:
        raise ValueError(f"encode_gif: {colors.shape[0]} distinct colors > 256")
    bits = max(1, int(np.ceil(np.log2(max(colors.shape[0], 2)))))
    n_table = 1 << bits
    palette = np.zeros((n_table, 3), np.uint8)
    palette[: colors.shape[0]] = colors
    min_code = max(2, bits)
    idx = inv.reshape(h, w)
    if interlace:
        idx = idx[_gif_interlace_order(h)]
    data = _lzw_encode(idx.ravel(), min_code)
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((bits - 1) & 0x07), 0, 0)
    out += palette.tobytes()
    out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0x40 if interlace else 0)
    out.append(min_code)
    for i in range(0, len(data), 255):
        chunk = data[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3b"
    return bytes(out)


def decode_image_any(payload: bytes) -> np.ndarray:
    """Magic-sniffed image decode → uint8 (h, w, 3) RGB: P6 PPM, PNG or
    24-bit BMP (gray and alpha forms normalized to RGB — gray replicated,
    alpha dropped — so downstream feature math is codec-independent)."""
    if payload.startswith(_PNG_SIG):
        img = decode_png(payload)
        c = img.shape[2]
        if c == 2:  # gray + alpha
            img = img[:, :, :1]
            c = 1
        if c == 1:
            return np.repeat(img, 3, axis=2)
        return img[:, :, :3]  # RGB or RGBA→RGB
    if payload.startswith(b"BM"):
        return decode_bmp(payload)
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return decode_gif(payload)
    return decode_ppm(payload)




# ---- G.711 companded audio (µ-law / A-law) --------------------------------


def _mulaw_decode_table() -> np.ndarray:
    """256-entry µ-law byte → linear int16 table (G.711 canonical form)."""
    u = np.arange(256, dtype=np.int64) ^ 0xFF
    sign = (u & 0x80) != 0
    exp = (u >> 4) & 0x07
    mant = u & 0x0F
    mag = (((mant << 3) + 0x84) << exp) - 0x84
    return np.where(sign, -mag, mag).astype(np.int16)


def _alaw_decode_table() -> np.ndarray:
    """256-entry A-law byte → linear int16 table (G.711 canonical form)."""
    a = np.arange(256, dtype=np.int64) ^ 0x55
    seg = (a >> 4) & 0x07
    mant = a & 0x0F
    t = mant << 4
    t = np.where(seg == 0, t + 8, np.where(seg == 1, t + 0x108, (t + 0x108) << np.maximum(seg - 1, 0)))
    return np.where((a & 0x80) != 0, t, -t).astype(np.int16)


_MULAW_TABLE = _mulaw_decode_table()
_ALAW_TABLE = _alaw_decode_table()
def _bit_length(m: np.ndarray) -> np.ndarray:
    """Vectorized int bit length (exact for the 16-bit magnitudes here)."""
    return np.where(m > 0, np.floor(np.log2(np.maximum(m, 1))).astype(np.int64) + 1, 0)


def linear_to_mulaw(x: np.ndarray) -> np.ndarray:
    """int16 linear → µ-law bytes (vectorized G.711 compressor, exact
    inverse of _mulaw_decode_table's form: biased magnitude
    B = ((mant<<3)+0x84)<<exp, so exp = bitlen(B) - 8 and
    mant = (B >> (exp+3)) & 0x0F)."""
    x = np.asarray(x, dtype=np.int64)
    sign = np.where(x < 0, 0x80, 0x00)
    B = np.minimum(np.abs(x), 32635) + 0x84
    exp = np.clip(_bit_length(B) - 8, 0, 7)
    mant = (B >> (exp + 3)) & 0x0F
    return ((~(sign | (exp << 4) | mant)) & 0xFF).astype(np.uint8)


def linear_to_alaw(x: np.ndarray) -> np.ndarray:
    """int16 linear → A-law bytes (vectorized G.711 compressor, exact
    inverse of _alaw_decode_table's form: seg = bitlen(m) - 8 with
    segment-0 magnitudes under 256)."""
    x = np.asarray(x, dtype=np.int64)
    sign = np.where(x >= 0, 0x80, 0x00)
    m = np.minimum(np.abs(x), 0x7FFF)
    seg = np.clip(_bit_length(m) - 8, 0, 7)
    mant = np.where(seg == 0, m >> 4, (m >> (seg + 3)) & 0x0F)
    return (((sign | (seg << 4) | mant) ^ 0x55) & 0xFF).astype(np.uint8)


def _wav_header(fmt_code: int, sample_rate: int, bits: int, n_bytes: int, pad: int) -> bytes:
    """Shared RIFF/fmt/data header for the mono WAV encoders (byte rate and
    block align derived, not hand-copied; ``pad`` = RIFF word-alignment
    byte counted in the outer RIFF size but not the data chunk size)."""
    block = bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + n_bytes + pad, b"WAVE", b"fmt ", 16, fmt_code, 1,
        sample_rate, sample_rate * block, block, bits, b"data", n_bytes,
    )


def encode_wav_g711(sample_rate: int, samples: np.ndarray, law: str = "mulaw") -> bytes:
    """int16 mono samples → RIFF WAV payload companded to µ-law (format
    code 7) or A-law (format code 6), 8 bits per sample. Odd-length data
    chunks get the RIFF word-alignment pad byte."""
    if law == "mulaw":
        fmt, raw = 7, linear_to_mulaw(samples).tobytes()
    elif law == "alaw":
        fmt, raw = 6, linear_to_alaw(samples).tobytes()
    else:
        raise ValueError(f"unknown companding law {law!r}")
    pad = len(raw) & 1
    return _wav_header(fmt, sample_rate, 8, len(raw), pad) + raw + b"\x00" * pad


def decode_wav(payload: bytes) -> tuple[int, np.ndarray]:
    """Decode a RIFF WAV → (sample_rate, int16 samples): 16-bit PCM
    (format 1) or G.711 companded audio — A-law (format 6) / µ-law
    (format 7), expanded to linear through the canonical 256-entry tables.

    Multi-channel input is downmixed to mono by averaging channels (the
    standard feature-extraction convention). Raises ValueError on any
    other encoding."""
    if len(payload) < 44 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, n = 12, len(payload)
    sr = channels = bits = None
    data = None
    while pos + 8 <= n:
        cid, size = payload[pos : pos + 4], struct.unpack_from("<I", payload, pos + 4)[0]
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise ValueError("WAV: truncated fmt chunk")
            fmt, channels, sr = struct.unpack_from("<HHI", body, 0)
            bits = struct.unpack_from("<H", body, 14)[0]
            if not ((fmt == 1 and bits == 16) or (fmt in (6, 7) and bits == 8)):
                raise ValueError(f"unsupported WAV encoding fmt={fmt} bits={bits}")
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if sr is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    if channels < 1 or sr < 1:
        # a corrupt-but-parseable header must flag decode_ok=false, not
        # escape as ZeroDivisionError and kill the task (no-poison-pill)
        raise ValueError(f"invalid WAV header channels={channels} sr={sr}")
    if fmt in (6, 7):
        table = _ALAW_TABLE if fmt == 6 else _MULAW_TABLE
        raw = np.frombuffer(data[: len(data) - (len(data) % channels)], dtype=np.uint8)
        samples = table[raw]
    else:
        samples = np.frombuffer(data[: len(data) - (len(data) % (2 * channels))], dtype="<i2")
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1).astype(np.int16)
    return sr, samples


def encode_wav(sample_rate: int, samples: np.ndarray) -> bytes:
    """int16 mono samples → RIFF WAV PCM16 payload."""
    pcm = np.ascontiguousarray(samples, dtype="<i2").tobytes()
    return _wav_header(1, sample_rate, 16, len(pcm), 0) + pcm


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize via numpy index gather (no interpolation lib)."""
    h, w = img.shape[:2]
    rows = (np.arange(out_h) * h) // out_h
    cols = (np.arange(out_w) * w) // out_w
    return img[rows[:, None], cols[None, :]]

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("meta", pa.string()),  # JSON sidecar (codec, dims, sample rate, ...)
    ]
)


class MediaDecoder:
    """Actor-pool UDF: decode binary payloads → fixed-size feature vectors.

    __init__ runs once per actor (model/codec load goes here); __call__ runs
    per batch, vectorized over the batch's payloads."""

    def __init__(self, kind: str = "image", n_features: int = 16, decoder: str = "fake"):
        self.kind = kind
        self.n_features = n_features
        if decoder == "none":
            raise NotImplementedError(
                "compressed-codec decoding (JPEG/MP3/H.264) requires "
                "libraries not present in this environment; use decoder='raw' "
                "for PPM/PNG/WAV payloads or decoder='fake' for plumbing tests"
            )
        if decoder not in ("fake", "raw"):
            raise ValueError(f"unknown decoder: {decoder}")
        self.decoder = decoder
        # per-actor state: a fixed projection 'model' (stands in for weights)
        rng = np.random.default_rng(42)
        self.projection = rng.standard_normal((256, n_features))

    def _fake_features(self, payload: bytes) -> np.ndarray:
        """Deterministic pseudo-decode: byte histogram → projection."""
        b = np.frombuffer(payload, dtype=np.uint8) if payload else np.zeros(1, np.uint8)
        hist = np.bincount(b, minlength=256).astype(np.float64)
        hist /= max(hist.sum(), 1.0)
        return hist @ self.projection

    def _image_features(self, payload: bytes) -> np.ndarray:
        """PPM/PNG pixels → [w, h, mean RGB, std RGB, luma
        mean/std/p10/p50/p90, gradient energy, aspect] (padded/truncated to
        n_features). Codec-independent: the same pixels produce the same
        features whether they arrived as P6 or PNG (pinned in tests)."""
        img = decode_image_any(payload)
        f = img.astype(np.float64)
        luma = f @ np.array([0.2126, 0.7152, 0.0722])
        p10, p50, p90 = np.percentile(luma, [10.0, 50.0, 90.0])
        grad = float(np.abs(np.diff(luma, axis=1)).mean()) if img.shape[1] > 1 else 0.0
        vec = np.array([
            img.shape[1], img.shape[0],
            *f.reshape(-1, 3).mean(axis=0), *f.reshape(-1, 3).std(axis=0),
            luma.mean(), luma.std(), p10, p50, p90, grad,
            img.shape[1] / img.shape[0],
        ])
        return self._pad(vec)

    def _audio_features(self, payload: bytes) -> np.ndarray:
        """WAV samples → [sr, n, rms, zero-cross rate, spectral centroid,
        4 band-energy fractions, peak] (padded/truncated to n_features)."""
        sr, x = decode_wav(payload)
        xf = x.astype(np.float64) / 32768.0
        if xf.size == 0:
            raise ValueError("empty WAV data")
        rms = float(np.sqrt((xf * xf).mean()))
        zcr = float((np.diff(np.signbit(xf)) != 0).mean()) if xf.size > 1 else 0.0
        spec = np.abs(np.fft.rfft(xf)) ** 2
        freqs = np.fft.rfftfreq(xf.size, d=1.0 / sr)
        total = spec.sum()
        centroid = float((freqs * spec).sum() / total) if total > 0 else 0.0
        bands = np.array_split(spec, 4)
        band_frac = [float(b.sum() / total) if total > 0 else 0.0 for b in bands]
        vec = np.array([sr, xf.size, rms, zcr, centroid, *band_frac, float(np.abs(xf).max())])
        return self._pad(vec)

    def _pad(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_features)
        k = min(self.n_features, vec.size)
        out[:k] = vec[:k]
        return out

    def _features(self, payload: bytes, kind: str) -> tuple[np.ndarray, bool]:
        if self.decoder == "fake":
            return self._fake_features(payload), True
        try:
            if kind == "image":
                return self._image_features(payload), True
            if kind == "audio":
                return self._audio_features(payload), True
            raise ValueError(f"raw decoder has no codec for kind={kind!r}")
        except (ValueError, struct.error):
            # broken records must not kill a 100 TB job — flag and continue
            return np.full(self.n_features, np.nan), False

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        # materialize each payload ONCE — this stage is payload-memory-bound
        # and a second as_py() pass doubles the per-batch heap
        payloads = [p.as_py() or b"" for p in batch["payload"]]
        pairs = [self._features(p, k) for p, k in zip(payloads, kinds)]
        sizes = [len(p) for p in payloads]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "n_bytes": pa.array(sizes, pa.int64()),
                "decode_ok": pa.array([ok for _, ok in pairs], pa.bool_()),
                "features": pa.array([f.tolist() for f, _ in pairs], pa.list_(pa.float64())),
            }
        )


def decode_media(ds, kind: str = "image", n_features: int = 16, decoder: str = "fake", batch_size: int = 32, concurrency=(1, 4)):
    """Binary media rows → feature rows via a stateful actor pool."""
    return ds.map_batches(
        MediaDecoder,
        fn_constructor_args=(kind, n_features, decoder),
        batch_size=batch_size,
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def resize_images(ds, out_h: int, out_w: int, batch_size: int = 32, concurrency=(1, 4)):
    """Real image transform stage: PPM/PNG/BMP payload (magic-sniffed) →
    nearest-neighbor resize → PPM payload. Broken payloads pass through
    with ``resize_ok=false`` and a null output payload (same
    no-poison-pill policy as decode)."""

    def fn(batch: pa.Table) -> pa.Table:
        outs, oks = [], []
        for p in batch["payload"]:
            try:
                outs.append(encode_ppm(resize_nearest(decode_image_any(p.as_py() or b""), out_h, out_w)))
                oks.append(True)
            except ValueError:
                outs.append(None)
                oks.append(False)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "payload": pa.array(outs, pa.binary()),
                "resize_ok": pa.array(oks, pa.bool_()),
            }
        )

    return ds.map_batches(fn, batch_size=batch_size, batch_format="pyarrow")


def frame_sample(ds, every_n_bytes: int = 1024, frame_bytes: int = 64, batch_size: int = 32):
    """'Video' frame sampling stand-in: deterministic byte-stride slices of
    each payload → one row per sampled frame (flat_map shape via map_batches)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, payload in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
            data = payload or b""
            for k, off in enumerate(range(0, len(data), every_n_bytes)):
                ids.append(mid)
                idxs.append(k)
                frames.append(data[off : off + frame_bytes])
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "frame": pa.array(frames, pa.binary()),
            }
        )

    return ds.map_batches(fn, batch_size=batch_size, batch_format="pyarrow")
