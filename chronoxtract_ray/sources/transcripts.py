"""Deterministic synthetic transcript table (FIXTURES.md §1) + readers.

Schema (BASELINE.json input_hint): conv_id:string, turn_idx:int32,
role:string, text:string, tool:string, ts:timestamp[us].

Every cell is a pure integer function of (conv index, turn index) — no RNG —
so any subset of conversations regenerates identically regardless of
partitioning, and tests can recompute expected values row-by-row.

Generation is Ray-parallel for bench-scale tables (``ray.data.range`` over
conv indices → ``map_batches`` expansion) and direct for tiny test tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "conv_turn_count",
    "generate_conv_arrays",
    "generate_table",
    "transcripts_dataset",
    "write_transcripts",
    "read_transcripts",
    "read_transcripts_jsonl",
    "read_transcripts_csv",
    "write_transcripts_jsonl",
    "write_transcripts_csv",
    "open_transcripts",
    "normalize_transcripts",
    "TRANSCRIPT_SCHEMA",
]

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

_BASE_TS_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in epoch micros
_ROLES = ("user", "assistant", "tool")
_TOOLS = ("", "search", "python", "browser")
_MIX = 2654435761  # Knuth multiplicative hash constant (public domain)


def conv_turn_count(i: int, base_turns: int = 40, hot_every: int = 200, hot_factor: int = 100) -> int:
    """Zipf-ish skew: every ``hot_every``-th conversation is ``hot_factor``x
    longer (exercises skew); others vary 50%-150% of base."""
    if hot_every and i % hot_every == 0:
        return base_turns * hot_factor
    return base_turns // 2 + (i * _MIX) % base_turns


def generate_conv_arrays(
    i: int,
    base_turns: int = 40,
    hot_every: int = 200,
    hot_factor: int = 100,
    hole_every: int = 17,
):
    """All columns of conversation ``i`` as numpy/python arrays."""
    n = conv_turn_count(i, base_turns, hot_every, hot_factor)
    t = np.arange(n, dtype=np.int64)
    conv_id = f"conv-{i:08d}"
    # text lengths: deterministic 0..179 pattern per (conv, turn)
    lengths = (i * _MIX + t * 40503) % 180
    # timestamps: per-conv start stagger + mostly ~20s gaps, with deliberate
    # holes (every ``hole_every``-th turn jumps 2h → spans whole 1m/1h
    # windows, exercising gap-fill) and bursts (every 11th turn lands 1s
    # after its predecessor)
    gaps = 20_000_000 + (t * 7_919) % 10_000_000  # 20-30s
    gaps = np.where(t % 11 == 0, 1_000_000, gaps)
    gaps = np.where((t % hole_every == 0) & (t > 0), 7_200_000_000, gaps)
    ts = _BASE_TS_US + (i % 1440) * 60_000_000 + np.cumsum(gaps) - gaps[0]
    roles = [_ROLES[int(x)] for x in (t % 3)]
    tools = [_TOOLS[int(x) % 4] if x % 7 == 0 else "" for x in t]
    texts = [f"{conv_id}:{k}:" + "x" * int(lengths[k]) for k in range(n)]
    return {
        "conv_id": [conv_id] * n,
        "turn_idx": t.astype(np.int32),
        "role": roles,
        "text": texts,
        "tool": tools,
        "ts": ts,
    }


def _convs_to_table(conv_indices, base_turns: int, hot_every: int, hot_factor: int, hole_every: int = 17) -> pa.Table:
    # numpy columns concatenate as arrays (no per-element Python boxing —
    # this is the hot path of bench-scale generation); list columns
    # (strings) extend as lists
    cols: dict[str, list] = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    for i in conv_indices:
        arrs = generate_conv_arrays(int(i), base_turns, hot_every, hot_factor, hole_every)
        for k in cols:
            cols[k].append(arrs[k])

    def cat(parts: list):
        if parts and isinstance(parts[0], np.ndarray):
            return np.concatenate(parts) if parts else parts
        out: list = []
        for p in parts:
            out.extend(p if isinstance(p, list) else p.tolist())
        return out

    return pa.table(
        {
            "conv_id": pa.array(cat(cols["conv_id"]), pa.string()),
            "turn_idx": pa.array(cat(cols["turn_idx"]), pa.int32()),
            "role": pa.array(cat(cols["role"]), pa.string()),
            "text": pa.array(cat(cols["text"]), pa.string()),
            "tool": pa.array(cat(cols["tool"]), pa.string()),
            "ts": pa.array(cat(cols["ts"]), pa.timestamp("us")),
        }
    )


def generate_table(n_convs: int, base_turns: int = 40, hot_every: int = 200, hot_factor: int = 100, hole_every: int = 17) -> pa.Table:
    """Small tables for tests — direct, no Ray."""
    return _convs_to_table(range(n_convs), base_turns, hot_every, hot_factor, hole_every)


def transcripts_dataset(n_convs: int, base_turns: int = 40, hot_every: int = 200, hot_factor: int = 100, hole_every: int = 17):
    """Bench-scale tables — Ray-parallel expansion of conv indices."""
    import ray.data as rd

    def expand(batch: pa.Table) -> pa.Table:
        return _convs_to_table(batch["id"].to_pylist(), base_turns, hot_every, hot_factor, hole_every)

    n_blocks = max(1, min(n_convs // 8, 512))
    return rd.range(n_convs, override_num_blocks=n_blocks).map_batches(expand, batch_format="pyarrow")


def write_transcripts(path: str, n_convs: int, base_turns: int = 40, hot_every: int = 200, hot_factor: int = 100, hole_every: int = 17) -> None:
    transcripts_dataset(n_convs, base_turns, hot_every, hot_factor, hole_every).write_parquet(path)


def read_transcripts(path: str):
    """Streaming read of a transcripts directory/file, explicitly projected
    to the canonical columns so only TRANSCRIPT_SCHEMA leaves storage even
    when a producer wrote extra columns alongside. Metadata-stripped read:
    producer-written files (pandas) carry a b'pandas' schema dict that
    defeats Ray's block-schema dedup in every downstream shuffle."""
    from chronoxtract_ray.stages.util import read_parquet_clean

    return read_parquet_clean(path, columns=[f.name for f in TRANSCRIPT_SCHEMA])


# ---------------------------------------------------------------------------
# Alternative source formats. Real transcript logs arrive as JSONL (one turn
# per line) or CSV exports at least as often as parquet; both readers stream
# block-by-block through the same normalization, so every downstream stage
# (rollup, ingest, queries) sees one canonical schema regardless of the wire
# format. Normalization is a vectorized per-batch Arrow transform — no Python
# row loop, no driver materialization — so it costs one map over the read.
# ---------------------------------------------------------------------------

_TS_ALIASES = ("ts", "ts_us", "timestamp", "timestamp_us")
_STRING_DEFAULTS = {"role": "", "text": "", "tool": ""}


def normalize_transcripts(t: pa.Table) -> pa.Table:
    """Cast one Arrow batch of raw transcript rows to ``TRANSCRIPT_SCHEMA``.

    Accepts the timestamp as ``ts``/``ts_us``/``timestamp``/``timestamp_us``
    carrying either a timestamp type, int64 epoch-microseconds (the JSONL
    convention), or an ISO-8601 string (the CSV convention). Missing
    ``role``/``text``/``tool`` columns (and nulls inside them) become ``""``;
    extra columns are dropped. Raises on a missing conv_id/turn_idx/ts — a
    transcript row without an identity or a time is not recoverable."""
    import pyarrow.compute as pc

    names = set(t.column_names)
    ts_name = next((n for n in _TS_ALIASES if n in names), None)
    if ts_name is None or "conv_id" not in names or "turn_idx" not in names:
        missing = {"conv_id", "turn_idx", "ts"} - names
        raise ValueError(f"transcript source is missing required columns: {sorted(missing)}")
    c = t.column(ts_name)
    if pa.types.is_timestamp(c.type):
        ts = c.cast(pa.timestamp("us"))
    elif pa.types.is_integer(c.type):
        ts = c.cast(pa.int64()).cast(pa.timestamp("us"))
    else:
        ts = c.cast(pa.string()).cast(pa.timestamp("us"))
    cols = {
        "conv_id": t.column("conv_id").cast(pa.string()),
        "turn_idx": t.column("turn_idx").cast(pa.int32()),
    }
    for name, default in _STRING_DEFAULTS.items():
        if name in names and not pa.types.is_null(t.column(name).type):
            cols[name] = pc.fill_null(t.column(name).cast(pa.string()), default)
        else:
            cols[name] = pa.chunked_array([pa.array([default] * len(t), pa.string())])
    cols["ts"] = ts
    return pa.table({f.name: cols[f.name] for f in TRANSCRIPT_SCHEMA})


def read_transcripts_jsonl(path: str):
    """Streaming read of newline-delimited JSON transcript files (one turn
    per line), normalized to ``TRANSCRIPT_SCHEMA``."""
    import ray.data as rd

    return rd.read_json(path).map_batches(normalize_transcripts, batch_format="pyarrow")


def read_transcripts_csv(path: str):
    """Streaming read of CSV transcript files, normalized to
    ``TRANSCRIPT_SCHEMA`` (timestamps as ISO strings or epoch micros)."""
    import ray.data as rd

    return rd.read_csv(path).map_batches(normalize_transcripts, batch_format="pyarrow")


def _ts_to_epoch_us(t: pa.Table) -> pa.Table:
    idx = t.column_names.index("ts")
    return t.set_column(idx, "ts", t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()))


def write_transcripts_jsonl(source, path: str) -> None:
    """Write transcripts as JSONL, timestamps as int64 epoch micros (the
    lossless JSON convention ``read_transcripts_jsonl`` accepts)."""
    import ray.data as rd

    ds = rd.from_arrow(source) if isinstance(source, pa.Table) else source
    ds.map_batches(_ts_to_epoch_us, batch_format="pyarrow").write_json(path)


def write_transcripts_csv(source, path: str) -> None:
    """Write transcripts as CSV (Arrow writer; timestamps become ISO strings)."""
    import ray.data as rd

    ds = rd.from_arrow(source) if isinstance(source, pa.Table) else source
    ds.write_csv(path)


_FORMAT_READERS = {
    "parquet": read_transcripts,
    "jsonl": read_transcripts_jsonl,
    "json": read_transcripts_jsonl,
    "csv": read_transcripts_csv,
}


def open_transcripts(path: str, format: str | None = None):
    """Open a transcript source in any supported format as a normalized
    streaming Dataset. ``format=None`` sniffs the extension of the first
    matching file under ``path`` (directories of .jsonl/.csv/.parquet)."""
    if format is None:
        import os

        exts = {os.path.splitext(f)[1].lstrip(".").lower()
                for f in (os.listdir(path) if os.path.isdir(path) else [path])}
        found = [f for f in ("parquet", "jsonl", "json", "csv") if f in exts]
        # ambiguity is judged by RESOLVED READER, not extension: .json and
        # .jsonl map to the same reader and may legitimately coexist
        if len(found) != 1 and len({_FORMAT_READERS[f] for f in found}) != 1:
            raise ValueError(f"cannot sniff a unique transcript format from extensions {sorted(exts)}")
        format = found[0]
    reader = _FORMAT_READERS.get(format.lower())
    if reader is None:
        raise ValueError(f"unsupported transcript format {format!r} (supported: {sorted(_FORMAT_READERS)})")
    return reader(path)
