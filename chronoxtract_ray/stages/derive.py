"""Stateless derive stage: transcripts → (conv_id, turn_idx, bucket, ts_us,
value, crc[, part]).

Runs as ``map_batches(derive_batch, batch_format="pyarrow")`` — zero-copy
Arrow in/out, vectorized pyarrow.compute kernels, no Python row loop except
the optional CRC (cython-vectorized via pandas hash).

The numeric channel is ``value = utf8_length(text)`` (the reference only
consumes f64 series; SURVEY.md §1.2). ``part`` = hash(conv_id) % P is the
one partitioning key the pipeline exchanges rows on. ``bucket`` =
floor(ts / bucket_us) * bucket_us is kept in the derived schema but no
engine stage reads it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["derive_batch", "make_derive", "text_crc"]


def text_crc(texts: np.ndarray, turn_idx: np.ndarray) -> np.ndarray:
    """Order-independent-per-row integrity hash of (text, turn_idx), uint64.

    pandas' hash_array is a vectorized (cython) string hasher — no Python
    loop. Mixing in turn_idx ties each text to its position."""
    h = pd.util.hash_array(texts, categorize=False).astype(np.uint64)
    return h ^ (turn_idx.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))


def derive_batch(
    batch: pa.Table,
    bucket_us: int,
    with_crc: bool = True,
    drop_parts: frozenset[int] | None = None,
    num_parts: int = 0,
) -> pa.Table:
    """One batch of transcripts → rollup-ready columns.

    ``num_parts`` adds the hash(conv_id)%P ``part`` column that the whole
    pipeline partitions on; ``drop_parts`` implements resume: rows whose
    partition is already complete are dropped at the earliest stage."""
    ts_us = batch["ts"].cast(pa.int64())
    value = pc.cast(pc.utf8_length(batch["text"]), pa.float64())
    # FLOOR division, not pc.divide: integer pc.divide truncates toward zero,
    # which for pre-epoch (negative) timestamps puts the rows of one tumbling
    # window into TWO buckets. Matches the kernel's floor (windowed.py
    # window_start) and checkpoint's chunk grid.
    bucket = pa.array((ts_us.to_numpy() // bucket_us) * bucket_us, pa.int64())
    cols = {
        "conv_id": batch["conv_id"],
        "turn_idx": batch["turn_idx"],
        "bucket": bucket,
        "ts_us": ts_us,
        "value": value,
    }
    if with_crc:
        texts = batch["text"].to_numpy(zero_copy_only=False)
        tidx = batch["turn_idx"].to_numpy(zero_copy_only=False)
        cols["crc"] = pa.array(text_crc(texts, tidx), pa.uint64())
    out = pa.table(cols)
    if num_parts:
        # the ONE routing function — never inline this hash (a divergent copy
        # silently splits each conversation's rows across two partitions)
        from chronoxtract_ray.state.checkpoint import conv_partition

        part = conv_partition(out["conv_id"].to_numpy(zero_copy_only=False), num_parts)
        if drop_parts:
            keep = ~np.isin(part, np.fromiter(drop_parts, dtype=np.int64))
            out = out.filter(pa.array(keep))
            part = part[keep]
        out = out.append_column("part", pa.array(part, pa.int64()))
    return out


def make_derive(bucket_us: int, with_crc: bool = True, drop_parts: frozenset[int] | None = None, num_parts: int = 0):
    def fn(batch: pa.Table) -> pa.Table:
        return derive_batch(batch, bucket_us, with_crc, drop_parts, num_parts)

    return fn
