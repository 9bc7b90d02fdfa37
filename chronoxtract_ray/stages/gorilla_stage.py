"""Gorilla chunk rows → point rows, for the read path.

Chunk rows ``(conv_id, chunk_start, n_points, first_window, last_window,
gorilla_timestamps:binary, gorilla_values:binary)`` are written by the
pipeline's ``PartitionWriter`` (state/checkpoint.py), one per (conversation,
chunk span). Chunk boundaries are deterministic — ``chunk_start =
window_start // chunk_span * chunk_span`` — so re-runs and resumed runs
produce identical chunk rows regardless of parallelism.

The blobs are GXV2 (byte layout in ``state/gorilla.py``): each carries its
own lean header, and the values blob picks its mode per chunk (RATIO for
exact ``a / k`` ratios such as window means, XOR otherwise). Decoding is one
call of each batched decoder per table (``gorilla.decode_timestamps_batch``
/ ``decode_values_batch``): RATIO chunks decode in one vectorized unpack,
XOR values and timestamps in lockstep over every chunk of the table; no
per-row Python. A blob in another format raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from chronoxtract_ray.state import gorilla

__all__ = ["decode_chunks"]


def decode_chunks(chunks: pa.Table) -> pa.Table:
    """Chunk rows → point rows (conv_id, window_start, value), in chunk-row
    order. Raises ``ValueError`` on a corrupt blob, or when a chunk's decoded
    point count disagrees with its ``n_points``."""
    if chunks.num_rows == 0:
        return pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "window_start": pa.array([], pa.int64()),
                "value": pa.array([], pa.float64()),
            }
        )
    wins, n_w = gorilla.decode_timestamps_batch(chunks["gorilla_timestamps"])
    vals, n_v = gorilla.decode_values_batch(chunks["gorilla_values"])
    if not (np.array_equal(n_w, n_v) and np.array_equal(n_w, chunks["n_points"].to_numpy())):
        raise ValueError("Gorilla chunk point counts disagree with n_points")
    conv = chunks["conv_id"].take(np.repeat(np.arange(chunks.num_rows), n_w))
    return pa.table(
        {
            "conv_id": conv.cast(pa.string()),
            "window_start": pa.array(wins, pa.int64()),
            "value": pa.array(vals, pa.float64()),
        }
    )
