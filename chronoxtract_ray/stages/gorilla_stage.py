"""Gorilla chunk rows → point rows, for the read path.

Chunk rows ``(conv_id, chunk_start, n_points, first_window, last_window,
gorilla_timestamps:binary, gorilla_values:binary)`` are written by the
pipeline's ``PartitionWriter`` (state/checkpoint.py), one per (conversation,
chunk span). Chunk boundaries are deterministic — ``chunk_start =
window_start // chunk_span * chunk_span`` — so re-runs and resumed runs
produce identical chunk rows regardless of parallelism.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from chronoxtract_ray.state import gorilla

__all__ = ["decode_chunks"]


def decode_chunks(chunks: pa.Table) -> pa.Table:
    """Chunk rows → point rows (conv_id, window_start, value); query path /
    roundtrip tests."""
    convs: list[str] = []
    wins: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for i in range(chunks.num_rows):
        w = gorilla.decode_timestamps(chunks["gorilla_timestamps"][i].as_py())
        v = gorilla.decode_values(chunks["gorilla_values"][i].as_py())
        convs.extend([chunks["conv_id"][i].as_py()] * w.size)
        wins.append(w)
        vals.append(v)
    return pa.table(
        {
            "conv_id": pa.array(convs, pa.string()),
            "window_start": pa.array(np.concatenate(wins) if wins else np.empty(0, np.int64), pa.int64()),
            "value": pa.array(np.concatenate(vals) if vals else np.empty(0, np.float64), pa.float64()),
        }
    )
