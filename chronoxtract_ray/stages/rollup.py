"""Windowed rollup block function: derived rows → one feature row per
(conv, window).

``make_block_rollup`` returns the function the pipeline's writer stages
apply to one partition-aligned block (pipelines/rollup_pipeline.py): the
exchange on ``part`` only co-locates each conversation's rows, and the
block function applies the deterministic (conv, ts, turn_idx) sort itself
(one C++ Arrow sort per block is cheaper than a sorted exchange). Every block
holds thousands of complete conversations and the fused multi-series NumPy
kernel (kernels/windowed.py) processes the whole block in a single
vectorized call — no per-group Python dispatch. (A groupby().map_groups()
formulation computes the same thing but pays one UDF call per tiny group;
measured >5x slower on transcript-shaped data.)

Determinism: rows are sorted by (conv, ts, turn_idx) inside the block before
any order-sensitive computation; ``text_checksum`` is an order-SENSITIVE
digest (crc * in-window-position) whose match against an independently
computed oracle proves stable turn ordering survived the exchange (the
engine-side check for the north rule's 'per-turn text equality under stable
turn ordering').
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from chronoxtract_ray.kernels import custom_features
from chronoxtract_ray.kernels.windowed import FeatureSpec, compute_windowed_features

__all__ = ["RollupConfig", "make_block_rollup", "order_checksum"]

MINUTE_US = 60_000_000
HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


@dataclass(frozen=True)
class RollupConfig:
    width_us: int = MINUTE_US
    bucket_us: int = HOUR_US  # derive's ``bucket`` column; no engine stage reads it
    spec: FeatureSpec = field(default_factory=FeatureSpec)
    with_checksum: bool = True
    extra_features: tuple[str, ...] = ()  # names from kernels.register_feature

    def __post_init__(self):
        if self.bucket_us % self.width_us != 0:
            raise ValueError("bucket_us must be a multiple of width_us")


def order_checksum(crc: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Order-sensitive per-window digest: sum(crc_i * (pos_in_window + 1))
    in wrapping uint64 arithmetic."""
    n = crc.size
    counts = ends - starts
    pos = (np.arange(n, dtype=np.uint64) - np.repeat(starts.astype(np.uint64), counts)) + np.uint64(1)
    weighted = crc * pos
    c = np.concatenate(([np.uint64(0)], np.cumsum(weighted, dtype=np.uint64)))
    return c[ends] - c[starts]


def _series_codes(conv: np.ndarray) -> np.ndarray:
    """Run-id codes for a conv array whose equal values are contiguous
    (guaranteed by the block sort in ``make_block_rollup``)."""
    if conv.size == 0:
        return np.empty(0, dtype=np.int64)
    change = np.concatenate(([False], conv[1:] != conv[:-1]))
    return np.cumsum(change)


def make_block_rollup(cfg: RollupConfig):
    spec = cfg.spec
    extras = {name: fn for name, fn in custom_features().items() if name in cfg.extra_features}

    def fn(block: pa.Table) -> pa.Table:
        n = block.num_rows
        if n == 0:
            return _empty_out(cfg)
        # deterministic total order (conv, ts, turn_idx) — C++ Arrow sort;
        # the exchange only co-locates, it does not need to pre-sort
        block = block.sort_by(
            [("conv_id", "ascending"), ("ts_us", "ascending"), ("turn_idx", "ascending")]
        )
        conv = block["conv_id"].to_numpy(zero_copy_only=False)
        ts_s = block["ts_us"].to_numpy()
        val_s = block["value"].to_numpy()
        crc_s = block["crc"].to_numpy() if cfg.with_checksum and "crc" in block.column_names else None
        codes_s = _series_codes(conv)
        out = compute_windowed_features(ts_s, val_s, cfg.width_us, spec, series_ids=codes_s)
        starts = out.pop("row_index")
        n_win = starts.size
        ends = np.concatenate((starts[1:], [n]))
        if crc_s is not None:
            out["text_checksum"] = order_checksum(crc_s, starts, ends)
        if extras:
            for name, kfn in extras.items():
                out[name] = np.fromiter(
                    (kfn(val_s[s:e]) for s, e in zip(starts, ends)), dtype=np.float64, count=n_win
                )
        arrays: dict[str, pa.Array] = {"conv_id": pa.array(conv[starts], pa.string())}
        for k, v in out.items():
            if k == "window_start":
                arrays[k] = pa.array(v, pa.int64())
            elif k == "text_checksum":
                arrays[k] = pa.array(v, pa.uint64())
            elif k == "n_turns":
                arrays[k] = pa.array(v, pa.int64())
            else:
                arrays[k] = pa.array(v, pa.float64())
        return pa.table(arrays)

    return fn


def _empty_out(cfg: RollupConfig) -> pa.Table:
    cols: dict[str, pa.Array] = {
        "conv_id": pa.array([], pa.string()),
        "window_start": pa.array([], pa.int64()),
        "n_turns": pa.array([], pa.int64()),
    }
    for c in cfg.spec.feature_columns():
        cols[c] = pa.array([], pa.float64())
    if cfg.with_checksum:
        cols["text_checksum"] = pa.array([], pa.uint64())
    return pa.table(cols)
