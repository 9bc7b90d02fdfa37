"""Store-level invariant guards and crash-window atomicity.

Covers the r4 engine-core review findings:

* ``ensure_store_meta`` records num_parts / with_gorilla / with_checksum /
  width_us / chunk_codec on first write and raises on any later conflicting
  write — each conflict is a silent-corruption class (split conversations,
  inconsistent chunk artifacts, unconcatenatable tier schemas, windows
  floored on two grids, chunk blobs in two formats).
* Partition-dir rewrites stage through a DOT-PREFIXED temp dir: a crash
  between write and rename must never leave a directory that the
  ``part=*/*.parquet`` reader globs (tier_table, retention, the DuckDB
  oracle views) can see.
* Retention's open-buffer trim floors turns with the STORE's configured
  rollup width (from ``_store.json``), not a hard-coded minute.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from chronoxtract_ray.state import checkpoint as ckpt


def _mk_store(root, **kw):
    ckpt.ensure_store_meta(str(root), kw.pop("num_parts", 4), kw.pop("with_gorilla", True), **kw)


def test_store_meta_conflicts_raise(tmp_path):
    root = tmp_path / "s"
    _mk_store(root, with_checksum=True, width_us=60_000_000)
    with pytest.raises(ValueError, match="num_parts"):
        ckpt.ensure_store_meta(str(root), 8, True)
    with pytest.raises(ValueError, match="with_gorilla"):
        ckpt.ensure_store_meta(str(root), 4, False)
    with pytest.raises(ValueError, match="with_checksum"):
        ckpt.ensure_store_meta(str(root), 4, True, with_checksum=False)
    with pytest.raises(ValueError, match="width_us"):
        ckpt.ensure_store_meta(str(root), 4, True, width_us=30_000_000)
    # matching values pass
    ckpt.ensure_store_meta(str(root), 4, True, with_checksum=True, width_us=60_000_000)


def test_store_meta_backfills_missing_fields(tmp_path):
    """A store written before a field existed adopts the next writer's value
    (validated thereafter) instead of raising on every later write."""
    root = tmp_path / "s"
    _mk_store(root)  # records only num_parts + with_gorilla
    meta = ckpt.read_store_meta(str(root))
    assert "with_checksum" not in meta and "width_us" not in meta
    ckpt.ensure_store_meta(str(root), 4, True, with_checksum=False, width_us=30_000_000)
    meta = ckpt.read_store_meta(str(root))
    assert meta["with_checksum"] is False and meta["width_us"] == 30_000_000
    with pytest.raises(ValueError, match="with_checksum"):
        ckpt.ensure_store_meta(str(root), 4, True, with_checksum=True)


def _tree(root) -> dict:
    return {p: open(p, "rb").read() for p in glob.glob(os.path.join(str(root), "**", "*"), recursive=True) if os.path.isfile(p)}


def test_store_without_chunk_codec_refused_unchanged(tmp_path):
    """A store whose ``_store.json`` predates ``chunk_codec`` and that holds
    chunk files was written in an older blob format: rollup and ingest
    raise, naming the codec and the fix, and write nothing. Without chunk
    files the key is backfilled; a different recorded codec raises too."""
    from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline
    from chronoxtract_ray.stages.ingest import run_incremental_ingest

    root = tmp_path / "old"
    os.makedirs(root / "chunks" / "tier=1m" / "part=0000")
    pq.write_table(pa.table({"n_points": pa.array([1], pa.int64())}), str(root / "chunks" / "tier=1m" / "part=0000" / "data.parquet"))
    (root / "_store.json").write_text(json.dumps({"num_parts": 4, "with_gorilla": True}))
    before = _tree(root)
    cfg = PipelineConfig(num_parts=4)
    with pytest.raises(ValueError, match="chunk_codec=GXV2.*Rebuild the store"):
        run_rollup_pipeline(str(tmp_path / "no-input"), str(root), cfg)
    with pytest.raises(ValueError, match="chunk_codec=GXV2.*Rebuild the store"):
        run_incremental_ingest(str(tmp_path / "no-input"), str(root), cfg, batch_id="b1")
    assert _tree(root) == before
    os.remove(root / "_store.json")  # a pre-metadata store with chunks: the same
    with pytest.raises(ValueError, match="Rebuild the store"):
        ckpt.ensure_store_meta(str(root), 4, True)

    fresh = tmp_path / "fresh"
    _mk_store(fresh)
    meta = ckpt.read_store_meta(str(fresh))
    del meta["chunk_codec"]
    (fresh / "_store.json").write_text(json.dumps(meta))
    ckpt.ensure_store_meta(str(fresh), 4, True)  # no chunk files: backfilled
    assert ckpt.read_store_meta(str(fresh))["chunk_codec"] == ckpt.CHUNK_CODEC
    (fresh / "_store.json").write_text(json.dumps(dict(meta, chunk_codec="GXV9")))
    with pytest.raises(ValueError, match="chunk_codec=GXV9"):
        ckpt.ensure_store_meta(str(fresh), 4, True)


def _poison_table():
    return pa.table(
        {
            "conv_id": pa.array(["poison"], pa.string()),
            "window_start": pa.array([0], pa.int64()),
            "mean": pa.array([1e9], pa.float64()),
        }
    )


def test_crashed_rewrite_invisible_to_readers(tmp_path, monkeypatch):
    """Kill a partition rewrite at its WORST window (old copy retired, new
    copy not yet renamed in): nothing half-written may match any reader's
    part=*/*.parquet glob, both copies must survive on disk (hidden), and a
    retried rewrite must sweep the leftovers and land the correct rows."""
    from chronoxtract_ray.pipelines.rollup_pipeline import tier_table

    root = str(tmp_path / "s")
    good = pa.table(
        {
            "conv_id": pa.array(["a", "b"], pa.string()),
            "window_start": pa.array([60_000_000, 120_000_000], pa.int64()),
            "mean": pa.array([1.0, 2.0], pa.float64()),
        }
    )
    ckpt.write_partition(root, "1m", 0, good)
    final_dir = os.path.join(root, "tier=1m", "part=0000")

    real_rename = os.rename
    calls = {"n": 0}

    def crash_on_second(src, dst):
        calls["n"] += 1
        if calls["n"] == 1:  # let the old copy retire to .trash
            return real_rename(src, dst)
        raise RuntimeError("simulated crash between the two renames")

    monkeypatch.setattr(ckpt.os, "rename", crash_on_second)
    with pytest.raises(RuntimeError, match="simulated crash"):
        ckpt.replace_partition_dir(final_dir, _poison_table())
    monkeypatch.setattr(ckpt.os, "rename", real_rename)

    # nothing visible to any part=* reader glob — in particular no poison
    assert glob.glob(os.path.join(root, "tier=1m", "part=*", "*.parquet")) == []
    assert tier_table(root, "1m").num_rows == 0
    # ...but BOTH copies survive on disk, hidden
    assert glob.glob(os.path.join(root, "tier=1m", ".part=0000.tmp", "*.parquet"))
    assert glob.glob(os.path.join(root, "tier=1m", ".part=0000.tmp.trash", "*.parquet"))

    # a retried rewrite sweeps the leftovers and lands atomically
    ckpt.replace_partition_dir(final_dir, good)
    assert not os.path.exists(os.path.join(root, "tier=1m", ".part=0000.tmp"))
    assert not os.path.exists(os.path.join(root, "tier=1m", ".part=0000.tmp.trash"))
    t = tier_table(root, "1m")
    assert t.num_rows == 2 and "poison" not in set(t["conv_id"].to_pylist())


def test_retention_trims_buffer_with_store_width(tmp_path):
    """30s-width store, cutoff on a half-minute boundary: a buffered turn
    whose 30s window survives the cutoff must survive the trim (the old
    hard-coded minute floor dropped it, corrupting the next ingest's
    recompute of that window)."""
    from chronoxtract_ray.stages.retention import prune_partition

    root = str(tmp_path / "s")
    width = 30_000_000
    _mk_store(root, num_parts=1, width_us=width)
    cutoff = 90_000_000  # 30s-aligned, NOT minute-aligned
    # manifest: complete, no tier rows — prune takes the keep branch but
    # must still trim the open buffer first
    mp = ckpt.manifest_path(root, "1m", 0)
    os.makedirs(os.path.dirname(mp), exist_ok=True)
    with open(mp, "w") as f:
        json.dump({"complete": True, "rows": 0, "watermark_us": None}, f)
    buf_dir = os.path.join(root, "_open", "part=0000")
    os.makedirs(buf_dir)
    # windows (width 30s): 60s (pruned), 90s (survives), 120s (survives)
    ts = np.array([60_000_000, 90_000_000, 119_999_999], dtype=np.int64)
    pq.write_table(pa.table({"ts_us": pa.array(ts, pa.int64())}), os.path.join(buf_dir, "b.parquet"))

    rec = prune_partition(root, "1m", 0, cutoff)
    assert rec["action"] == "keep"
    kept = pq.read_table(glob.glob(os.path.join(buf_dir, "*.parquet"))[0])["ts_us"].to_numpy()
    # minute-floor would have dropped ts=90s and ts=119.99s (floor 60s < 90s)
    assert kept.tolist() == [90_000_000, 119_999_999]
