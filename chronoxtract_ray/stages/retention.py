"""Retention enforcement over a tier store — the "retention" leg of the
rollup / downsample / retention engine.

A :class:`RetentionPolicy` gives each tier a keep horizon (µs). The cutoff is
computed from the STORE WATERMARK (max ``watermark_us`` across the governed
tiers' manifests), never from the wall clock, so a retention run is a pure
function of the data: deterministic, replayable, and testable. Typical
policy: raw/1m kept days, 1h kept months, 1d forever (``None``).

Per-partition decision, made from parquet footer statistics only (the
whole-drop and keep paths never read a data page):

* ``drop``  — partition ``max(window_start) < cutoff`` → remove the tier
  directory and its Gorilla chunk directory, manifest rewritten with
  ``rows=0``;
* ``keep``  — partition ``min(window_start) >= cutoff`` → data untouched,
  manifest stamped with the enforced cutoff;
* ``trim``  — the boundary partition → read, filter ``window_start >=
  cutoff``, atomic rewrite (tmp dir + rename, same protocol as the writer).
  Gorilla chunks prune row-wise on ``last_window``; a chunk straddling the
  cutoff is decoded, filtered, and re-encoded so the chunk store and the
  tier rows always describe the same surviving points.

Scale: partitions are independent, so enforcement fans out as a Ray Data
pipeline over the (tier, part) list — a metadata-sized dataset (40k
partitions × 3 tiers at the 100 TB sizing) whose tasks each touch only
their own files. Idempotent and resumable: the manifest records
``retention_cutoff_us``; re-running with the same (or older) cutoff skips
the partition, and a run killed mid-way re-does only unstamped partitions.
The reference keeps all rolled output forever (no retention op —
/root/reference/src/lib.rs has no eviction surface); this stage is part of
the engine's tier-store extension, matching TimescaleDB-style
retention-policy semantics on top of the reference's rollup math.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from chronoxtract_ray.state import gorilla
from chronoxtract_ray.state.checkpoint import (
    load_manifests,
    manifest_path,
    read_segment,
    read_store_meta,
    replace_partition_dir,
)

__all__ = ["RetentionPolicy", "store_watermark_us", "apply_retention"]


@dataclass(frozen=True)
class RetentionPolicy:
    """Per-tier keep horizons in µs; ``None`` (or absence) = keep forever."""

    keep_us: dict = field(default_factory=dict)

    def cutoff_us(self, tier: str, now_us: int) -> int | None:
        keep = self.keep_us.get(tier)
        return None if keep is None else int(now_us) - int(keep)


def store_watermark_us(root: str, tiers, num_parts: int) -> int | None:
    """Max manifest watermark across the governed tiers (the store's notion
    of "now"); None when the store is empty."""
    wms = [
        m["watermark_us"]
        for tier in tiers
        for m in load_manifests(root, tier, num_parts).values()
        if m.get("watermark_us") is not None
    ]
    return max(wms) if wms else None


def _atomic_rewrite(final_dir: str, table: pa.Table) -> None:
    # dot-prefixed temp dir + rename: a crash mid-rewrite must never leave a
    # directory the part=*/*.parquet reader globs can see (checkpoint helper)
    replace_partition_dir(final_dir, table)


def _read_dir(d: str) -> pa.Table | None:
    """All parquet segment files of one artifact dir (the incremental ingest
    writes several per partition; the batch pipeline writes one)."""
    import glob

    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    if not files:
        return None
    return pa.concat_tables([read_segment(f) for f in files], promote_options="default")


def _trim_chunks(chunk_dir: str, cutoff: int) -> int:
    """Prune a partition's Gorilla chunk rows to points >= cutoff. Whole-old
    rows drop, whole-new rows pass through untouched (their blobs are not
    re-encoded), straddling rows are decoded, filtered, re-encoded. Returns
    the number of chunk rows dropped."""
    t = _read_dir(chunk_dir)
    if t is None:
        return 0
    last = t["last_window"].to_numpy()
    first = t["first_window"].to_numpy()
    keep = last >= cutoff
    straddle = keep & (first < cutoff)
    if not straddle.any() and keep.all():
        return 0
    cols = {name: np.array(t[name].to_numpy(zero_copy_only=False)) for name in t.column_names}
    rows = np.flatnonzero(straddle)
    ts_all, counts = gorilla.decode_timestamps_batch(t["gorilla_timestamps"].take(rows))
    vals_all, _ = gorilla.decode_values_batch(t["gorilla_values"].take(rows))
    split = np.cumsum(counts)[:-1]
    for i, ts, vals in zip(rows, np.split(ts_all, split), np.split(vals_all, split)):
        m = ts >= cutoff
        cols["gorilla_timestamps"][i] = gorilla.encode_timestamps(ts[m])
        cols["gorilla_values"][i] = gorilla.encode_values(vals[m])
        cols["n_points"][i] = int(m.sum())
        cols["first_window"][i] = int(ts[m][0])
    out = pa.table(
        {
            "conv_id": pa.array(cols["conv_id"][keep], pa.string()),
            "chunk_start": pa.array(cols["chunk_start"][keep], pa.int64()),
            "n_points": pa.array(cols["n_points"][keep], pa.int64()),
            "first_window": pa.array(cols["first_window"][keep], pa.int64()),
            "last_window": pa.array(cols["last_window"][keep], pa.int64()),
            "gorilla_timestamps": pa.array(list(cols["gorilla_timestamps"][keep]), pa.binary()),
            "gorilla_values": pa.array(list(cols["gorilla_values"][keep]), pa.binary()),
        }
    )
    _atomic_rewrite(chunk_dir, out)
    return int((~keep).sum())


def _stamp_manifest(root: str, tier: str, part: int, man: dict, cutoff: int, **updates) -> None:
    man = dict(man, retention_cutoff_us=int(cutoff), retention_at=time.time(), **updates)
    mp = manifest_path(root, tier, part)
    tmp = mp + ".tmp"
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.rename(tmp, mp)


def _trim_open_buffer(root: str, part: int, cutoff: int, width_us: int) -> int:
    """Drop open-buffer turns whose WINDOW is older than the cutoff so a
    later incremental ingest cannot resurrect pruned windows of a stale
    partition (one whose open window itself fell behind the retention
    horizon). The predicate matches the tier rows' window_start >= cutoff
    exactly — window-floor the turn timestamp, don't compare raw ts (a
    non-window-aligned cutoff would otherwise strand partial turn sets of a
    pruned window in the buffer). Returns turns dropped."""
    buf_dir = os.path.join(root, "_open", f"part={part:04d}")
    t = _read_dir(buf_dir)
    if t is None:
        return 0
    ts = t["ts_us"].to_numpy()
    keep = (ts // width_us) * width_us >= cutoff
    if keep.all():
        return 0
    _atomic_rewrite(buf_dir, t.filter(pa.array(keep)))
    return int((~keep).sum())


def _invalidate_conv_sidecar(root: str, part: int) -> None:
    """Pruning 1m rows can invalidate the incremental-ingest per-conv
    anchors (a conv's p0/a windows may be gone); drop the sidecar so the
    next ingest re-bootstraps it from the surviving rows."""
    shutil.rmtree(os.path.join(root, "_convs", f"part={part:04d}"), ignore_errors=True)


def prune_partition(root: str, tier: str, part: int, cutoff: int) -> dict:
    """Enforce one (tier, part)'s retention cutoff. Self-contained (safe as a
    distributed task) and idempotent. Returns an action record."""
    import glob

    rec = {"tier": tier, "part": part, "action": "skip", "rows_dropped": 0, "chunks_dropped": 0}
    mp = manifest_path(root, tier, part)
    if not os.path.exists(mp):
        return rec  # never prune a partition without a complete manifest
    with open(mp) as f:
        man = json.load(f)
    prior = man.get("retention_cutoff_us")
    if not man.get("complete") or (prior is not None and prior >= cutoff):
        return rec
    if tier == "1m":  # the buffer feeds the finest tier; keep them consistent
        from chronoxtract_ray.pipelines.rollup_pipeline import MINUTE_US

        # window-floor with the STORE's configured rollup width (recorded in
        # _store.json at first write) — a non-60s store trimmed with a
        # hard-coded minute width would drop buffered turns of windows that
        # survive the cutoff, silently corrupting the next ingest's recompute
        width = int((read_store_meta(root) or {}).get("width_us") or MINUTE_US)
        _trim_open_buffer(root, part, cutoff, width)
    part_dir = os.path.join(root, f"tier={tier}", f"part={part:04d}")
    chunk_dir = os.path.join(root, "chunks", f"tier={tier}", f"part={part:04d}")
    files = sorted(glob.glob(os.path.join(part_dir, "*.parquet")))
    if not files or man.get("rows", 0) == 0:
        _stamp_manifest(root, tier, part, man, cutoff)
        rec["action"] = "keep"
        return rec
    # footer-statistics reader shared with the ingest stage (one copy of the
    # metadata-only min/max logic; conservative full-range on missing stats)
    from chronoxtract_ray.stages.ingest import _footer_bounds

    lo, hi = 1 << 62, -(1 << 62)
    for f in files:
        b = _footer_bounds(f, "window_start")
        lo, hi = min(lo, b[0]), max(hi, b[1])
    if hi < cutoff:  # metadata-only whole drop
        from chronoxtract_ray.state.checkpoint import tmp_sibling_dir

        shutil.rmtree(part_dir, ignore_errors=True)
        shutil.rmtree(chunk_dir, ignore_errors=True)
        # crashed-rewrite leftovers are invisible to readers but would leak
        # disk forever once their partition is gone — sweep them with it
        shutil.rmtree(tmp_sibling_dir(part_dir), ignore_errors=True)
        shutil.rmtree(tmp_sibling_dir(chunk_dir), ignore_errors=True)
        if tier == "1m":
            _invalidate_conv_sidecar(root, part)
        _stamp_manifest(root, tier, part, man, cutoff, rows=0, watermark_us=None,
                        retention_rows_dropped=man.get("retention_rows_dropped", 0) + man.get("rows", 0))
        rec.update(action="drop", rows_dropped=man.get("rows", 0))
        return rec
    if lo >= cutoff:  # metadata-only keep
        _stamp_manifest(root, tier, part, man, cutoff)
        rec["action"] = "keep"
        return rec
    t = _read_dir(part_dir)
    mask = pa.array(t["window_start"].to_numpy() >= cutoff)
    kept = t.filter(mask)
    dropped = t.num_rows - kept.num_rows
    keys = [k for k in ("conv_id", "window_start") if k in kept.column_names]
    # chunks + sidecar are trimmed BEFORE the tier rewrite: a crash after
    # the rewrite leaves lo >= cutoff, so the resumed run takes the
    # metadata-only keep branch and would never revisit them (permanently
    # orphaning pre-cutoff chunk points). In the other crash window (chunks
    # trimmed, tier not yet rewritten) the resumed run still sees
    # lo < cutoff and re-runs this path — _trim_chunks and the sidecar
    # invalidation are idempotent.
    if tier == "1m":
        _invalidate_conv_sidecar(root, part)
    rec["chunks_dropped"] = _trim_chunks(chunk_dir, cutoff)
    _atomic_rewrite(part_dir, kept.sort_by([(k, "ascending") for k in keys]))
    _stamp_manifest(root, tier, part, man, cutoff, rows=kept.num_rows,
                    retention_rows_dropped=man.get("retention_rows_dropped", 0) + dropped)
    rec.update(action="trim", rows_dropped=dropped)
    return rec


def apply_retention(
    root: str,
    num_parts: int,
    policy: RetentionPolicy,
    *,
    now_us: int | None = None,
    min_parts_for_ray: int = 17,
) -> dict:
    """Enforce ``policy`` across the store. ``now_us`` defaults to the store
    watermark. Fans the per-partition work out through Ray Data when the
    partition list is big enough to be worth a round of tasks (and Ray is
    already up — this function never owns a Ray session); the work list is
    metadata-sized, so the driver-side collect here is bounded by partition
    COUNT, not data size."""
    # complete any torn ingest commit BEFORE pruning: a READY-marked staged
    # state that rolled forward AFTER this retention pass would resurrect
    # pruned rows and erase the cutoff stamps (one-job-at-a-time contract
    # makes this start-of-run roll-forward sufficient)
    from chronoxtract_ray.stages.ingest import recover_all_partitions

    recover_all_partitions(root)
    tiers = [t for t, k in policy.keep_us.items() if k is not None]
    if now_us is None:
        now_us = store_watermark_us(root, tiers, num_parts)
    summary: dict = {"now_us": now_us, "tiers": {}}
    if now_us is None:
        return summary
    work = [
        {"tier": tier, "part": p, "cutoff": policy.cutoff_us(tier, now_us)}
        for tier in tiers
        for p in range(num_parts)
    ]
    import ray

    if ray.is_initialized() and len(work) >= min_parts_for_ray:
        import ray.data as rd

        def fn(batch: pa.Table) -> pa.Table:
            recs = [
                prune_partition(root, r["tier"], int(r["part"]), int(r["cutoff"]))
                for r in batch.to_pylist()
            ]
            return pa.Table.from_pylist(recs)

        recs = rd.from_items(work).map_batches(fn, batch_format="pyarrow", batch_size=16).take_all()
    else:
        recs = [prune_partition(root, w["tier"], w["part"], w["cutoff"]) for w in work]
    for tier in tiers:
        rs = [r for r in recs if r["tier"] == tier]
        summary["tiers"][tier] = {
            "cutoff_us": policy.cutoff_us(tier, now_us),
            "parts_dropped": sum(r["action"] == "drop" for r in rs),
            "parts_trimmed": sum(r["action"] == "trim" for r in rs),
            "parts_kept": sum(r["action"] == "keep" for r in rs),
            "rows_dropped": sum(r["rows_dropped"] for r in rs),
            "chunks_dropped": sum(r["chunks_dropped"] for r in rs),
        }
    return summary
