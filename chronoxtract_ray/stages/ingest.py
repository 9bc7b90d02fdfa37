"""Incremental ingest — continuous aggregates over the tier store.

``run_incremental_ingest`` appends a batch of new transcripts to an existing
store and updates every tier so the store is IDENTICAL to a from-scratch run
over the union of all batches (asserted bit-exactly in
tests/test_ingest_incremental.py). Cost scales with the data a batch
ACTUALLY CHANGES, never with store size: untouched partitions are never
read, and within a touched partition untouched SEGMENT FILES are neither
read nor rewritten (they are hard-linked into the staged commit).

Segmented tier layout (the write-amplification fix)
---------------------------------------------------
Each ``tier=X/part=NNNN`` directory holds MANY parquet segment files, not
one: the batch pipeline writes a single ``data.parquet``; every incremental
batch then adds one "new" segment (recomputed windows) and at most one
"carry" segment (surviving rows rescued from segments that overlapped the
recompute region), while all older segments are kept via hard links inside
the same staged-swap commit. Readers (``tier_table``, retention, DuckDB)
already glob ``part=*/*.parquet``, so the layout is invisible to them. When a partition accumulates more than
``MAX_SEGMENTS`` files, the commit compacts them into one (amortized
O(partition)/MAX_SEGMENTS per batch).

Recompute regions (what a batch is allowed to touch)
----------------------------------------------------
Windows are final below the partition's ``open_start`` watermark; raw turns
of open windows live in a per-partition sidecar (``_open/part=NNNN``). The
gap-fill cascade makes coarser tiers sensitive to a slightly wider region:
per touched conversation ``c`` with last finalized 1m window ``a_c``,

* 1m rows change only at ``window_start >= open_start`` (global);
* 1h rows change only at ``window_start >= H0_c := hour_floor(a_c)`` (the
  hour containing ``a_c`` gains gap slots after ``a_c``; everything before
  interpolates between unchanged anchors);
* 1d rows change only at ``window_start >= D0_c := day_floor(H0_c)``.

Recomputing those regions bit-exactly needs, per conversation, the old
rows from ``p0_c`` (last 1m window at/below ``H0_c`` — the interpolation
anchor for unchanged gap slots inside hour ``H0_c``) and, for Gorilla
chunk re-encoding, from the chunk-grid floor of each region (chunk
boundaries are content-independent: ``chunk_start = (ws // span) * span``,
so re-encoding exactly the chunks whose span overlaps the changed region
reproduces the batch path's chunk rows byte-for-byte). The per-conversation
anchors ``(a_c, p0_c)`` persist in a ``_convs/part=NNNN`` sidecar updated
with every commit; a store without one (built by the batch pipeline, or
pruned by retention, which invalidates anchors) is re-scanned once to
bootstrap it.

Exactly-once, crash-safe commits (read-modify-write needs more than the
batch path's idempotent overwrite):

1. compute the partition's changed state from current state + new turns;
2. stage every artifact under ``_staged/<batch_id>/``: hard links for
   untouched segment files (no data copied), fresh files for carry/new
   segments, chunks, the open buffer and the conv sidecar — then write a
   READY marker — the durability point for the merge result;
3. swap staged dirs into place (replayable: already-swapped artifacts are
   simply absent from staging), then commit manifests carrying
   ``ingest_batch_id`` (retention stamps from the old manifest are
   preserved, never erased by an ingest).

Recovery is roll-forward: a partition whose manifest already carries this
``batch_id`` is skipped (re-run of a killed job is exactly-once); pending
READY markers from ANY interrupted batch are completed for ALL partitions
at the start of every ingest run (and of every retention run — see
``recover_all_partitions``) so a torn swap can never be read and a
retention pass can never interleave with a half-committed merge. Staging
trees left by pre-READY crashes are garbage-collected at ingest start.
Crash before READY leaves the old state fully intact. The dataflow is the
flagship's: derive → the ONE exchange on ``part`` (stages/exchange.py) →
one write task per touched partition; at 100 TB an hourly batch touches
its own partitions only, each in one task, and rewrites only segment files
overlapping the open region.

Concurrency contract: ONE ingest job per store at a time (batches are
sequential by nature — each builds on the previous watermark). Partitions
WITHIN a batch commit independently and in parallel.

Lateness: ``allowed_lateness_us`` has NO effect on the first incremental
batch into a batch-pipeline-written store — such a store has no raw open
buffer, so its last (possibly partial) windows are finalized at bootstrap
and stragglers for them drop as late. Build stores through the ingest path
when lateness tolerance matters.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from chronoxtract_ray.pipelines.rollup_pipeline import (
    DAY_US,
    HOUR_US,
    MINUTE_US,
    PipelineConfig,
    _gorilla_cfg,
)
from chronoxtract_ray.stages.cascade import cascade_block
from chronoxtract_ray.stages.derive import make_derive
from chronoxtract_ray.stages.rollup import make_block_rollup
from chronoxtract_ray.state import checkpoint as ckpt

__all__ = ["run_incremental_ingest", "IncrementalWriteStage", "recover_all_partitions"]

TIER_ORDER = ("1m", "1h", "1d")
TIER_WIDTHS = {"1m": MINUTE_US, "1h": HOUR_US, "1d": DAY_US}
DERIVED_COLS = ("conv_id", "turn_idx", "bucket", "ts_us", "value", "crc")
MAX_SEGMENTS = 12  # compact a partition's tier dir past this many files
_NEG_INF = -(1 << 62)
_POS_INF = 1 << 62


def _staged_dir(root: str, batch_id: str, part: int) -> str:
    return os.path.join(root, "_staged", batch_id, f"part={part:04d}")


def _ready_path(root: str, batch_id: str, part: int) -> str:
    return _staged_dir(root, batch_id, part) + ".READY"


def _artifact_paths(root: str, part: int) -> dict[str, str]:
    """Relative artifact name → final directory, for one partition."""
    out = {
        "open": os.path.join(root, "_open", f"part={part:04d}"),
        "convs": os.path.join(root, "_convs", f"part={part:04d}"),
    }
    for tier in TIER_ORDER:
        out[f"tier_{tier}"] = os.path.join(root, f"tier={tier}", f"part={part:04d}")
        out[f"chunks_{tier}"] = os.path.join(root, "chunks", f"tier={tier}", f"part={part:04d}")
    return out


def _seg_files(final_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(final_dir, "*.parquet")))


def _footer_bounds(path: str, col: str) -> tuple[int, int]:
    """(min, max) of ``col`` from parquet footer statistics — metadata only;
    conservative (full range) when stats are missing."""
    md = pq.ParquetFile(path).metadata
    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}.get(col)
    if idx is None:
        return (_NEG_INF, _POS_INF)
    lo, hi = None, None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            return (_NEG_INF, _POS_INF)
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return (int(lo), int(hi)) if lo is not None else (_NEG_INF, _NEG_INF)


def _write_staged(stage_dir: str, name: str, table: pa.Table, fname: str = "data.parquet") -> None:
    d = os.path.join(stage_dir, name)
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, fname), row_group_size=max(table.num_rows, 1))


def _link_staged(stage_dir: str, name: str, src_files: list[str]) -> None:
    """Hard-link untouched segment files into the staged artifact dir — the
    commit then swaps them back into place without ever copying their data."""
    d = os.path.join(stage_dir, name)
    os.makedirs(d, exist_ok=True)
    for f in src_files:
        os.link(f, os.path.join(d, os.path.basename(f)))


def _swap_in(root: str, batch_id: str, part: int) -> None:
    """Replayable swap: every artifact still present in staging replaces its
    final dir; artifacts absent from staging were either not produced or
    already swapped by an interrupted attempt."""
    stage_dir = _staged_dir(root, batch_id, part)
    finals = _artifact_paths(root, part)
    for name, final in finals.items():
        src = os.path.join(stage_dir, name)
        if os.path.exists(src):
            os.makedirs(os.path.dirname(final), exist_ok=True)
            if os.path.exists(final):
                shutil.rmtree(final)
            os.rename(src, final)


def _finish_partition(root: str, batch_id: str, part: int, manifests: dict) -> None:
    """Swap + manifest commit + staging cleanup (the last two phases)."""
    _swap_in(root, batch_id, part)
    for tier, man in manifests.items():
        mp = ckpt.manifest_path(root, tier, part)
        os.makedirs(os.path.dirname(mp), exist_ok=True)
        tmp = mp + ".tmp"
        with open(tmp, "w") as f:
            json.dump(man, f)
        os.rename(tmp, mp)
    shutil.rmtree(_staged_dir(root, batch_id, part), ignore_errors=True)
    rp = _ready_path(root, batch_id, part)
    if os.path.exists(rp):
        os.remove(rp)


def recover_partition(root: str, part: int) -> list[str]:
    """Roll interrupted ingest batches forward for one partition: any READY
    marker means the staged merge result is durable — complete its swap and
    manifest commit. Returns the batch ids recovered."""
    staged_root = os.path.join(root, "_staged")
    done = []
    if not os.path.isdir(staged_root):
        return done
    for batch_id in sorted(os.listdir(staged_root)):
        rp = _ready_path(root, batch_id, part)
        if os.path.exists(rp):
            with open(rp) as f:
                manifests = json.load(f)
            _finish_partition(root, batch_id, part, manifests)
            done.append(batch_id)
    return done


def recover_all_partitions(root: str, gc_stale_staging: bool = False) -> int:
    """Complete EVERY pending READY marker under ``root`` (all batches, all
    partitions). Called at the start of every ingest AND retention run so a
    crash after READY can never leave a torn store visible to queries, and a
    retention pass can never be silently undone by a later roll-forward of a
    pre-retention staged state. With ``gc_stale_staging`` also removes
    ``_staged/<id>`` trees that hold no READY markers (pre-durability
    leftovers of crashed batches — safe to delete under the one-job-at-a-time
    contract)."""
    staged_root = os.path.join(root, "_staged")
    if not os.path.isdir(staged_root):
        return 0
    n = 0
    for batch_id in sorted(os.listdir(staged_root)):
        bdir = os.path.join(staged_root, batch_id)
        for rp in sorted(glob.glob(bdir + "/part=*.READY")):
            part = int(os.path.basename(rp)[len("part=") : -len(".READY")])
            with open(rp) as f:
                manifests = json.load(f)
            _finish_partition(root, batch_id, part, manifests)
            n += 1
        if gc_stale_staging and os.path.isdir(bdir) and not glob.glob(bdir + "/part=*.READY"):
            shutil.rmtree(bdir, ignore_errors=True)
    return n


def _hour_floor(ws):
    return (ws // HOUR_US) * HOUR_US


def _day_floor(ws):
    return (ws // DAY_US) * DAY_US


def _chunk_floor(ws, span: int):
    return (ws // span) * span


class IncrementalWriteStage:
    """Writer: a table of NEW derived turns → merged 1m/1h/1d rows + chunks
    + open buffer per partition in it, committed exactly-once.

    Same shape as the batch RollupWriteStage (the chunk encoder and rollup
    kernel are built in ``__init__``, no state crosses calls); the exchange
    (stages/exchange.py) calls it once per partition with all of that
    partition's turns, so each call owns whole partitions."""

    def __init__(self, out_root: str, cfg: PipelineConfig, batch_id: str, allowed_lateness_us: int = 0):
        self.root = out_root
        self.cfg = cfg
        self.batch_id = batch_id
        self.allowed_lateness_us = int(allowed_lateness_us)
        self.fn = make_block_rollup(cfg.rollup)
        self.gor = {t: _gorilla_cfg(cfg, t) for t in TIER_ORDER}
        # the writer is used ONLY for its chunk encoder (staged paths differ)
        self.encoder = ckpt.PartitionWriter(out_root, cfg.num_parts, self.gor)

    # ---- helpers -------------------------------------------------------
    def _read_all(self, name: str, part: int):
        """Read an artifact dir's full content (all segment files)."""
        files = _seg_files(_artifact_paths(self.root, part)[name])
        if not files:
            return None
        return pa.concat_tables([ckpt.read_segment(f) for f in files], promote_options="default")

    def _load_sidecar(self, part: int, old_1m_files: list[str], open_start: int):
        """Per-conv (a_ws, p0_ws) anchors: from the ``_convs`` sidecar when
        present, else bootstrapped by ONE full scan of the partition's 1m
        rows (first ingest into a batch-written store, or after a retention
        prune invalidated the anchors)."""
        side = self._read_all("convs", part)
        if side is not None:
            return side
        if not old_1m_files:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "a_ws": pa.array([], pa.int64()),
                 "p0_ws": pa.array([], pa.int64())}
            )
        t = pa.concat_tables([ckpt.read_segment(f, ["conv_id", "window_start"]) for f in old_1m_files])
        df = pd.DataFrame(
            {"c": t["conv_id"].to_numpy(zero_copy_only=False), "w": t["window_start"].to_numpy()}
        )
        closed = df[df["w"] < open_start]
        a = closed.groupby("c")["w"].max()
        h0 = _hour_floor(a)
        df2 = closed.merge(h0.rename("h0"), left_on="c", right_index=True)
        p0 = df2[df2["w"] <= df2["h0"]].groupby("c")["w"].max()
        convs = a.index.to_numpy()
        return pa.table(
            {
                "conv_id": pa.array(convs, pa.string()),
                "a_ws": pa.array(a.to_numpy(), pa.int64()),
                "p0_ws": pa.array(
                    p0.reindex(a.index).fillna(_NEG_INF).to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    @staticmethod
    def _per_conv(conv_col: np.ndarray, index: pd.Index, values: np.ndarray, default) -> np.ndarray:
        """Vectorized conv → threshold lookup (``default`` for convs absent
        from ``index``)."""
        if index.size == 0:
            return np.full(conv_col.size, default, dtype=np.int64)
        pos = index.get_indexer(conv_col)
        out = np.full(conv_col.size, default, dtype=np.int64)
        hit = pos >= 0
        out[hit] = values[pos[hit]]
        return out

    def _collect_old(
        self,
        name: str,
        part: int,
        ws_col: str,
        touched_idx: pd.Index,
        read_lo: np.ndarray,
        read_hi: np.ndarray,
        drop_lo: np.ndarray,
        file_cache: dict,
    ):
        """One pass over a tier/chunk artifact dir, driven by footer stats:

        * ``read_rows``   — old rows of touched convs with ws in
          [read_lo_c, read_hi_c) (cascade input / chunk re-encode input);
        * ``carry``       — surviving rows of every file that contains any
          affected row (NOT (touched ∧ ws >= drop_lo_c)), to be rewritten
          as one carry segment;
        * ``link_files``  — files with no affected rows, hard-linked as-is;
        * ``dropped``     — count of affected (replaced) old rows.
        """
        files = _seg_files(_artifact_paths(self.root, part)[name])
        g_drop = int(drop_lo.min()) if drop_lo.size else _POS_INF
        g_read = int(read_lo.min()) if read_lo.size else _POS_INF
        read_parts, carry_parts, link_files = [], [], []
        dropped = 0
        for f in files:
            lo, hi = _footer_bounds(f, ws_col)
            needs_rewrite = hi >= g_drop
            needs_read = hi >= g_read and (not read_hi.size or lo < int(read_hi.max()))
            if not needs_rewrite and not needs_read:
                link_files.append(f)
                continue
            t = file_cache.get(f)
            if t is None:
                t = ckpt.read_segment(f)
                file_cache[f] = t
            conv = t["conv_id"].to_numpy(zero_copy_only=False)
            ws = t[ws_col].to_numpy()
            pos = touched_idx.get_indexer(conv) if touched_idx.size else np.full(conv.size, -1)
            hit = pos >= 0
            if needs_read and hit.any():
                lo_c = np.where(hit, read_lo[np.maximum(pos, 0)], _POS_INF)
                hi_c = np.where(hit, read_hi[np.maximum(pos, 0)], _NEG_INF)
                m = hit & (ws >= lo_c) & (ws < hi_c)
                if m.any():
                    read_parts.append(t.filter(pa.array(m)))
            if needs_rewrite:
                d_c = np.where(hit, drop_lo[np.maximum(pos, 0)], _POS_INF)
                affected = hit & (ws >= d_c)
                dropped += int(affected.sum())
                carry_parts.append(t.filter(pa.array(~affected)))
            else:
                link_files.append(f)
        read_rows = (
            pa.concat_tables(read_parts, promote_options="default") if read_parts else None
        )
        carry = pa.concat_tables(carry_parts, promote_options="default") if carry_parts else None
        return read_rows, carry, link_files, dropped

    def _stage_tier(self, stage_dir: str, name: str, carry, link_files: list[str], new_rows, file_cache: dict):
        """Stage one artifact dir: links + carry segment + new segment, with
        compaction once the directory would exceed MAX_SEGMENTS files."""
        bid = self.batch_id[:12]
        n_files = (len(link_files)
                   + (1 if carry is not None and carry.num_rows else 0)
                   + (1 if new_rows is not None and new_rows.num_rows else 0))
        if n_files > MAX_SEGMENTS:
            parts = [file_cache.get(f) or ckpt.read_segment(f) for f in link_files]
            if carry is not None and carry.num_rows:
                parts.append(carry)
            if new_rows is not None and new_rows.num_rows:
                parts.append(new_rows)
            if not parts:
                return
            full = pa.concat_tables(parts, promote_options="default")
            keys = [k for k in ("conv_id", "window_start", "chunk_start") if k in full.column_names]
            full = full.sort_by([(k, "ascending") for k in keys])
            _write_staged(stage_dir, name, full, "data.parquet")
            return
        _link_staged(stage_dir, name, link_files)
        if carry is not None and carry.num_rows:
            _write_staged(stage_dir, name, carry, f"seg-{bid}-c.parquet")
        if new_rows is not None and new_rows.num_rows:
            _write_staged(stage_dir, name, new_rows, f"seg-{bid}-n.parquet")

    def _process(self, part: int, new_turns: pa.Table) -> dict:
        root, bid = self.root, self.batch_id
        recover_partition(root, part)  # roll forward any torn older batch
        old_mans = {}
        for tier in TIER_ORDER:
            mp = ckpt.manifest_path(root, tier, part)
            if os.path.exists(mp):
                with open(mp) as f:
                    old_mans[tier] = json.load(f)
        old_man = old_mans.get("1m", {})
        if old_man.get("ingest_batch_id") == bid:
            return {"part": part, "skipped": True, "late_rows": 0, "dup_rows": 0, "rows_1m": old_man.get("rows", 0)}

        buffer = self._read_all("open", part)
        open_start = old_man.get("open_start_us")
        if open_start is None:
            # bootstrap from a batch-written store: nothing buffered, so the
            # finalized region ends after the last written window (a fully
            # retention-dropped partition has no watermark → accept anything).
            # NOTE: allowed_lateness_us has no effect here — see module doc.
            wm_win = old_man.get("watermark_us") if old_man else None
            open_start = (wm_win + self.cfg.rollup.width_us) if wm_win is not None else _NEG_INF
        # a retention pass may have pruned windows at/after open_start in a
        # stale partition; anything whose WINDOW is behind the cutoff is late
        # BY POLICY, so redelivered pruned turns can never resurrect pruned
        # windows (ceil to the window grid: a turn whose window straddles the
        # cutoff belongs to a pruned window and must drop too)
        ret_cut = old_man.get("retention_cutoff_us")
        width = self.cfg.rollup.width_us
        if ret_cut is not None:
            open_start = max(open_start, -(-int(ret_cut) // width) * width)

        ts = new_turns["ts_us"].to_numpy()
        on_time_mask = ts >= open_start
        late = int((~on_time_mask).sum())
        work_parts = [new_turns.filter(pa.array(on_time_mask))] if late else [new_turns]
        if buffer is not None and buffer.num_rows:
            work_parts.insert(0, buffer)
        cols = [c for c in DERIVED_COLS if all(c in t.column_names for t in work_parts)]
        work = pa.concat_tables([t.select(cols) for t in work_parts], promote_options="default")
        # at-least-once producers can re-deliver turns that are still inside
        # the open window (on-time by timestamp): dedup on the transcript key
        # (conv_id, turn_idx), buffer first so originals win — the open set
        # is tiny, this never touches finalized data
        dups = 0
        if work.num_rows:
            dup_mask = pd.DataFrame(
                {
                    "c": work["conv_id"].to_numpy(zero_copy_only=False),
                    "t": work["turn_idx"].to_numpy(),
                }
            ).duplicated().to_numpy()
            dups = int(dup_mask.sum())
            if dups:
                work = work.filter(pa.array(~dup_mask))
        if work.num_rows == 0:
            # every new turn was late and nothing is buffered: the store is
            # already the fixpoint — touch nothing, report the drops
            return {"part": part, "skipped": False, "late_rows": late, "dup_rows": dups,
                    "rows_1m": old_man.get("rows", 0), "buffered_turns": 0}

        # ---- recompute: windows >= open_start from raw turns (bit-exact vs
        # a from-scratch run: same kernel, same sort) ----
        new_1m = self.fn(work)
        touched = np.unique(work["conv_id"].to_numpy(zero_copy_only=False))
        t_idx = pd.Index(touched)
        T = touched.size

        paths = _artifact_paths(root, part)
        old_1m_files = _seg_files(paths["tier_1m"])
        side = self._load_sidecar(part, old_1m_files, open_start)
        s_idx = pd.Index(side["conv_id"].to_numpy(zero_copy_only=False))

        # per touched conv: a_c (last FINALIZED 1m window) from the sidecar.
        # Touched convs absent from the sidecar have no finalized history —
        # either truly new, or all their rows are still in the open region
        # (which this batch fully recomputes): their recompute boundaries are
        # the global open-region floors.
        pos = s_idx.get_indexer(touched) if s_idx.size else np.full(T, -1)
        has_a = pos >= 0
        a_all = side["a_ws"].to_numpy(zero_copy_only=False).astype(np.int64) if s_idx.size else np.empty(0, np.int64)
        p0_all = side["p0_ws"].to_numpy(zero_copy_only=False).astype(np.int64) if s_idx.size else np.empty(0, np.int64)
        if s_idx.size:
            a_t = np.where(has_a, a_all[np.maximum(pos, 0)], _NEG_INF)
            p0_t = np.where(has_a, p0_all[np.maximum(pos, 0)], _NEG_INF)
        else:
            a_t = np.full(T, _NEG_INF, dtype=np.int64)
            p0_t = np.full(T, _NEG_INF, dtype=np.int64)
        os_h, os_d = _hour_floor(open_start), _day_floor(open_start)
        h0 = np.where(has_a, _hour_floor(a_t), os_h)  # first changeable 1h window
        d0 = np.where(has_a, _day_floor(h0), os_d)  # first changeable 1d window

        span = {t: (self.gor[t]["width_us"] * self.gor[t]["points_per_chunk"]) if self.gor[t] else None
                for t in TIER_ORDER}
        file_cache: dict = {}
        stage_dir = _staged_dir(root, bid, part)
        shutil.rmtree(stage_dir, ignore_errors=True)

        # per-conv thresholds, all aligned with ``touched``
        cf1m = _chunk_floor(open_start, span["1m"]) if span["1m"] else open_start
        bounds = {
            "1m": {
                "drop": np.full(T, open_start, dtype=np.int64),
                "read_lo": np.where(has_a, np.minimum(p0_t, cf1m), _POS_INF),
                "read_hi": np.where(has_a, open_start, _NEG_INF),
                "enc": np.full(T, cf1m, dtype=np.int64),
            },
            "1h": {
                "drop": h0,
                "casc_lo": np.where(has_a, p0_t, _NEG_INF),
                "read_lo": np.where(
                    has_a,
                    np.minimum(_chunk_floor(h0, span["1h"]) if span["1h"] else h0, d0),
                    _POS_INF,
                ),
                "read_hi": np.where(has_a, h0, _NEG_INF),
                "enc": _chunk_floor(h0, span["1h"]) if span["1h"] else h0,
            },
            "1d": {
                "drop": d0,
                "casc_lo": d0,
                "read_lo": np.where(has_a, _chunk_floor(d0, span["1d"]) if span["1d"] else d0, _POS_INF),
                "read_hi": np.where(has_a, d0, _NEG_INF),
                "enc": _chunk_floor(d0, span["1d"]) if span["1d"] else d0,
            },
        }

        # ================= 1m =================
        b = bounds["1m"]
        old_1m, carry_1m, links_1m, dropped_1m = self._collect_old(
            "tier_1m", part, "window_start", t_idx, b["read_lo"], b["read_hi"], b["drop"], file_cache
        )
        merged_recent = {"1m": self._sorted_concat(old_1m, new_1m)}
        new_rows = {"1m": new_1m}
        dropped = {"1m": dropped_1m}
        self._stage_tier(stage_dir, "tier_1m", carry_1m, links_1m, new_1m, file_cache)

        # ================= cascade 1h / 1d =================
        # fine width of the 1m→1h step follows the configured rollup width
        # (the grid the 1m windows were floored on); coarser steps are fixed
        for tier, fine_tier, fine_w, coarse_w in (
            ("1h", "1m", self.cfg.rollup.width_us, HOUR_US),
            ("1d", "1h", TIER_WIDTHS["1h"], TIER_WIDTHS["1d"]),
        ):
            b = bounds[tier]
            fine = merged_recent[fine_tier]
            conv_f = fine["conv_id"].to_numpy(zero_copy_only=False)
            ws_f = fine["window_start"].to_numpy()
            # cascade input: per conv rows >= its anchor (p0 for 1h — the
            # gap-interpolation anchor for the unchanged slots of hour H0 —
            # and D0 for 1d); convs without finalized history contribute
            # everything they have
            lo_in = self._per_conv(conv_f, t_idx, b["casc_lo"], _NEG_INF)
            casc_in = fine.filter(pa.array(ws_f >= lo_in))
            out = cascade_block(casc_in, fine_w, coarse_w, self.cfg.cascade_spec)
            # keep only genuinely-changed coarse windows (>= H0/D0); rows
            # below reproduce existing bytes and stay in their old segments
            conv_o = out["conv_id"].to_numpy(zero_copy_only=False)
            ws_o = out["window_start"].to_numpy()
            keep_lo = self._per_conv(conv_o, t_idx, np.where(has_a, b["drop"], _NEG_INF), _NEG_INF)
            out = out.filter(pa.array(ws_o >= keep_lo))
            new_rows[tier] = out

            old_t, carry_t, links_t, dropped_t = self._collect_old(
                f"tier_{tier}", part, "window_start", t_idx, b["read_lo"], b["read_hi"], b["drop"], file_cache
            )
            merged_recent[tier] = self._sorted_concat(old_t, out)
            dropped[tier] = dropped_t
            self._stage_tier(stage_dir, f"tier_{tier}", carry_t, links_t, out, file_cache)

        # ================= Gorilla chunks (selective re-encode) =================
        # chunk boundaries are content-independent ((ws // span) * span), so
        # re-encoding exactly the chunks overlapping each conv's changed
        # region reproduces the batch path's chunk rows byte-for-byte.
        for tier in TIER_ORDER:
            gcfg = self.gor.get(tier)
            if gcfg is None:
                continue
            enc_lo = bounds[tier]["enc"]
            m = merged_recent[tier]
            conv_m = m["conv_id"].to_numpy(zero_copy_only=False)
            ws_m = m["window_start"].to_numpy()
            lo_m = self._per_conv(conv_m, t_idx, enc_lo, _POS_INF)
            enc_input = m.filter(pa.array(ws_m >= lo_m))
            new_chunks = (
                self.encoder._encode_chunks(enc_input, gcfg) if enc_input.num_rows else None
            )
            _, carry_c, links_c, _ = self._collect_old(
                f"chunks_{tier}", part, "chunk_start", t_idx,
                np.full(T, _POS_INF, dtype=np.int64),
                np.full(T, _NEG_INF, dtype=np.int64),
                enc_lo, file_cache,
            )
            self._stage_tier(stage_dir, f"chunks_{tier}", carry_c, links_c, new_chunks, file_cache)

        # ================= watermarks / buffer / sidecar =================
        wm_ts = int(work["ts_us"].to_numpy().max()) if work.num_rows else int(old_man.get("wm_ts_us", 0))
        if old_man.get("wm_ts_us"):
            wm_ts = max(wm_ts, int(old_man["wm_ts_us"]))
        # the open region extends back by the lateness allowance: any window
        # that can still legally receive a turn keeps its raw turns buffered,
        # so bounded-out-of-order delivery merges bit-exactly. Never regress
        # below the previous open_start: raw turns of finalized windows are
        # gone, so re-opening them would recompute from partial data.
        new_open_start = max(((wm_ts - self.allowed_lateness_us) // width) * width, open_start)
        keep_buf = work.filter(pa.array(work["ts_us"].to_numpy() >= new_open_start))
        _write_staged(stage_dir, "open", keep_buf)

        # sidecar update: new anchors for touched convs. a' = last window
        # below the NEW open_start (from the old anchor and this batch's
        # newly finalized windows); p0' = last available window at/below
        # hour_floor(a') — derivable from the rows at hand because the read
        # region always reaches down to the previous p0.
        nm_conv = new_1m["conv_id"].to_numpy(zero_copy_only=False)
        nm_ws = new_1m["window_start"].to_numpy()
        fin = nm_ws < new_open_start
        adf = pd.DataFrame({"c": nm_conv[fin], "w": nm_ws[fin]})
        a_new = adf.groupby("c")["w"].max() if len(adf) else pd.Series(dtype=np.int64)
        a_fin = pd.Series(a_t, index=touched)
        if len(a_new):
            upd = a_new.reindex(touched).fillna(_NEG_INF).to_numpy().astype(np.int64)
            a_fin = pd.Series(np.maximum(a_fin.to_numpy(), upd), index=touched)
        av = merged_recent["1m"]
        av_conv = av["conv_id"].to_numpy(zero_copy_only=False)
        av_ws = av["window_start"].to_numpy()
        h0_row = self._per_conv(av_conv, t_idx, _hour_floor(a_fin.to_numpy()), _NEG_INF)
        sel = av_ws <= h0_row
        pdf = pd.DataFrame({"c": av_conv[sel], "w": av_ws[sel]})
        p0_new = pdf.groupby("c")["w"].max() if len(pdf) else pd.Series(dtype=np.int64)
        p0_fin = pd.Series(p0_t, index=touched)
        if len(p0_new):
            upd = p0_new.reindex(touched).fillna(_NEG_INF).to_numpy().astype(np.int64)
            p0_fin = pd.Series(np.maximum(p0_fin.to_numpy(), upd), index=touched)
        valid = a_fin.to_numpy() > _NEG_INF
        touched_side = pa.table(
            {
                "conv_id": pa.array(touched[valid], pa.string()),
                "a_ws": pa.array(a_fin.to_numpy()[valid], pa.int64()),
                "p0_ws": pa.array(p0_fin.to_numpy()[valid], pa.int64()),
            }
        )
        keep_side = ~np.isin(s_idx.to_numpy(), touched) if s_idx.size else np.array([], dtype=bool)
        side_out = pa.concat_tables(
            [side.filter(pa.array(keep_side)) if s_idx.size else side, touched_side],
            promote_options="default",
        ).sort_by([("conv_id", "ascending")])
        _write_staged(stage_dir, "convs", side_out)

        # ================= manifests =================
        manifests = {}
        for tier in TIER_ORDER:
            old_m = old_mans.get(tier, {})
            prev_rows = int(old_m.get("rows", 0))
            added = new_rows[tier].num_rows
            rows_total = prev_rows - dropped[tier] + added
            wm_new = int(new_rows[tier]["window_start"].to_numpy().max()) if added else None
            wm_old = old_m.get("watermark_us")
            wm = max(x for x in (wm_new, wm_old) if x is not None) if (wm_new is not None or wm_old is not None) else None
            manifests[tier] = {
                "complete": True,
                "tier": tier,
                "part": part,
                "rows": rows_total,
                "watermark_us": wm,
                "written_at": time.time(),
                "ingest_batch_id": bid,
                "wm_ts_us": wm_ts,
                "open_start_us": new_open_start if tier == "1m" else None,
                "late_rows_dropped": int(old_man.get("late_rows_dropped", 0)) + late,
                "rows_replaced": dropped[tier],
                "rows_appended": added,
            }
            # an ingest must never erase a retention stamp
            for k in ("retention_cutoff_us", "retention_rows_dropped", "retention_at"):
                if k in old_m:
                    manifests[tier][k] = old_m[k]

        rp = _ready_path(root, bid, part)
        with open(rp + ".tmp", "w") as f:
            json.dump(manifests, f)
        os.rename(rp + ".tmp", rp)
        _finish_partition(root, bid, part, manifests)
        return {
            "part": part,
            "skipped": False,
            "late_rows": late,
            "dup_rows": dups,
            "rows_1m": manifests["1m"]["rows"],
            "buffered_turns": keep_buf.num_rows,
        }

    @staticmethod
    def _sorted_concat(old, new) -> pa.Table:
        parts = [t for t in (old, new) if t is not None and t.num_rows]
        if not parts:
            return new if new is not None else old
        t = parts[0] if len(parts) == 1 else pa.concat_tables(
            [p.select(parts[0].column_names) for p in parts], promote_options="default"
        )
        return t.sort_by([("conv_id", "ascending"), ("window_start", "ascending")])

    def __call__(self, block: pa.Table) -> pa.Table:
        recs = []
        if block.num_rows:
            part_col = block["part"].to_numpy()
            for part in np.unique(part_col):
                sub = block.filter(pa.array(part_col == part)).drop_columns(["part"])
                recs.append(self._process(int(part), sub))
        return pa.Table.from_pylist(
            recs,
            schema=pa.schema(
                [
                    ("part", pa.int64()),
                    ("skipped", pa.bool_()),
                    ("late_rows", pa.int64()),
                    ("dup_rows", pa.int64()),
                    ("rows_1m", pa.int64()),
                    ("buffered_turns", pa.int64()),
                ]
            ),
        )


def run_incremental_ingest(
    source,
    out_root: str,
    cfg: PipelineConfig | None = None,
    batch_id: str | None = None,
    pre_derived: bool = False,
    allowed_lateness_us: int = 0,
) -> dict:
    """Merge a batch of new transcripts into ``out_root``. ``source``: a
    transcripts Dataset or parquet path (or, with ``pre_derived``, a Dataset
    already in the derived-row schema conv_id/turn_idx/bucket/ts_us/value).
    ``batch_id`` keys exactly-once semantics — re-running a killed job with
    the SAME id never double-counts a turn; defaults to a fresh uuid (every
    call is a distinct batch). ``allowed_lateness_us`` widens the open
    region: a turn up to that far behind the partition watermark still
    merges exactly (its windows stay buffered); only older ones drop late.
    It has NO effect on the first batch into a batch-pipeline-written store
    (no raw buffer exists to reopen — see module docstring).

    Returns metrics: partitions touched, late rows dropped, 1m rows after
    merge, buffered open-window turns, and ``part_rows``/``part_bytes``:
    the batch's derived rows and bytes in each of the ``num_parts``
    partitions."""
    from chronoxtract_ray.stages.exchange import exchange_by_part

    cfg = cfg or PipelineConfig()
    batch_id = batch_id or uuid.uuid4().hex
    os.makedirs(out_root, exist_ok=True)
    ckpt.ensure_store_meta(
        out_root,
        cfg.num_parts,
        cfg.with_gorilla,
        with_checksum=cfg.rollup.with_checksum,
        width_us=cfg.rollup.width_us,
    )
    # complete any torn older batch for EVERY partition (not just the ones
    # this batch touches) and drop pre-durability staging leftovers
    recover_all_partitions(out_root, gc_stale_staging=True)
    if isinstance(source, str):
        from chronoxtract_ray.sources.transcripts import read_transcripts

        ds = read_transcripts(source)  # projected to TRANSCRIPT_SCHEMA
    else:
        ds = source

    t0 = time.time()
    if pre_derived:
        P = cfg.num_parts

        def add_part(batch: pa.Table) -> pa.Table:
            part = ckpt.conv_partition(batch["conv_id"].to_numpy(zero_copy_only=False), P)
            return batch.append_column("part", pa.array(part, pa.int64()))

        derived = ds.map_batches(add_part, batch_format="pyarrow")
    else:
        derived = ds.map_batches(
            make_derive(cfg.rollup.bucket_us, with_crc=cfg.rollup.with_checksum, num_parts=cfg.num_parts),
            batch_format="pyarrow",
        )
    recs, part_rows, part_bytes = exchange_by_part(
        derived, cfg.num_parts, IncrementalWriteStage(out_root, cfg, batch_id, allowed_lateness_us)
    )
    # every touched partition has committed; drop this batch's (now empty)
    # staging tree so crashed-and-rerun batches don't accumulate leftovers
    shutil.rmtree(os.path.join(out_root, "_staged", batch_id), ignore_errors=True)
    return {
        "batch_id": batch_id,
        "wall_s": time.time() - t0,
        "parts_touched": len(recs),
        "parts_skipped_exactly_once": int(sum(r["skipped"] for r in recs)),
        "late_rows_dropped": int(sum(r["late_rows"] for r in recs)),
        "dup_rows_dropped": int(sum(r["dup_rows"] or 0 for r in recs)),
        "rows_1m": int(sum(r["rows_1m"] for r in recs)),
        "buffered_turns": int(sum(r["buffered_turns"] or 0 for r in recs)),
        "part_rows": part_rows,
        "part_bytes": part_bytes,
    }
