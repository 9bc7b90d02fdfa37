"""End-to-end rollup pipeline: transcripts → 1m → 1h → 1d (+ Gorilla chunks).

Partition-aligned dataflow — ONE Ray Data execution, ONE all-to-all exchange:

    read_parquet(transcripts)
      → map_batches(derive: value/crc/part; resume filter)  [Ray Data task]
      → split task per derived block: P pieces + counts     [the ONE exchange,
      → driver: refuse a partition too big for one node      stages/exchange.py]
      → RollupWriteStage task per non-empty partition: fused window kernel →
        1m rows, then the 1h/1d cascades run in-memory on those rows (a
        partition never round-trips through storage between tiers); tier
        rows + Gorilla chunks + per-partition manifests written atomically
        per tier

Why this shape: every group-forming step rides ONE hash partitioning that is
then reused by every later stage (SURVEY.md §7.3 'pick ONE partitioning key
and reuse it'). The exchange runs as plain Ray tasks rather than a Ray Data
shuffle, whose aggregator actors cost seconds per call and reserve CPU that
stalls a 1-CPU session. The writer keeps no state across calls (one
partition per call, plain-config constructor), so one instance serves every
write task. The engine does not salt: a hot conversation lands whole in its
partition, and a partition too large for one node needs a larger
``num_parts`` (the exchange names it).

Resumability: a partition with complete manifests for all three tiers is
skipped at derive time; killed runs redo only unfinished partitions
(tests/test_resume.py).

Never calls ray.init/shutdown (driver contract).
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from chronoxtract_ray.kernels.windowed import FeatureSpec
from chronoxtract_ray.stages.cascade import cascade_block
from chronoxtract_ray.stages.derive import make_derive
from chronoxtract_ray.stages.rollup import DAY_US, HOUR_US, MINUTE_US, RollupConfig, make_block_rollup
from chronoxtract_ray.state import checkpoint as ckpt

__all__ = ["PipelineConfig", "run_rollup_pipeline", "backfill_partitions", "tier_table"]

TIERS = (("1m", MINUTE_US), ("1h", HOUR_US), ("1d", DAY_US))


@dataclass
class PipelineConfig:
    num_parts: int = 16  # hash(conv_id) partitions; raise for clusters / huge convs
    rollup: RollupConfig = field(default_factory=RollupConfig)
    cascade_spec: FeatureSpec = field(default_factory=FeatureSpec)
    with_gorilla: bool = True
    gorilla_points_per_chunk: int = 1024
    resume: bool = True


def _gorilla_cfg(cfg: PipelineConfig, tier: str) -> dict | None:
    if not cfg.with_gorilla:
        return None
    widths = dict(TIERS)
    widths["1m"] = cfg.rollup.width_us  # finest tier follows the configured rollup width
    return {
        "width_us": widths[tier],
        "points_per_chunk": cfg.gorilla_points_per_chunk,
        "value_col": "mean",
    }


class RollupWriteStage:
    """Writer: one partition's derived rows → 1m tier rows
    + 1h/1d cascade rows + Gorilla chunks + manifests on disk, all from the
    in-memory block — the partition never round-trips through storage
    between tiers. Returns stats rows."""

    def __init__(self, out_root: str, cfg: PipelineConfig, done: frozenset[int], run_id: str | None = None):
        self.cfg = cfg
        self.fn = make_block_rollup(cfg.rollup)
        self.writer = ckpt.PartitionWriter(
            out_root, cfg.num_parts, {t: _gorilla_cfg(cfg, t) for t, _ in TIERS}, run_id=run_id
        )
        self.done = np.fromiter(done, dtype=np.int64) if done else None

    def __call__(self, block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table({"tier": pa.array([], pa.string()), "part": pa.array([], pa.int64()), "rows": pa.array([], pa.int64())})
        cur = self.fn(block.drop_columns(["part"]))
        outs = [("1m", cur)]
        # fine width of the first cascade step = the 1m tier's actual window
        # width (configurable; MINUTE_US by default) — the gap-fill stride
        # must match the grid the rollup floored on
        for tier_name, wf, wc in (("1h", self.cfg.rollup.width_us, HOUR_US), ("1d", HOUR_US, DAY_US)):
            cur = cascade_block(cur, wf, wc, self.cfg.cascade_spec)
            outs.append((tier_name, cur))
        # one writer pass per tier so each tier keeps its exact schema
        tiers_out, parts_out, rows_out = [], [], []
        for tier_name, rows in outs:
            part = ckpt.conv_partition(rows["conv_id"].to_numpy(zero_copy_only=False), self.cfg.num_parts)
            if self.done is not None:
                keep = ~np.isin(part, self.done)
                rows = rows.filter(pa.array(keep))
                part = part[keep]
            rows = rows.append_column("part", pa.array(part, pa.int64()))
            rows = rows.append_column("tier_name", pa.array([tier_name] * rows.num_rows, pa.string()))
            res = self.writer(rows)
            tiers_out.extend([tier_name] * res.num_rows)
            parts_out.extend(res["part"].to_pylist())
            rows_out.extend(res["rows"].to_pylist())
        return pa.table({"tier": pa.array(tiers_out, pa.string()), "part": pa.array(parts_out, pa.int64()), "rows": pa.array(rows_out, pa.int64())})


def tier_table(root: str, tier: str, columns: list[str] | None = None) -> pa.Table:
    """Small-result helper for tests: full tier as one sorted Arrow table
    (direct pyarrow read, no Ray session needed). Pass ``columns`` to read
    only the needed row-group columns — a 3-of-48-column consumer should
    not deserialize the rest."""
    import glob

    files = sorted(glob.glob(os.path.join(root, f"tier={tier}", "part=*", "*.parquet")))
    if not files:  # e.g. every partition dropped by retention
        return pa.table({})
    tbl = pa.concat_tables([ckpt.read_segment(f, columns) for f in files])
    keys = [k for k in ("conv_id", "window_start", "chunk_start") if k in tbl.column_names]
    return tbl.sort_by([(k, "ascending") for k in keys])


def backfill_partitions(out_root: str, parts: list[int], num_parts: int) -> None:
    """Reopen completed partitions for explicit backfill/late-data reruns:
    drops their manifests (and artifacts) for every tier so the next
    run_rollup_pipeline recomputes exactly those partitions from the raw
    input (SURVEY.md §2.12 late-data policy: windows below the watermark
    reopen only on explicit backfill)."""
    import shutil

    # validate the WHOLE list before touching anything: raising mid-loop
    # would leave some partitions reopened and the rest not, so a bad entry
    # must fail before any manifest or tier directory is deleted
    for p in parts:
        if not 0 <= p < num_parts:
            raise ValueError(f"partition {p} out of range 0..{num_parts - 1}")
    # complete any torn ingest swap first: deleting a partition that still
    # has a pending READY marker would otherwise be undone by the next
    # ingest/retention run rolling the stale staged state forward
    from chronoxtract_ray.stages.ingest import recover_all_partitions

    recover_all_partitions(out_root, gc_stale_staging=True)
    for tier, _ in TIERS:
        for p in parts:
            mp = ckpt.manifest_path(out_root, tier, p)
            if os.path.exists(mp):
                os.remove(mp)
            for root in (out_root, os.path.join(out_root, "chunks")):
                d = os.path.join(root, f"tier={tier}", f"part={p:04d}")
                shutil.rmtree(d, ignore_errors=True)
    # incremental-ingest state is derived from the tier data just deleted:
    # stale per-conv anchors (_convs) would be preferred over a bootstrap
    # re-scan by the next ingest, and a stale open buffer (_open) would
    # re-merge raw turns the backfilled recompute already owns
    for p in parts:
        for side in ("_open", "_convs"):
            shutil.rmtree(os.path.join(out_root, side, f"part={p:04d}"), ignore_errors=True)


def run_rollup_pipeline(source, out_root: str, cfg: PipelineConfig | None = None) -> dict:
    """``source``: a transcripts Dataset or a parquet path. Returns metrics,
    among them ``part_rows``/``part_bytes``: the derived rows and bytes of
    each of the ``num_parts`` partitions, after the resume filter.

    Sizing for clusters: each hash partition is processed as ONE in-memory
    table by one writer task (derived rows ≈ 40 B/turn + tier rows +
    gap-filled intermediates ≈ 3-4x that). Choose ``num_parts`` so
    raw_bytes x 0.4 / num_parts stays well under a worker's heap — e.g.
    ~40k partitions for a 100 TB input with 1-2 GB partition budgets; a
    partition larger than the smallest node's object store is refused
    before any write. All other scaling follows from Ray scheduling more
    partitions across more nodes; there is exactly one all-to-all exchange
    regardless of size (N blocks x P pieces)."""
    from chronoxtract_ray.stages.exchange import exchange_by_part

    cfg = cfg or PipelineConfig()
    P = cfg.num_parts
    os.makedirs(out_root, exist_ok=True)
    ckpt.ensure_store_meta(
        out_root,
        P,
        cfg.with_gorilla,
        with_checksum=cfg.rollup.with_checksum,
        width_us=cfg.rollup.width_us,
    )
    # roll forward any torn incremental-ingest batch BEFORE writing: a
    # pending READY marker left by a crashed ingest would otherwise be
    # completed by the NEXT ingest/retention run — swapping its stale staged
    # state over whatever this batch run writes now
    from chronoxtract_ray.stages.ingest import recover_all_partitions

    recover_all_partitions(out_root, gc_stale_staging=True)
    if isinstance(source, str):
        from chronoxtract_ray.sources.transcripts import read_transcripts

        ds = read_transcripts(source)  # projected to TRANSCRIPT_SCHEMA
    else:
        ds = source

    metrics: dict = {"tiers": {}, "num_parts": P}
    t_start = time.time()
    # a partition is done only when all three tiers are: the writer rebuilds
    # every tier of the partitions it is given from the raw input
    done = frozenset()
    if cfg.resume:
        done = frozenset.intersection(*(ckpt.completed_parts(out_root, t, P) for t, _ in TIERS))
    metrics["resumed_parts_skipped"] = sorted(done)

    # derive → the one exchange → one rollup + cascade + write task per partition
    derived = ds.map_batches(
        make_derive(
            cfg.rollup.bucket_us,
            with_crc=cfg.rollup.with_checksum,
            drop_parts=done or None,
            num_parts=P,
        ),
        batch_format="pyarrow",
    )
    results, metrics["part_rows"], metrics["part_bytes"] = exchange_by_part(
        derived, P, RollupWriteStage(out_root, cfg, done, uuid.uuid4().hex)
    )
    # split-partition guard: each (tier, part) must be written by exactly ONE
    # writer call this run. The exchange hands each partition whole to one
    # task; if that ever breaks, two calls report the same (tier, part) here
    # (including concurrent equal-row-count splits the manifest-based run_id
    # guard cannot see) and we fail loudly instead of silently losing rows.
    seen: dict[tuple, int] = {}
    for r in results:
        key = (r["tier"], r["part"])
        seen[key] = seen.get(key, 0) + 1
    dups = sorted(k for k, n in seen.items() if n > 1)
    if dups:
        raise RuntimeError(
            f"partition(s) {dups[:8]} written by more than one writer call in "
            f"one run: the exchange split a partition across writer calls"
        )
    wall = time.time() - t_start
    stats = {"rows_written": int(sum(r["rows"] for r in results)), "wall_s": wall}
    for tier, _ in TIERS:
        stats[f"rows_{tier}"] = int(sum(r["rows"] for r in results if r["tier"] == tier))
    metrics["tiers"]["1m+1h+1d"] = stats
    metrics["total_wall_s"] = wall
    return metrics
