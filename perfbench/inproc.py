"""The benchmark's phases in one process, without Ray.

Runs the same layers as ``run_rollup_pipeline`` and
``run_incremental_ingest`` over the same input files: derive per input
file, rows grouped by hash partition, then ``RollupWriteStage`` (or
``IncrementalWriteStage``) called once per partition, then the read phase.
With ``--traced 1`` the layer functions are wrapped with spans first
(tracer.py); the spans go to ``--spans`` and a summary to ``--out``.

    python3 perfbench/inproc.py --work DIR --store NAME --traced 0|1 --out FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import uuid
from contextlib import nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import common
import tracer as tr


def _derived_by_part(path: str, cfg) -> list[pa.Table]:
    from chronoxtract_ray.sources.transcripts import TRANSCRIPT_SCHEMA
    from chronoxtract_ray.stages.derive import make_derive

    fn = make_derive(cfg.rollup.bucket_us, with_crc=cfg.rollup.with_checksum, num_parts=cfg.num_parts)
    files = sorted(os.path.join(path, f) for f in os.listdir(path))
    derived = pa.concat_tables([fn(pq.read_table(f, columns=TRANSCRIPT_SCHEMA.names)) for f in files])
    part = derived["part"].to_numpy()
    return [derived.filter(pa.array(part == p)) for p in np.unique(part)]


def _prepare(root: str, cfg) -> None:
    from chronoxtract_ray.stages.ingest import recover_all_partitions
    from chronoxtract_ray.state import checkpoint as ckpt

    os.makedirs(root, exist_ok=True)
    ckpt.ensure_store_meta(root, cfg.num_parts, cfg.with_gorilla, with_checksum=cfg.rollup.with_checksum, width_us=cfg.rollup.width_us)
    recover_all_partitions(root, gc_stale_staging=True)


def rollup(src: str, root: str, cfg) -> None:
    from chronoxtract_ray.pipelines.rollup_pipeline import RollupWriteStage

    _prepare(root, cfg)
    stage = RollupWriteStage(root, cfg, frozenset(), uuid.uuid4().hex)
    for block in _derived_by_part(src, cfg):
        stage(block)


def ingest(src: str, root: str, cfg, batch_id: str) -> None:
    from chronoxtract_ray.stages.ingest import IncrementalWriteStage

    _prepare(root, cfg)
    stage = IncrementalWriteStage(root, cfg, batch_id)
    for block in _derived_by_part(src, cfg):
        stage(block)
    shutil.rmtree(os.path.join(root, "_staged", batch_id), ignore_errors=True)


def run(layout: common.Layout, root: str, tracer: tr.Tracer | None) -> dict:
    """Rollup, ingest and read phases; returns phase wall times and the
    store measurements the per-layer metrics need."""
    from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig

    span = tracer.span if tracer else (lambda name: nullcontext())
    cfg = PipelineConfig(num_parts=common.NUM_PARTS)
    walls = {}
    with span("run"):
        t0 = time.perf_counter()
        with span("phase.rollup"):
            rollup(layout.history, root, cfg)
        walls["rollup"] = time.perf_counter() - t0
        before = common.store_files(root)
        t0 = time.perf_counter()
        with span("phase.ingest"):
            for k in range(1, layout.n_batches() + 1):
                ingest(layout.batch(k), root, cfg, f"b{k}")
        walls["ingest"] = time.perf_counter() - t0
        after = common.store_files(root)
        t0 = time.perf_counter()
        with span("phase.read"):
            read, _ = common.read_phase(root)
        walls["read"] = time.perf_counter() - t0
    out = {"walls": walls, "wall_s": sum(walls.values()), "ingest_bytes_written": common.created_bytes(before, after)}
    out["segments_per_part"] = common.segments_per_part(root)
    for tier in common.TIERS:
        bits, points, chunks = common.blob_stats(read[tier][2])
        out[f"bits_per_point_{tier}"] = bits / max(points, 1)
        out[f"points_per_chunk_{tier}"] = points / max(chunks, 1)
        out[f"tier_bytes_{tier}"] = common.bytes_of(common.store_files(os.path.join(root, f"tier={tier}")))
        out[f"chunk_bytes_{tier}"] = common.bytes_of(common.store_files(os.path.join(root, "chunks", f"tier={tier}")))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    a = ap.parse_args()
    layout = common.Layout(a.work)
    root = layout.store(a.store)
    shutil.rmtree(root, ignore_errors=True)
    tracer = None
    if a.traced:
        tracer = tr.Tracer()
        tr.install(tracer)
    res = run(layout, root, tracer)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        if a.spans:
            tracer.write(a.spans)
        cov = tr.coverage(tracer.spans)
        res["coverage"] = cov
        res["counts"] = dict(tracer.counts)
        res["phase_layer_s"] = {p: tr.layer_total_under(tracer.spans, f"phase.{p}") for p in ("rollup", "ingest", "read")}
    with open(a.out, "w") as f:
        json.dump(res, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
