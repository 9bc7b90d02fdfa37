"""Checkpoint/resume: a killed run resumes without recomputing completed
partitions and converges to the same output as an uninterrupted run
(FIXTURES.md §4)."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pytest

from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline, tier_table
from chronoxtract_ray.sources.transcripts import generate_table
from chronoxtract_ray.state import checkpoint as ckpt

FULL = "/tmp/ctx_resume_full"
PART = "/tmp/ctx_resume_partial"


@pytest.fixture(scope="module")
def runs(ray_session):
    import ray.data as rd

    tbl = generate_table(8, base_turns=25, hot_every=4, hot_factor=10)
    for d in (FULL, PART):
        shutil.rmtree(d, ignore_errors=True)
    cfg = PipelineConfig(num_parts=4)
    run_rollup_pipeline(rd.from_arrow(tbl), FULL, cfg)

    # simulated kill: run the full pipeline, then delete the artifacts of two
    # partitions everywhere (as if the job died before writing them)
    run_rollup_pipeline(rd.from_arrow(tbl), PART, cfg)
    killed = [2, 3]
    for tier in ("1m", "1h", "1d"):
        for p in killed:
            for root in (PART, os.path.join(PART, "chunks")):
                shutil.rmtree(os.path.join(root, f"tier={tier}", f"part={p:04d}"), ignore_errors=True)
                mp = ckpt.manifest_path(root, tier, p)
                if os.path.exists(mp):
                    os.remove(mp)
    surviving_mtimes = {
        f: os.path.getmtime(f) for f in glob.glob(os.path.join(PART, "**", "*.parquet"), recursive=True)
    }
    metrics = run_rollup_pipeline(rd.from_arrow(tbl), PART, cfg)  # resume
    return tbl, killed, surviving_mtimes, metrics


def test_resume_skips_completed_partitions(runs):
    _, killed, _, metrics = runs
    skipped = set(metrics["resumed_parts_skipped"])
    expected = set(range(4)) - set(killed)
    assert skipped == expected


def test_resume_part_rows_count_only_unfinished_partitions(runs):
    tbl, killed, _, metrics = runs
    part = ckpt.conv_partition(tbl["conv_id"].to_numpy(zero_copy_only=False), 4)
    assert len(metrics["part_rows"]) == 4
    assert sum(metrics["part_rows"]) == int(np.isin(part, killed).sum())
    assert [p for p, n in enumerate(metrics["part_rows"]) if n] == killed


def test_resume_does_not_rewrite_survivors(runs):
    _, _, mtimes, _ = runs
    for f, old in mtimes.items():
        assert os.path.getmtime(f) == old, f"recomputed completed partition file: {f}"


def test_resumed_output_identical_to_uninterrupted(runs):
    for tier in ("1m", "1h", "1d"):
        a = tier_table(FULL, tier)
        b = tier_table(PART, tier)
        assert a.num_rows == b.num_rows, tier
        for col in a.column_names:
            if col in ("tier", "part"):
                continue
            av = a[col].to_numpy(zero_copy_only=False)
            bv = b[col].to_numpy(zero_copy_only=False)
            if av.dtype.kind == "f":
                assert np.array_equal(av, bv, equal_nan=True), (tier, col)
            else:
                assert np.array_equal(av, bv), (tier, col)


def test_resumed_chunks_identical(runs):
    for tier in ("1m", "1h", "1d"):
        a = tier_table(os.path.join(FULL, "chunks"), tier)
        b = tier_table(os.path.join(PART, "chunks"), tier)
        assert a["gorilla_values"].to_pylist() == b["gorilla_values"].to_pylist(), tier
        assert a["gorilla_timestamps"].to_pylist() == b["gorilla_timestamps"].to_pylist(), tier


def test_watermarks_recorded(runs):
    mans = ckpt.load_manifests(FULL, "1m", 4)
    assert len(mans) == 4
    for m in mans.values():
        assert m["complete"] and m["watermark_us"] is not None and m["rows"] > 0


def test_backfill_reopens_partitions(runs, ray_session):
    """Explicit backfill drops chosen partitions' artifacts; the next run
    recomputes only those and converges to identical output."""
    import ray.data as rd

    from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, backfill_partitions, run_rollup_pipeline

    tbl, _, _, _ = runs
    backfill_partitions(PART, [1], 4)
    metrics = run_rollup_pipeline(rd.from_arrow(tbl), PART, PipelineConfig(num_parts=4))
    assert set(metrics["resumed_parts_skipped"]) == {0, 2, 3}
    for tier in ("1m", "1h", "1d"):
        a = tier_table(FULL, tier)
        b = tier_table(PART, tier)
        assert a.num_rows == b.num_rows


def test_backfill_rejects_bad_partition():
    import pytest as _pytest

    from chronoxtract_ray.pipelines.rollup_pipeline import backfill_partitions

    with _pytest.raises(ValueError):
        backfill_partitions(PART, [99], 4)


def test_backfill_rejects_bad_partition_without_mutating(runs):
    """Validation must cover the WHOLE list before any deletion: a mixed
    [valid, invalid] request raising mid-loop after deleting the valid
    part's 1m manifest leaves a store where the next run rebuilds 1m but
    skips the cascade — 1h/1d silently stale (r4 review)."""
    import pytest as _pytest

    from chronoxtract_ray.pipelines.rollup_pipeline import backfill_partitions

    mans = [ckpt.manifest_path(PART, tier, 1) for tier in ("1m", "1h", "1d")]
    assert all(os.path.exists(m) for m in mans)
    with _pytest.raises(ValueError):
        backfill_partitions(PART, [1, 99], 4)
    assert all(os.path.exists(m) for m in mans), "no artifact may be touched"


def test_batch_entry_rolls_forward_pending_ingest_swap(runs, ray_session, tmp_path):
    """A READY marker left by a crashed ingest is the batch's durability
    point — the batch pipeline (and backfill) must complete its swap BEFORE
    writing, else the NEXT ingest/retention run would roll the stale staged
    state forward over freshly batch-written data."""
    import json

    import ray.data as rd

    from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline

    tbl, _, _, _ = runs
    root = str(tmp_path / "store")
    # stage a synthetic post-READY ingest state for partition 0
    stage = os.path.join(root, "_staged", "torn-batch", "part=0000")
    os.makedirs(os.path.join(stage, "convs"))
    with open(os.path.join(stage, "convs", "marker.txt"), "w") as f:
        f.write("staged")
    with open(os.path.join(root, "_staged", "torn-batch", "part=0000.READY"), "w") as f:
        json.dump({}, f)  # no manifests to commit — swap-only
    run_rollup_pipeline(rd.from_arrow(tbl), root, PipelineConfig(num_parts=4))
    # the swap completed (staged artifact landed, staging tree gone)
    assert os.path.exists(os.path.join(root, "_convs", "part=0000", "marker.txt"))
    assert not os.path.exists(os.path.join(root, "_staged", "torn-batch"))


def test_backfill_drops_ingest_sidecars(runs, ray_session):
    """Backfill must also invalidate incremental-ingest state for the
    reopened partitions: a surviving _convs sidecar is PREFERRED over a
    bootstrap re-scan by the next ingest (stale anchors into recomputed
    data), and a surviving _open buffer would re-merge raw turns the
    backfilled recompute already owns. Untouched partitions keep theirs.
    (Runs last in the backfill family: it leaves part 1 reopened, then
    restores the store by re-running the pipeline.)"""
    import shutil as _sh

    import ray.data as rd

    from chronoxtract_ray.pipelines.rollup_pipeline import (
        PipelineConfig,
        backfill_partitions,
        run_rollup_pipeline,
    )

    tbl, _, _, _ = runs
    for side in ("_open", "_convs"):
        for p in (1, 2):
            os.makedirs(os.path.join(PART, side, f"part={p:04d}"), exist_ok=True)
    backfill_partitions(PART, [1], 4)
    for side in ("_open", "_convs"):
        assert not os.path.exists(os.path.join(PART, side, "part=0001")), side
        assert os.path.exists(os.path.join(PART, side, "part=0002")), side
    for side in ("_open", "_convs"):
        _sh.rmtree(os.path.join(PART, side), ignore_errors=True)
    run_rollup_pipeline(rd.from_arrow(tbl), PART, PipelineConfig(num_parts=4))


def test_store_meta_guards_partition_count(ray_session, tmp_path):
    """Writing into an existing store with a different num_parts (or gorilla
    setting) raises instead of silently splitting conversations across
    partitions (hash%P routing differs per P)."""
    import pytest

    from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline
    from chronoxtract_ray.sources.transcripts import transcripts_dataset
    from chronoxtract_ray.state.checkpoint import read_store_meta

    out = str(tmp_path / "store")
    run_rollup_pipeline(transcripts_dataset(30), out, PipelineConfig(num_parts=4))
    meta = read_store_meta(out)
    assert meta == {
        "num_parts": 4,
        "with_gorilla": True,
        "chunk_codec": "GXV2",
        "with_checksum": True,
        "width_us": 60_000_000,
    }

    with pytest.raises(ValueError, match="num_parts=4"):
        run_rollup_pipeline(transcripts_dataset(30), out, PipelineConfig(num_parts=8))
    with pytest.raises(ValueError, match="with_gorilla"):
        run_rollup_pipeline(
            transcripts_dataset(30), out, PipelineConfig(num_parts=4, with_gorilla=False)
        )

    from chronoxtract_ray.stages.ingest import run_incremental_ingest

    with pytest.raises(ValueError, match="num_parts=4"):
        run_incremental_ingest(
            transcripts_dataset(10), out, PipelineConfig(num_parts=16), batch_id="bad"
        )
