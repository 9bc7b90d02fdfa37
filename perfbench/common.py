"""Pieces shared by the timed (Ray) run and the in-process run: the on-disk
layout of one benchmark run, the read phase, and store measurements."""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow.compute as pc

__all__ = ["TIERS", "NUM_PARTS", "Layout", "read_phase", "store_files", "bytes_of", "created_bytes", "blob_stats", "segments_per_part"]

TIERS = ("1m", "1h", "1d")
NUM_PARTS = 8


class Layout:
    """Paths of one run's inputs and stores under its work directory."""

    def __init__(self, work: str):
        self.work = work
        self.history = os.path.join(work, "in", "history")
        self.warmup = os.path.join(work, "in", "warmup")

    def batch(self, k: int) -> str:
        return os.path.join(self.work, "in", f"batch{k}")

    def n_batches(self) -> int:
        return len(glob.glob(os.path.join(self.work, "in", "batch*")))

    def store(self, name: str) -> str:
        return os.path.join(self.work, "stores", name)


def read_phase(root: str) -> tuple[dict, float]:
    """Read every tier with ``tier_table`` and decode every tier's Gorilla
    chunks with ``decode_chunks``. Returns tier -> (tier table, decoded
    points, chunk table) and the wall time. Looks the functions up at call time, so a
    traced run sees its wrapped versions."""
    from chronoxtract_ray.pipelines import rollup_pipeline
    from chronoxtract_ray.stages import gorilla_stage

    out = {}
    t0 = time.perf_counter()
    for tier in TIERS:
        tbl = rollup_pipeline.tier_table(root, tier)
        chunks = rollup_pipeline.tier_table(os.path.join(root, "chunks"), tier)
        out[tier] = (tbl, gorilla_stage.decode_chunks(chunks), chunks)
    return out, time.perf_counter() - t0


def store_files(root: str) -> dict:
    """(device, inode, mtime, size) of every regular file under ``root``,
    keyed by (device, inode): a hard link adds no entry, and a file created
    later on a reused inode number differs in mtime."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            st = os.lstat(os.path.join(dirpath, f))
            out[(st.st_dev, st.st_ino)] = (st.st_mtime_ns, st.st_size)
    return out


def bytes_of(files: dict) -> int:
    return int(sum(size for _, size in files.values()))


def created_bytes(before: dict, after: dict) -> int:
    """Bytes of files in ``after`` that were not in ``before``."""
    return int(sum(v[1] for k, v in after.items() if before.get(k) != v))


def segments_per_part(root: str) -> float:
    """Mean parquet files per (tier, partition) directory."""
    dirs = glob.glob(os.path.join(root, "tier=*", "part=*"))
    return float(np.mean([len(glob.glob(os.path.join(d, "*.parquet"))) for d in dirs])) if dirs else 0.0


def blob_stats(chunks) -> tuple[int, int, int]:
    """(bits of value and timestamp blobs, points, chunks) of one chunk table."""
    if chunks.num_rows == 0:
        return 0, 0, 0
    nbytes = pc.sum(pc.binary_length(chunks["gorilla_values"])).as_py() + pc.sum(pc.binary_length(chunks["gorilla_timestamps"])).as_py()
    return 8 * int(nbytes), int(pc.sum(chunks["n_points"]).as_py()), chunks.num_rows
