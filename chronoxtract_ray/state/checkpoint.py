"""Per-partition checkpoint / watermark / lineage manifest.

Layout under an output root:

    out/
      tier=1m/part=0007/*.parquet        tier rows, hash(conv_id)%P partitions
      chunks/tier=1m/part=0007/*.parquet Gorilla chunk rows
      _manifest/tier=1m/part=0007.json   {"complete": true, "watermark_us": ...,
                                          "rows": n, "wall_s": ..., "input_rows": ...}

Resume contract: a partition with a ``complete`` manifest is (a) skipped at
write time and (b) its input rows are dropped in the derive stage, so a
killed run re-does only unfinished partitions and the final output equals an
uninterrupted run's (asserted in tests/test_resume.py). Writes are atomic:
temp dir then ``os.rename``.
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pandas as pd

__all__ = [
    "conv_partition",
    "manifest_path",
    "load_manifests",
    "completed_parts",
    "replace_partition_dir",
    "read_segment",
    "write_partition",
    "PartitionWriter",
]


def conv_partition(conv_ids: np.ndarray, num_parts: int) -> np.ndarray:
    """Stable conversation → partition hash (pandas' vectorized hasher; the
    same function the derive stage uses for resume filtering)."""
    return (pd.util.hash_array(conv_ids, categorize=False) % num_parts).astype(np.int64)


STORE_META = "_store.json"
CHUNK_CODEC = "GXV2"  # the Gorilla chunk blob format (state/gorilla.py) this engine reads and writes


def read_store_meta(root: str) -> dict | None:
    """Store-level invariants (partition count, gorilla on/off, chunk codec,
    ...), or None for a fresh / pre-metadata store."""
    path = os.path.join(root, STORE_META)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def ensure_store_meta(
    root: str,
    num_parts: int,
    with_gorilla: bool,
    with_checksum: bool | None = None,
    width_us: int | None = None,
) -> None:
    """Record-or-validate the store's structural invariants.

    ``conv_partition`` routes rows by ``hash % num_parts``: writing into an
    existing store with a DIFFERENT partition count silently splits each
    conversation's series across two partitions (duplicate windows, wrong
    open-window merges) — nothing downstream can detect it. An ingest
    without gorilla into a gorilla store (or vice versa) leaves the chunk
    artifacts inconsistent for only the partitions it touched. An ingest
    whose ``with_checksum`` differs from the store's writes segments whose
    schema (text_checksum present/absent) cannot concatenate with the old
    ones, and a different finest-tier ``width_us`` merges windows floored
    on two different grids. So the first write records all four, and every
    later write must match or raise. Pre-metadata stores (and stores from
    before a field existed) adopt the next writer's values — they cannot be
    validated retroactively, so the missing keys are backfilled.

    The first write also records ``chunk_codec``. It is never backfilled
    into a store that already holds chunk files: those were written in an
    older blob format that this engine cannot decode, and a partial rewrite
    would mix two formats in one store. Such a store raises before anything
    is written."""
    meta = read_store_meta(root)
    codec = (meta or {}).get("chunk_codec")
    if codec != CHUNK_CODEC and (codec is not None or _has_chunk_files(root)):
        found = f"chunk_codec={codec}" if codec else f"an older format (no chunk_codec in {STORE_META})"
        raise ValueError(
            f"store at {root} holds Gorilla chunks in {found}; this engine reads "
            f"and writes chunk_codec={CHUNK_CODEC} only. Rebuild the store: rerun "
            f"the rollup and any ingest batches into a new output directory."
        )
    if meta is not None:
        if int(meta["num_parts"]) != int(num_parts):
            raise ValueError(
                f"store at {root} was built with num_parts={meta['num_parts']}; "
                f"writing with num_parts={num_parts} would split conversations "
                f"across partitions. Pass the stored value (or omit --num-parts "
                f"on the CLI to adopt it)."
            )
        if bool(meta.get("with_gorilla", True)) != bool(with_gorilla):
            raise ValueError(
                f"store at {root} was built with with_gorilla="
                f"{meta.get('with_gorilla', True)}; writing with "
                f"with_gorilla={with_gorilla} would leave chunk artifacts "
                f"inconsistent across partitions."
            )
        if (
            with_checksum is not None
            and "with_checksum" in meta
            and bool(meta["with_checksum"]) != bool(with_checksum)
        ):
            raise ValueError(
                f"store at {root} was built with with_checksum="
                f"{meta['with_checksum']}; writing with with_checksum="
                f"{with_checksum} would leave tier segments with mismatched "
                f"schemas (text_checksum present in some files, absent in "
                f"others) that cannot be read back together."
            )
        if width_us is not None and "width_us" in meta and int(meta["width_us"]) != int(width_us):
            raise ValueError(
                f"store at {root} was built with width_us={meta['width_us']}; "
                f"writing with width_us={width_us} would merge windows floored "
                f"on two different grids."
            )
        backfill = {}
        if with_checksum is not None and "with_checksum" not in meta:
            backfill["with_checksum"] = bool(with_checksum)
        if width_us is not None and "width_us" not in meta:
            backfill["width_us"] = int(width_us)
        if "chunk_codec" not in meta:
            backfill["chunk_codec"] = CHUNK_CODEC
        if backfill:
            _write_store_meta(root, dict(meta, **backfill))
        return
    os.makedirs(root, exist_ok=True)
    meta = {"num_parts": int(num_parts), "with_gorilla": bool(with_gorilla), "chunk_codec": CHUNK_CODEC}
    if with_checksum is not None:
        meta["with_checksum"] = bool(with_checksum)
    if width_us is not None:
        meta["width_us"] = int(width_us)
    _write_store_meta(root, meta)


def _has_chunk_files(root: str) -> bool:
    return bool(glob.glob(os.path.join(root, "chunks", "tier=*", "part=*", "*.parquet")))


def _write_store_meta(root: str, meta: dict) -> None:
    tmp = os.path.join(root, STORE_META + ".tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(root, STORE_META))


def tmp_sibling_dir(final_dir: str) -> str:
    """The hidden staging dir a partition rewrite stages through."""
    head, tail = os.path.split(final_dir)
    return os.path.join(head, f".{tail}.tmp")


def replace_partition_dir(final_dir: str, table, single_row_group: bool = True) -> None:
    """Atomically replace a partition artifact directory with one parquet
    file (temp dir + rename). The temp dir is a DOT-PREFIXED sibling
    (``.part=0007.tmp``) — every reader of these layouts (tier_table,
    retention, the DuckDB oracle views) globs ``part=*/*.parquet``, and a
    plain ``part=0007.tmp`` left by a crash between write and rename WOULD
    match that glob, making half-written (or retention-pruned) rows visible
    to queries. ``glob``'s ``*`` never matches a leading dot, so the hidden
    name closes that crash window; stale hidden dirs are swept before reuse
    and cost only disk until then.

    The old dir is retired by RENAME (to a hidden ``.trash`` sibling), not
    rmtree: replacing a dir needs two steps either way, but a rename is one
    syscall (an rmtree-sized gap would scale with segment count) and a crash
    between the two renames keeps BOTH copies on disk — the old rows in
    ``.trash``, the complete new rows in ``.tmp`` — instead of losing the
    partition's only visible copy."""
    import shutil

    import pyarrow.parquet as pq

    tmp_dir = tmp_sibling_dir(final_dir)
    trash_dir = tmp_dir + ".trash"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    kwargs = {"row_group_size": max(table.num_rows, 1)} if single_row_group else {}
    pq.write_table(table, os.path.join(tmp_dir, "data.parquet"), **kwargs)
    if os.path.exists(final_dir):
        shutil.rmtree(trash_dir, ignore_errors=True)
        os.rename(final_dir, trash_dir)
    os.rename(tmp_dir, final_dir)
    shutil.rmtree(trash_dir, ignore_errors=True)


def read_segment(path: str, columns: list[str] | None = None):
    """One parquet segment file of a store as an Arrow table. Reads the file
    directly: ``pq.read_table`` would build a dataset and run partition
    discovery for every file, which costs more than reading a small segment."""
    import pyarrow.parquet as pq

    with pq.ParquetFile(path) as f:
        return f.read(columns=columns)


def manifest_path(root: str, tier: str, part: int) -> str:
    return os.path.join(root, "_manifest", f"tier={tier}", f"part={part:04d}.json")


def load_manifests(root: str, tier: str, num_parts: int) -> dict[int, dict]:
    out = {}
    for p in range(num_parts):
        mp = manifest_path(root, tier, p)
        if os.path.exists(mp):
            with open(mp) as f:
                out[p] = json.load(f)
    return out


def completed_parts(root: str, tier: str, num_parts: int) -> frozenset[int]:
    return frozenset(p for p, m in load_manifests(root, tier, num_parts).items() if m.get("complete"))


def write_partition(root: str, tier: str, part: int, table, metrics: dict | None = None) -> None:
    """Atomically write one partition's rows + its manifest (both under
    ``root``; pass a distinct root per artifact family, e.g. out/ and
    out/chunks/)."""
    final_dir = os.path.join(root, f"tier={tier}", f"part={part:04d}")
    # single row group: a partition file is the atomic read unit, so a
    # downstream partition-aligned read can never split it across blocks
    replace_partition_dir(final_dir, table)
    wm = int(table["window_start"].to_numpy().max()) if table.num_rows and "window_start" in table.column_names else None
    man = {
        "complete": True,
        "tier": tier,
        "part": part,
        "rows": table.num_rows,
        "watermark_us": wm,
        "written_at": time.time(),
    }
    if metrics:
        man.update(metrics)
    mp = manifest_path(root, tier, part)
    os.makedirs(os.path.dirname(mp), exist_ok=True)
    tmp = mp + ".tmp"
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.rename(tmp, mp)


class PartitionWriter:
    """Write each hash partition's tier rows atomically AND (optionally)
    their Gorilla-compressed point chunks; called by the pipeline's writer
    stages on one block at a time.

    Each block holds whole partitions (the exchange hands a writer every
    row of a partition; tier blocks hold one tier at a time); writes one
    directory + manifest per partition (idempotent: a retried task rewrites
    the same files). A partition only counts as complete once tier rows and
    chunks are both on disk (single manifest covers both). Holds only its
    configuration: no state crosses blocks."""

    def __init__(self, root: str, num_parts: int, gorilla_by_tier: dict | None = None, run_id: str | None = None):
        """``gorilla_by_tier``: tier name → gorilla cfg dict ({"width_us":...,
        "points_per_chunk":..., "value_col":...}) or None to skip chunks for
        that tier. Input blocks carry ``tier_name`` + ``part`` columns.
        ``run_id`` arms the split-partition guard: if this run writes the
        same (tier, part) twice with different row counts, a partition block
        was split upstream (silent-corruption hazard) and we fail loudly."""
        self.root = root
        self.num_parts = num_parts
        self.gorilla_by_tier = gorilla_by_tier or {}
        self.run_id = run_id

    def _guard_split(self, tier: str, part: int, new_rows: int) -> None:
        if self.run_id is None:
            return
        mp = manifest_path(self.root, tier, part)
        if os.path.exists(mp):
            with open(mp) as f:
                man = json.load(f)
            if man.get("run_id") == self.run_id and man.get("rows") != new_rows:
                raise RuntimeError(
                    f"partition tier={tier} part={part} written twice with different "
                    f"row counts in one run ({man.get('rows')} then {new_rows}): a "
                    f"partition block was split upstream — raise num_parts (or lower "
                    f"block size pressure) so each partition fits one block"
                )

    def _encode_chunks(self, tbl, cfg):
        """Sorted tier rows of one partition → Gorilla chunk rows."""
        import numpy as np
        import pyarrow as pa

        from chronoxtract_ray.state import gorilla

        span = cfg["width_us"] * cfg.get("points_per_chunk", 1024)
        conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
        win = tbl["window_start"].to_numpy()
        val = tbl[cfg.get("value_col", "mean")].to_numpy()
        chunk = (win // span) * span
        codes = np.cumsum(np.concatenate(([False], conv[1:] != conv[:-1])))
        seg = np.concatenate(([True], (codes[1:] != codes[:-1]) | (chunk[1:] != chunk[:-1])))
        starts = np.flatnonzero(seg)
        ends = np.concatenate((starts[1:], [win.size]))
        # batch encoders: one vectorized pass over every chunk of the
        # partition (~6x less per-chunk overhead; byte-identical blobs)
        ts_blobs = gorilla.encode_timestamps_batch(win, starts)
        v_blobs = gorilla.encode_values_batch(val, starts)
        return pa.table(
            {
                "conv_id": pa.array(conv[starts], pa.string()),
                "chunk_start": pa.array(chunk[starts], pa.int64()),
                "n_points": pa.array(ends - starts, pa.int64()),
                "first_window": pa.array(win[starts], pa.int64()),
                "last_window": pa.array(win[ends - 1], pa.int64()),
                "gorilla_timestamps": pa.array(ts_blobs, pa.binary()),
                "gorilla_values": pa.array(v_blobs, pa.binary()),
            }
        )

    def __call__(self, block):
        import numpy as np
        import pyarrow as pa

        parts_out, rows_out = [], []
        if block.num_rows:
            part_col = block["part"].to_numpy()
            tier_col = block["tier_name"].to_numpy(zero_copy_only=False)
            for tier in np.unique(tier_col):
                for part in np.unique(part_col[tier_col == tier]):
                    t0 = time.time()
                    mask = (part_col == part) & (tier_col == tier)
                    tbl = block.filter(pa.array(mask)).drop_columns(["part", "tier_name"])
                    # deterministic row order inside the file
                    names = [c for c in ("conv_id", "window_start", "chunk_start") if c in tbl.column_names]
                    if names:
                        tbl = tbl.sort_by([(n, "ascending") for n in names])
                    extra = {}
                    if "n_turns" in tbl.column_names:
                        extra["n_turns"] = int(tbl["n_turns"].to_numpy().sum())
                    self._guard_split(str(tier), int(part), tbl.num_rows)
                    gcfg = self.gorilla_by_tier.get(str(tier))
                    if gcfg is not None:
                        chunks = self._encode_chunks(tbl, gcfg)
                        write_chunk_partition(self.root, str(tier), int(part), chunks)
                        extra["gorilla_chunks"] = chunks.num_rows
                        # vectorized byte totals — as_py() here would copy the
                        # whole compressed output just to take len()
                        extra["gorilla_bytes"] = int(
                            (pa.compute.sum(pa.compute.binary_length(chunks["gorilla_timestamps"])).as_py() or 0)
                            + (pa.compute.sum(pa.compute.binary_length(chunks["gorilla_values"])).as_py() or 0)
                        )
                    if self.run_id is not None:
                        extra["run_id"] = self.run_id
                    # stamped AFTER gorilla encode + chunk write so the
                    # manifest reflects the partition's real work (only the
                    # final tier-parquet write itself is excluded — it can't
                    # time itself into the manifest it writes)
                    extra["wall_s"] = time.time() - t0
                    write_partition(self.root, str(tier), int(part), tbl, extra)
                    parts_out.append(int(part))
                    rows_out.append(tbl.num_rows)
        return pa.table({"part": pa.array(parts_out, pa.int64()), "rows": pa.array(rows_out, pa.int64())})


def write_chunk_partition(root: str, tier: str, part: int, chunks) -> None:
    """Atomically write one partition's Gorilla chunk rows (no separate
    manifest — the tier manifest, written after, covers both)."""
    final_dir = os.path.join(root, "chunks", f"tier={tier}", f"part={part:04d}")
    replace_partition_dir(final_dir, chunks, single_row_group=False)
