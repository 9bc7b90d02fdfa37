"""Shared stage utilities."""

from __future__ import annotations

import threading

_READ_CONSTRUCT_LOCK = threading.Lock()

__all__ = [
    "ensure_sort_shuffle",
    "collect_table",
    "round_half_away",
    "file_cache_key",
    "read_parquet_clean",
    "read_parquet_locked",
]


def read_parquet_locked(path, columns=None, **kwargs):
    """``ray.data.read_parquet`` with CONSTRUCTION serialized under the
    module lock — the one shared entry point for driver-side Ray Data read
    construction in this env (see read_parquet_clean's docstring for the
    fsspec http probe race). Use this instead of a bare rd.read_parquet
    anywhere a read may be constructed from a non-main thread."""
    import ray.data as rd

    with _READ_CONSTRUCT_LOCK:
        return rd.read_parquet(path, columns=columns, **kwargs)


def read_parquet_clean(path: str, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet`` with the file's own schema minus its
    schema-level metadata.

    pandas-written parquet (the driver's testdata) carries a ``b'pandas'``
    schema-metadata dict, which makes the resulting ``pyarrow.Schema``
    UNHASHABLE (``hash(schema)`` raises ``unhashable type: 'dict'``) — Ray
    Data's block-schema dedup fast path (``set(schemas)`` in
    ``unify_schemas``) then fails on EVERY block concat in every shuffle,
    logging "Failed to hash the schemas (for deduplication)" per task and
    falling back to full schema unification. Passing an explicit
    metadata-free schema keeps every downstream block hashable with zero
    extra pipeline stages; cost is one footer read on the driver.

    Engine-written tier/store files are already metadata-free (plain
    ``pq.write_table`` of fresh tables), so their readers skip this.

    Construction is serialized under a module lock: Ray's path resolution
    probes ``fsspec.implementations.http`` (absent aiohttp in this env, so
    the import always fails) and only catches ``ModuleNotFoundError`` —
    two threads importing the failing module concurrently surface a plain
    ``ImportError`` instead, crashing concurrent component queries
    (queries_merged._par). The lock costs milliseconds (plan construction
    only); pipeline EXECUTION stays fully concurrent."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    with _READ_CONSTRUCT_LOCK:
        try:
            full = pads.dataset(path).schema.remove_metadata()
            schema = pa.schema([full.field(c) for c in columns]) if columns else full
        except Exception:
            # unreadable/odd layout: fall back to plain read_parquet — this
            # helper is a log/perf nicety, never a correctness gate
            return rd.read_parquet(path, columns=columns, **kwargs)
        return rd.read_parquet(path, schema=schema, columns=columns, **kwargs)


def round_half_away(x, nd: int = 6):
    """Half-away-from-zero after decimal scaling — matches DuckDB ROUND
    (probed: floor(|x|*10^nd + 0.5) semantics, including x*10^nd double
    rounding effects). The suite's single most load-bearing float contract,
    so it lives in ONE place (was copy-pasted per query module).

    NO global -0.0 canonicalization here: DuckDB ROUND(-1e-9, 6) emits
    -0.0 too, so both sides naturally agree on tiny negatives — a
    one-sided +0.0 would BREAK that symmetry everywhere. The one place
    the two sides disagree on zero sign (the entropy trio, where the
    oracle's -sum(...) negates an exact 0.0) normalizes BOTH sides at
    the projection (q_entropy_features / SQL_ENTROPY_FEATURES)."""
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    scale = 10.0**nd
    return np.sign(x) * np.floor(np.abs(x) * scale + 0.5) / scale


def file_cache_key(path: str):
    """Identity key for memoizing DERIVED RESULTS of a file: (path,
    mtime_ns, size), or None when the file can't be stat'ed — None means
    UNCACHEABLE, never a shared fallback key (distinct error states must
    not collapse into one slot that could serve stale results). Keying on
    the path alone serves stale data after the file is regenerated in
    place — the bug class _EDGE_CACHE documents."""
    import os

    try:
        st = os.stat(path)
    except OSError:
        return None
    return (path, int(st.st_mtime_ns), st.st_size)


def ensure_sort_shuffle(ds):
    """Pin a dataset to the task-based sort shuffle. Right for SMALL
    groupbys (driver queries over sf tables): the hash-shuffle path spawns
    an aggregator actor pool per execution (~5-8 s), which dwarfs the work
    at 10^5-row scale."""
    from ray.data.context import ShuffleStrategy

    try:
        ds.context.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    except AttributeError:
        pass
    return ds


def from_pandas_clean(df):
    """``pa.Table.from_pandas`` without the pandas schema-metadata dict.
    Mid-pipeline tables MUST use this: the metadata blob makes block
    schemas unhashable to Ray's shuffle dedup ("Failed to hash the schemas"
    log spam + per-task schema unification) and makes byte-identical blocks
    compare unequal."""
    import pyarrow as pa

    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def collect_table(ds):
    """Arrow-native driver collect of a SMALL-RESULT Dataset: fetch the
    result blocks (zero-copy Arrow out of the object store) and concat,
    instead of ``take_all()``'s per-row Python dict materialization +
    ``from_pylist`` type re-inference. Only for final query results —
    never mid-pipeline."""
    import pyarrow as pa
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs())]
    tables = [t for t in tables if t.num_rows] or tables[:1]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default").combine_chunks()
