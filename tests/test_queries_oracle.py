"""Local replica of the driver's correctness gate: run every queries() entry
at sf0.001 and compare against its oracle_sql() via DuckDB — row count,
column names, and order-insensitive value equality."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as m

    return m


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object and df[c].map(lambda v: isinstance(v, (bytes, bytearray))).any():
            df[c] = df[c].map(lambda b: b.hex() if isinstance(b, (bytes, bytearray)) else b)
        if str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _compare(name, ray_result, sql, con):
    got = ray_result.to_pandas() if not isinstance(ray_result, pd.DataFrame) else ray_result
    exp = con.execute(sql).fetchdf()
    assert sorted(got.columns) == sorted(exp.columns), f"{name}: columns {sorted(got.columns)} vs {sorted(exp.columns)}"
    assert len(got) == len(exp), f"{name}: rows {len(got)} vs {len(exp)}"
    g, e = _canon(got), _canon(exp)
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            # bit-exact: engine rounding + expression association mirror DuckDB
            ok = np.isclose(gv.astype(float), ev.astype(float), rtol=0, atol=0, equal_nan=True)
        else:
            ok = gv == ev
        assert ok.all() if hasattr(ok, "all") else ok, (
            f"{name}.{c}: first mismatch at {np.argmin(ok)}: "
            f"{gv[np.argmin(ok)]} vs {ev[np.argmin(ok)]}"
        )


import __ray_entry__ as _entry

_HASH_CHECKED = list(_entry.oracle_sql().keys())
_ROWS_ONLY = [k for k in _entry.queries() if k not in _entry.oracle_sql()]


@pytest.mark.parametrize("name", _HASH_CHECKED)
def test_query_matches_oracle(entrymod, duck, name):
    q = entrymod.queries()[name]
    sql = entrymod.oracle_sql()[name]
    _compare(name, q(SF), sql, duck)


@pytest.mark.parametrize("name", _ROWS_ONLY)
def test_rows_only_queries_run(entrymod, name):
    res = entrymod.queries()[name](SF)
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    assert df.shape[1] >= 2


def test_knn_ann_recall_vs_bruteforce(entrymod):
    from chronoxtract_ray.pipelines import queries_vec as qv

    exact = entrymod.queries()["knn_bruteforce"](SF).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    merged = entrymod.queries()["knn_ann"](SF).to_pandas()
    for approx_name, fn, floor in (("lsh", qv.q_knn_lsh, 0.3), ("ivf", qv.q_knn_ivf, 0.3)):
        approx = fn(SF).to_pandas()
        a = set(zip(approx["query_id"], approx["neighbor_id"]))
        recall = len(e & a) / len(e)
        assert recall >= floor, f"{approx_name} recall too low: {recall}"
        # the merged driver query carries each variant verbatim
        m = merged[merged["method"] == approx_name]
        assert set(zip(m["query_id"], m["neighbor_id"])) == a


def test_rolling_scans_fused_equals_composition(entrymod):
    """The fused single-pass rolling_scans must be byte-identical (dtype and
    float bit pattern) to the original four-pipeline composition it
    replaced — the composition is the form whose components are each
    individually oracle-proven."""
    from chronoxtract_ray.pipelines import queries_merged as qm

    a = qm.q_rolling_scans(SF).to_pandas()
    b = qm.rolling_scans_composed(SF).to_pandas()
    a = a[sorted(a.columns)].sort_values(["user_id", "event_id"]).reset_index(drop=True)
    b = b[sorted(b.columns)].sort_values(["user_id", "event_id"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b) and len(a) > 0
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype == bv.dtype, f"{c}: {av.dtype} vs {bv.dtype}"
        if av.dtype.kind == "f":
            assert np.array_equal(av.view(np.uint64), bv.view(np.uint64)), f"{c}: float bits differ"
        else:
            assert np.array_equal(av, bv), f"{c}: values differ"


def test_entry_smoke(entrymod):
    df = entrymod.entry()
    assert len(df) > 0
    assert "mean" in df.columns and "conv_id" in df.columns


def test_collect_table_preserves_types_and_handles_empty(ray_session):
    """collect_table fetches result blocks as typed Arrow (uint64 survives;
    from_pylist would have re-inferred) and returns a schema'd empty table
    when every block filtered to zero rows."""
    import pyarrow as pa
    import ray.data as rd

    from chronoxtract_ray.stages.util import collect_table

    t = pa.table({"k": pa.array([1, 2, 3], pa.uint64()), "v": pa.array([1.0, 2.0, 3.0])})
    ds = rd.from_arrow(t)
    got = collect_table(ds)
    assert got.schema.field("k").type == pa.uint64()
    assert got.num_rows == 3

    # all-rows-filtered: 0 rows; columns may be absent when Ray returns no
    # blocks at all (same contract as the old from_pylist([]) path — callers
    # with possibly-empty results build their own typed empty tables)
    empty = collect_table(ds.filter(lambda r: False))
    assert empty.num_rows == 0
