"""End-to-end tier tests: pipeline output vs an independent NumPy oracle.

The oracle path is deliberately different from the engine path: pandas
groupby over the raw input + single-series kernels per window, versus the
engine's hash-partitioned Ray shuffle + fused vectorized kernel.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from chronoxtract_ray import kernels as k
from chronoxtract_ray.kernels.windowed import FeatureSpec
from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline, tier_table
from chronoxtract_ray.sources.transcripts import generate_table
from chronoxtract_ray.stages.derive import text_crc
from chronoxtract_ray.stages.gorilla_stage import decode_chunks
from chronoxtract_ray.stages.rollup import MINUTE_US, HOUR_US

OUT = "/tmp/ctx_test_e2e"


@pytest.fixture(scope="module")
def pipeline_run(ray_session):
    import ray.data as rd

    tbl = generate_table(10, base_turns=30, hot_every=5, hot_factor=15)
    shutil.rmtree(OUT, ignore_errors=True)
    metrics = run_rollup_pipeline(rd.from_arrow(tbl), OUT, PipelineConfig(num_parts=4))
    return tbl, metrics


def _oracle_windows(tbl: pa.Table, width_us: int) -> pd.DataFrame:
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    df["value"] = df["text"].str.len().astype(float)
    df = df.sort_values(["conv_id", "ts_us", "turn_idx"], kind="stable")
    df["window_start"] = (df["ts_us"] // width_us) * width_us
    return df


def test_tier1m_matches_oracle(pipeline_run):
    tbl, _ = pipeline_run
    t1m = tier_table(OUT, "1m").to_pandas()
    df = _oracle_windows(tbl, MINUTE_US)
    groups = dict(tuple(df.groupby(["conv_id", "window_start"], sort=True)))
    assert len(groups) == len(t1m)
    checked = 0
    for row in t1m.itertuples():
        seg = groups[(row.conv_id, row.window_start)]["value"].to_numpy()
        st = k.summary_statistics(seg)
        med, qs = k.median_and_quantiles(seg)
        assert row.n_turns == seg.size
        assert np.isclose(row.mean, st["mean"])
        assert np.isclose(row.variance, st["variance"], atol=1e-12)
        assert np.isclose(row.sum, st["sum"]) and np.isclose(row.energy, st["energy"])
        assert row.min == st["min"] and row.max == st["max"]
        assert np.isclose(row.median, med) and np.isclose(row.q95, qs[3])
        assert row.mode == k.calculate_mode(seg)
        if st["skewness"] is None:
            assert np.isnan(row.skewness)
        else:
            assert np.isclose(row.skewness, st["skewness"], atol=1e-9)
        if seg.size >= 3:
            a, m, c = k.hjorth_parameters(seg)
            assert np.isclose(row.hjorth_activity, a, atol=1e-12)
            assert np.isclose(row.hjorth_mobility, m)
            assert np.isclose(row.hjorth_complexity, c)
        r = 0.2 * st["std_dev"]
        if seg.size >= 3 and r > 0 and seg.size <= 512:
            assert np.isclose(row.sample_entropy, k.sample_entropy(seg, 2, r), equal_nan=True)
        bands = k.fft_band_energies(seg, 4)
        assert np.isclose(row.fft_band_energy_0, bands[0])
        checked += 1
    assert checked == len(t1m)


def test_turn_ordering_checksum_invariant(pipeline_run):
    """The order-sensitive digest proves per-turn text equality under stable
    turn ordering survived the distributed shuffle (north-rule invariant)."""
    tbl, _ = pipeline_run
    t1m = tier_table(OUT, "1m").to_pandas()
    df = _oracle_windows(tbl, MINUTE_US)
    df["crc"] = text_crc(df["text"].to_numpy(), df["turn_idx"].to_numpy())
    oracle = {}
    for (conv, w), g in df.groupby(["conv_id", "window_start"], sort=True):
        c = g["crc"].to_numpy().astype(np.uint64)
        pos = np.arange(1, c.size + 1, dtype=np.uint64)
        oracle[(conv, w)] = int((c * pos).sum(dtype=np.uint64))
    for row in t1m.itertuples():
        assert int(row.text_checksum) == oracle[(row.conv_id, row.window_start)], (
            row.conv_id,
            row.window_start,
        )


def test_reference_golden_vector_through_pipeline(ray_session):
    """A window whose derived value series is exactly [1,2,2,3,4,5] must
    reproduce the reference's published summary oracle values
    (/root/reference/tests/test_stats.py:5-20)."""
    import ray.data as rd

    base = 1_700_000_000_000_000
    rows = {
        "conv_id": ["golden"] * 6,
        "turn_idx": pa.array(range(6), pa.int32()),
        "role": ["user"] * 6,
        "text": ["x" * n for n in (1, 2, 2, 3, 4, 5)],
        "tool": [""] * 6,
        "ts": pa.array([base + i * 1_000_000 for i in range(6)], pa.timestamp("us")),
    }
    out = "/tmp/ctx_test_golden"
    shutil.rmtree(out, ignore_errors=True)
    run_rollup_pipeline(rd.from_arrow(pa.table(rows)), out, PipelineConfig(num_parts=2, with_gorilla=False))
    t = tier_table(out, "1m").to_pandas()
    assert len(t) == 1
    r = t.iloc[0]
    assert np.isclose(r["mean"], 2.8333333333333335)
    assert np.isclose(r["median"], 2.5)
    assert r["mode"] == 2.0
    assert np.isclose(r["variance"], 1.8055555555555556)
    assert np.isclose(r["std"], 1.343709624584882)
    assert np.isclose(r["skewness"], 0.3053162697580514)
    assert np.isclose(r["kurtosis"], -1.151715976331361)
    assert r["min"] == 1 and r["max"] == 5 and r["range"] == 4
    assert r["sum"] == 17 and r["energy"] == 59


def test_cascade_merged_moments_exact(pipeline_run):
    """1h merged_* columns must equal a direct rollup of raw turns over 1h
    windows (mergeable cascade, SURVEY.md §4.3)."""
    tbl, _ = pipeline_run
    t1h = tier_table(OUT, "1h").to_pandas()
    df = _oracle_windows(tbl, HOUR_US)
    direct = {}
    for (conv, w), g in df.groupby(["conv_id", "window_start"], sort=True):
        direct[(conv, w)] = k.summary_statistics(g["value"].to_numpy())
    present = t1h[t1h["n_turns"] > 0]
    assert len(present) == len(direct)
    for row in present.itertuples():
        st = direct[(row.conv_id, row.window_start)]
        assert np.isclose(row.merged_mean, st["mean"])
        assert np.isclose(row.merged_variance, st["variance"], atol=1e-9)
        assert row.merged_min == st["min"] and row.merged_max == st["max"]
        assert np.isclose(row.merged_sum, st["sum"]) and np.isclose(row.merged_energy, st["energy"])
        if st["skewness"] is not None:
            assert np.isclose(row.merged_skewness, st["skewness"], atol=1e-6)


def test_gap_fill_interpolation(pipeline_run):
    """Synthetic holes span whole 1m windows; the 1h tier must contain
    gap-filled fine points (n_gap_filled > 0) and every present 1h window of a
    conv between first and last must exist."""
    _, _ = pipeline_run
    t1h = tier_table(OUT, "1h").to_pandas()
    assert (t1h["n_gap_filled"] > 0).any()
    for conv, g in t1h.groupby("conv_id"):
        w = np.sort(g["window_start"].to_numpy())
        assert np.array_equal(w, np.arange(w[0], w[-1] + HOUR_US, HOUR_US))


def test_gap_fill_linear_values(ray_session):
    """mean of a filled gap window equals linear interpolation of neighbors."""
    import ray.data as rd

    base = 1_700_000_000_000_000
    # three 1-minute windows with a hole at minute 1: means 10, (gap), 30
    rows = {
        "conv_id": ["gap"] * 2,
        "turn_idx": pa.array([0, 1], pa.int32()),
        "role": ["user"] * 2,
        "text": ["x" * 10, "x" * 30],
        "tool": [""] * 2,
        "ts": pa.array([base, base + 2 * MINUTE_US], pa.timestamp("us")),
    }
    out = "/tmp/ctx_test_gap"
    shutil.rmtree(out, ignore_errors=True)
    run_rollup_pipeline(rd.from_arrow(pa.table(rows)), out, PipelineConfig(num_parts=2, with_gorilla=False))
    t1h = tier_table(out, "1h").to_pandas()
    row = t1h.iloc[0]
    # point series after gap-fill: [10, 20, 30] → mean 20, median 20
    assert np.isclose(row["mean"], 20.0)
    assert np.isclose(row["median"], 20.0)
    assert row["n_gap_filled"] == 1
    assert row["n_turns"] == 2  # merged count excludes the synthetic point
    assert np.isclose(row["merged_mean"], 20.0)  # (10+30)/2


def _make_cascade_block(conv_sizes: dict, base: int, span_minutes: int, seed: int) -> pa.Table:
    """Random 1m-tier block: per conv, ``n_pts`` windows scattered over
    ``span_minutes`` with consistent (mean, sum, energy, …) columns."""
    rng = np.random.default_rng(seed)
    rows = {"conv_id": [], "window_start": [], "n_turns": [], "mean": [],
            "sum": [], "energy": [], "sum3": [], "sum4": [], "min": [], "max": []}
    for c, n_pts in conv_sizes.items():
        offs = np.sort(rng.choice(span_minutes, size=n_pts, replace=False)).astype(np.int64)
        vals = rng.standard_normal(n_pts) * 50
        for o, v in zip(offs, vals):
            nt = int(rng.integers(1, 5))
            rows["conv_id"].append(c)
            rows["window_start"].append(base + o * MINUTE_US)
            rows["n_turns"].append(nt)
            rows["mean"].append(float(v))
            rows["sum"].append(float(v) * nt)
            rows["energy"].append(float(v * v) * nt)
            rows["sum3"].append(float(v**3) * nt)
            rows["sum4"].append(float(v**4) * nt)
            rows["min"].append(float(v) - 1.0)
            rows["max"].append(float(v) + 1.0)
    return pa.table({k_: pa.array(v, pa.int64() if k_ in ("window_start", "n_turns") else (pa.string() if k_ == "conv_id" else pa.float64())) for k_, v in rows.items()})


def _check_cascade_vs_reference(t1m: pa.Table, conv_ids) -> None:
    """cascade_block vs the independent per-conv path: gap_fill_group (dense
    per-group scatter) + the windowed kernel, plus brute-force merged
    aggregates from the present rows. Guards the sparse merged-aggregate
    rewrite (present-row ufunc.at instead of dense scatter+reduceat)."""
    from chronoxtract_ray.kernels.windowed import compute_windowed_features
    from chronoxtract_ray.stages.cascade import cascade_block, gap_fill_group

    spec = FeatureSpec()
    got = cascade_block(t1m, MINUTE_US, HOUR_US, spec).to_pandas()

    frames = []
    for c in conv_ids:
        sub = t1m.filter(pa.compute.equal(t1m["conv_id"], c))
        filled = gap_fill_group(sub, MINUTE_US)
        out = compute_windowed_features(
            filled["window_start"].to_numpy(), filled["mean"].to_numpy(), HOUR_US, spec
        )
        df = pd.DataFrame({kk: vv for kk, vv in out.items()})
        df["conv_id"] = c
        sp = sub.to_pandas()
        sp["ws_h"] = (sp["window_start"] // HOUR_US) * HOUR_US
        agg = sp.groupby("ws_h").agg(
            merged_sum=("sum", "sum"), merged_energy=("energy", "sum"),
            merged_min=("min", "min"), merged_max=("max", "max"),
            m_nt=("n_turns", "sum"),
        )
        df = df.merge(agg, left_on="window_start", right_index=True, how="left")
        frames.append(df)
    ref = pd.concat(frames, ignore_index=True)
    assert len(got) == len(ref)
    g = got.sort_values(["conv_id", "window_start"]).reset_index(drop=True)
    r = ref.sort_values(["conv_id", "window_start"]).reset_index(drop=True)
    assert (g["conv_id"] == r["conv_id"]).all()
    assert (g["window_start"] == r["window_start"]).all()
    # point-series features ride the SAME dense mean series → bit-identical
    # (cascade output's bare min/max are the MERGED values, checked below)
    for col in ("mean", "median", "variance"):
        assert np.array_equal(g[col].to_numpy(), r[col].to_numpy(), equal_nan=True), col
    assert (g["n_points"] == r["n_turns"]).all()
    # merged aggregates from present rows (all-gap windows → NaN/0)
    nt = r["m_nt"].fillna(0).to_numpy()
    assert np.array_equal(g["n_turns"].to_numpy(), nt.astype(np.int64))
    assert (g.loc[nt == 0, "n_gap_filled"] == g.loc[nt == 0, "n_points"]).all()
    pres = nt > 0
    for col in ("merged_sum", "merged_energy"):
        assert np.allclose(g.loc[pres, col], r.loc[pres, col], rtol=1e-12), col
        assert np.allclose(g.loc[~pres, col], 0.0), col
    for col in ("merged_min", "merged_max"):
        assert np.array_equal(g.loc[pres, col].to_numpy(), r.loc[pres, col].to_numpy()), col
        assert g.loc[~pres, col].isna().all(), col
    assert np.allclose(g.loc[pres, "merged_mean"], r.loc[pres, "merged_sum"] / nt[pres], rtol=1e-12)
    assert g.loc[~pres, "merged_mean"].isna().all()


def test_cascade_block_sparse_regime():
    """Fixed-seed sparse multi-conv block: long gaps, skewed spans,
    single-point convs."""
    t1m = _make_cascade_block({"a": 1, "b": 2, "c": 37, "d": 5},
                              base=1_700_000_000_000_000, span_minutes=3 * 24 * 60, seed=11)
    _check_cascade_vs_reference(t1m, ("a", "b", "c", "d"))


def test_cascade_block_property():
    """Property sweep: random conv counts/sizes/densities, INCLUDING
    pre-epoch (negative) window_starts — the sparse output-row indexing is
    pure floor-division arithmetic and must mirror the kernel's segmentation
    for any sign (cascade_block carries its own defensive count assertion)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_convs=st.integers(1, 5),
        span=st.sampled_from([90, 600, 2880]),
        pre_epoch=st.booleans(),
    )
    def run(seed, n_convs, span, pre_epoch):
        rng = np.random.default_rng(seed)
        sizes = {f"c{i:02d}": int(rng.integers(1, min(40, span))) for i in range(n_convs)}
        base = -(5 * 24 * HOUR_US) if pre_epoch else 1_700_000_000_000_000
        t1m = _make_cascade_block(sizes, base=base, span_minutes=span, seed=seed)
        _check_cascade_vs_reference(t1m, sorted(sizes))

    run()


def test_pre_epoch_bucket_salting_no_window_split(ray_session, tmp_path):
    """Pre-epoch (negative) timestamps: every time grid must FLOOR-divide.
    Truncating division (pc.divide) maps ts=-bucket_us and ts=-bucket_us+1
    into different buckets; a window grid that truncated the same way would
    split one tumbling window into two rows — the pipeline must emit
    exactly one (conv, window) row per floored 1m window."""
    import ray.data as rd

    from chronoxtract_ray.stages.derive import derive_batch
    from chronoxtract_ray.stages.rollup import RollupConfig

    # turns straddling the bucket boundary at -HOUR_US and at 0, plus a
    # plainly pre-epoch window interior
    ts_list = [-HOUR_US - 30_000_000, -HOUR_US, -HOUR_US + 30_000_000,
               -90_000_000, -30_000_000, -1, 0, 30_000_000]
    n = len(ts_list)
    tbl = pa.table(
        {
            "conv_id": pa.array(["c"] * n, pa.string()),
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array([f"t{i}" for i in range(n)], pa.string()),
            "tool": pa.array([""] * n, pa.string()),
            "ts": pa.array(ts_list, pa.timestamp("us")),
        }
    )
    d = derive_batch(tbl, HOUR_US)
    assert np.array_equal(
        d["bucket"].to_numpy(), (d["ts_us"].to_numpy() // HOUR_US) * HOUR_US
    )
    spec = FeatureSpec(order_stats=False, entropy=False, fft=False, shape=False, hjorth=False)
    cfg = PipelineConfig(num_parts=4, rollup=RollupConfig(spec=spec), cascade_spec=spec)
    run_rollup_pipeline(rd.from_arrow(tbl), str(tmp_path), cfg)
    out = tier_table(str(tmp_path), "1m").to_pandas()
    keys = list(zip(out["conv_id"], out["window_start"]))
    assert len(keys) == len(set(keys)), "duplicate (conv, window) rows — bucket straddle"
    # oracle: floor-division window counts
    ref = pd.Series([(t // MINUTE_US) * MINUTE_US for t in ts_list]).value_counts()
    got = out.set_index("window_start")["n_turns"]
    assert len(got) == len(ref)
    for ws, cnt in ref.items():
        assert got[ws] == cnt


def test_custom_feature_registry(ray_session, tmp_path):
    """register_feature → RollupConfig.extra_features → 1m tier column
    written by run_rollup_pipeline."""
    import ray.data as rd

    from chronoxtract_ray.stages.rollup import RollupConfig

    k.register_feature("p90_minus_p10", lambda v: float(np.percentile(v, 90) - np.percentile(v, 10)))
    tbl = generate_table(4, base_turns=20, hot_every=0)
    cfg = PipelineConfig(num_parts=2, rollup=RollupConfig(extra_features=("p90_minus_p10",)))
    run_rollup_pipeline(rd.from_arrow(tbl), str(tmp_path), cfg)
    out = tier_table(str(tmp_path), "1m").to_pandas()
    assert len(out) > 0
    assert "p90_minus_p10" in out.columns
    assert np.isfinite(out["p90_minus_p10"]).all()
    assert (out["p90_minus_p10"] >= 0).all()


def test_gorilla_chunks_decode_to_tier_points(pipeline_run):
    tbl, _ = pipeline_run
    for tier in ("1m", "1h", "1d"):
        t = tier_table(OUT, tier)
        ch = tier_table(os.path.join(OUT, "chunks"), tier)
        drop = [c for c in ("tier", "part") if c in ch.column_names]
        pts = decode_chunks(ch.drop_columns(drop) if drop else ch)
        pts = pts.sort_by([("conv_id", "ascending"), ("window_start", "ascending")])
        assert pts.num_rows == t.num_rows
        assert np.array_equal(pts["window_start"].to_numpy(), t["window_start"].to_numpy())
        assert np.array_equal(pts["value"].to_numpy(), t["mean"].to_numpy())


def test_hot_conversation_salted_consistency(pipeline_run):
    """Hot convs (hot_every=5) span many hours and land whole in their
    partition; their windows must be complete and correct — checked
    implicitly by the oracle test, and here: window count equals oracle
    count per hot conv."""
    tbl, _ = pipeline_run
    t1m = tier_table(OUT, "1m").to_pandas()
    df = _oracle_windows(tbl, MINUTE_US)
    for conv in ("conv-00000000", "conv-00000005"):
        eng = t1m[t1m["conv_id"] == conv]
        orc = df[df["conv_id"] == conv].groupby("window_start").size()
        assert len(eng) == len(orc)
