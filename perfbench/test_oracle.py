"""Tests of the benchmark's oracle on hand-made inputs with known answers.

    python3 -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import coarse_grid, expected_drops, quantiles, sample_entropy, window_stats  # noqa: E402
from workloads import MINUTE_US, generate  # noqa: E402

T0 = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z, on every window grid
HOUR_US = 60 * MINUTE_US
DAY_US = 24 * HOUR_US


def test_window_stats_fixture_series():
    # FIXTURES.md: [1,2,2,3,4,5] has sum 17, energy 59, mean 2.8333333333333335
    ts = T0 + np.arange(6) * 5_000_000
    out = window_stats(["c"] * 6, ts, [1, 2, 2, 3, 4, 5], MINUTE_US)
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["n_turns"], row["sum"], row["min"], row["max"], row["energy"]) == (6, 17.0, 1.0, 5.0, 59.0)
    assert row["mean"] == 2.8333333333333335
    assert quantiles([1, 2, 2, 3, 4, 5]) == (2.0, 2.5, 3.75)


def test_window_stats_splits_on_window_and_conversation():
    ts = [T0, T0 + 59_999_999, T0 + MINUTE_US, T0]
    out = window_stats(["b", "b", "b", "a"], ts, [3, 4, 5, 7], MINUTE_US)
    assert out["conv_id"].tolist() == ["a", "b", "b"]
    assert out["window_start"].tolist() == [T0, T0, T0 + MINUTE_US]
    assert out["n_turns"].tolist() == [1, 2, 1]
    assert out["sum"].tolist() == [7.0, 7.0, 5.0]
    assert out["energy"].tolist() == [49.0, 25.0, 25.0]


def test_coarse_grid_is_dense_with_point_counts():
    # turns at 00:00:10 and 02:30:05: hours 0, 1 (empty) and 2; minutes 0..150
    ts = [T0 + 10_000_000, T0 + 150 * MINUTE_US + 5_000_000]
    h = coarse_grid(["c", "c"], ts, [4, 6], MINUTE_US, HOUR_US)
    assert h["window_start"].tolist() == [T0, T0 + HOUR_US, T0 + 2 * HOUR_US]
    assert h["n_turns"].tolist() == [1, 0, 1]
    assert h["sum"].tolist() == [4.0, 0.0, 6.0]
    assert h["n_points"].tolist() == [60, 60, 31]
    assert math.isnan(h["mean"][1]) and math.isnan(h["min"][1]) and math.isnan(h["max"][1])
    d = coarse_grid(["c", "c"], ts, [4, 6], HOUR_US, DAY_US)
    assert d["n_points"].tolist() == [3]
    assert (d["n_turns"][0], d["sum"][0], d["energy"][0], d["mean"][0]) == (2, 10.0, 52.0, 5.0)


def test_sample_entropy_direct_definition():
    # length-2 templates: three [1,2] and two [2,1] -> B = 3 + 1 = 4 pairs;
    # length-3 templates: two [1,2,1] and two [2,1,2] -> A = 2 pairs;
    # SampEn = -ln((2/3) / (4/4))
    se, margin = sample_entropy([1, 2, 1, 2, 1, 2], 2, 0.5)
    assert se == -math.log((2 / 3) / (4 / 4))
    assert margin == 0.5
    assert sample_entropy([1, 2, 3, 4, 5], 2, 0.5)[0] == math.inf


def test_expected_drops_are_the_replays_and_cuts_fall_on_minutes():
    s = generate("live_tail", 3)
    assert expected_drops(s) == sum(r.size for r in s.replays) > 0
    ts = s.turns["ts_us"]
    for k in range(1, s.n_batches + 1):
        first = ts[s.part_of == k].min()
        assert ts[s.part_of < k].max() < first
        assert np.all(s.part_of[s.replays[k - 1]] < k)  # replays were ingested before
    cut_minutes = [ts[s.part_of == k].min() // MINUTE_US for k in range(1, s.n_batches + 1)]
    for k, m in enumerate(cut_minutes, start=1):
        assert ts[s.part_of < k].max() < m * MINUTE_US
