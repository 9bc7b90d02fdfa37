"""Correctness checks of an engine store against the independent oracle and
against properties the method must have. Each check returns a list of
failure messages; an empty list means the store passed."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from oracle import coarse_grid, quantiles, sample_entropy, window_stats

__all__ = ["check_store", "check_tables_equal"]

MINUTE_US = 60_000_000
HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000
COARSE_COLS = {"n_turns": "n_turns", "sum": "merged_sum", "min": "merged_min", "max": "merged_max", "energy": "merged_energy", "mean": "merged_mean"}
ENTROPY_M = 2  # FeatureSpec default
R_FACTOR = 0.2  # FeatureSpec default


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return bool(np.array_equal(a.astype(np.float64), b.astype(np.float64), equal_nan=True))
    return bool(np.array_equal(a, b))


def _col(tbl, name) -> np.ndarray:
    return tbl[name].to_numpy(zero_copy_only=False)


def _compare(label: str, tbl, expect: pd.DataFrame, cols: dict) -> list[str]:
    if tbl.num_rows != len(expect):
        return [f"{label}: {tbl.num_rows} rows, oracle has {len(expect)}"]
    fails = []
    if not _same(_col(tbl, "conv_id"), expect["conv_id"].to_numpy()) or not _same(_col(tbl, "window_start"), expect["window_start"].to_numpy()):
        return [f"{label}: window keys differ from the oracle"]
    for ocol, ecol in cols.items():
        got, want = _col(tbl, ecol), expect[ocol].to_numpy()
        if not _same(got, want):
            bad = np.flatnonzero(~((got == want) | (np.isnan(got.astype(float)) & np.isnan(want.astype(float)))))
            fails.append(f"{label}: {ecol} differs from the oracle in {bad.size} rows (first at row {bad[0]}: {got[bad[0]]} != {want[bad[0]]})")
    return fails


def _windows_of(turns: pd.DataFrame):
    """Turns sorted by (conv_id, ts) and the start of each 1m window's run."""
    t = turns.sort_values(["conv_id", "ts_us"], kind="stable").reset_index(drop=True)
    ws = (t["ts_us"].to_numpy() // MINUTE_US) * MINUTE_US
    conv = t["conv_id"].to_numpy()
    change = np.concatenate(([True], (conv[1:] != conv[:-1]) | (ws[1:] != ws[:-1])))
    starts = np.flatnonzero(change)
    return t["value"].to_numpy(), starts, np.append(starts[1:], len(t))


def _sampled_windows(tbl_1m, turns: pd.DataFrame, rng: np.random.Generator) -> tuple[list[str], int]:
    """Median/quartiles of a seeded sample of 1m windows against
    ``np.quantile``; sample entropy of a seeded sample of windows with at
    least m+2 turns against the direct O(n^2) definition. Windows whose r
    lies within rounding of a pairwise distance are skipped."""
    fails = []
    values, starts, ends = _windows_of(turns)
    n = ends - starts
    if starts.size != tbl_1m.num_rows:
        return [f"1m: {tbl_1m.num_rows} windows, the turns form {starts.size}"], 0
    for i in rng.choice(starts.size, size=min(200, starts.size), replace=False):
        x = values[starts[i] : ends[i]]
        want = quantiles(x)
        got = tuple(float(tbl_1m[c][int(i)].as_py()) for c in ("q25", "median", "q75"))
        if got != want:
            fails.append(f"1m window {i}: (q25, median, q75) {got} != np.quantile {want}")
    cand = np.flatnonzero(n >= ENTROPY_M + 2)
    checked = 0
    for i in rng.choice(cand, size=min(40, cand.size), replace=False) if cand.size else []:
        x = values[starts[i] : ends[i]].astype(np.float64)
        r = R_FACTOR * float(np.std(x))
        if r <= 0.0:
            continue
        want, margin = sample_entropy(x, ENTROPY_M, r)
        if margin <= 1e-9 * max(r, 1.0):
            continue
        got = float(tbl_1m["sample_entropy"][int(i)].as_py())
        checked += 1
        if not (got == want or (math.isfinite(want) and abs(got - want) <= 1e-12 * abs(want))):
            fails.append(f"1m window {i}: sample_entropy {got} != direct definition {want}")
    return fails, checked


def check_store(turns: pd.DataFrame, read: dict, seed: int) -> tuple[list[str], dict]:
    """``turns``: every turn the store should hold (conv_id, ts_us, value).
    ``read``: tier -> (tier table, decoded chunks, chunk table) from the
    read phase."""
    fails: list[str] = []
    conv, ts, val = turns["conv_id"].to_numpy(), turns["ts_us"].to_numpy(), turns["value"].to_numpy()
    n_turns = len(turns)
    tbl = read["1m"][0]
    fails += _compare("1m", tbl, window_stats(conv, ts, val, MINUTE_US), {c: c for c in COARSE_COLS})
    for tier, fine, coarse in (("1h", MINUTE_US, HOUR_US), ("1d", HOUR_US, DAY_US)):
        grid = coarse_grid(conv, ts, val, fine, coarse)
        fails += _compare(tier, read[tier][0], grid, dict(COARSE_COLS, n_points="n_points"))
    for tier, (tbl, dec, _) in read.items():
        stored = int(_col(tbl, "n_turns").sum()) if tbl.num_rows else 0
        if stored != n_turns:
            fails.append(f"{tier}: holds {stored} turns, {n_turns} went in")
        if not (
            _same(_col(dec, "conv_id"), _col(tbl, "conv_id"))
            and _same(_col(dec, "window_start"), _col(tbl, "window_start"))
            and np.array_equal(_col(dec, "value").view(np.uint64), _col(tbl, "mean").view(np.uint64))
        ):
            fails.append(f"{tier}: decoded Gorilla chunks do not reproduce window_start and mean bit for bit")
    sample_fails, checked = _sampled_windows(read["1m"][0], turns, np.random.default_rng(seed + 7))
    fails += sample_fails
    return fails, {"sampen_windows_checked": checked}


def check_tables_equal(a: dict, b: dict) -> list[str]:
    """Two stores' tier and chunk tables, bit for bit."""
    fails = []
    for key in sorted(a):
        x, y = a[key], b[key]
        if x.column_names != y.column_names or x.num_rows != y.num_rows:
            fails.append(f"{key}: shapes differ")
            continue
        for c in x.column_names:
            u, v = _col(x, c), _col(y, c)
            if u.dtype.kind == "f":
                u, v = u.view(np.uint64), v.view(np.uint64)
            if not (np.array_equal(u, v) if u.dtype.kind != "O" else all(p == q for p, q in zip(u, v))):
                fails.append(f"{key}: column {c} differs")
    return fails
