"""Tier cascade: fine-tier points → gap-filled points → coarser-tier rows.

Semantics (SURVEY.md §4.3, FIXTURES.md §3):

- gap-fill: per conversation, every missing fine window between the first and
  last present window gets a synthetic point with ``mean`` linearly
  interpolated between its present neighbors, ``n_turns = 0``; gap points
  participate in the coarser tier's POINT-SERIES features but not in its
  exact merged aggregates.
- coarser tier rows carry two families:
  * point-series features (``mean``, ``median``, entropy, ... of the fine
    tier's mean series) — the north star's "continuous aggregates ...
    cascaded on rolled-up points"; computed by the same fused kernel.
  * exact merged moments (``merged_*``) recombined from the fine tier's raw
    power sums (s1..s4, min, max, n) — identical to a direct rollup of the
    raw turns over the coarse window, asserted in tests.

The pipeline runs ``cascade_block`` inside its writer stages, on the 1m
rows of one partition-aligned block (pipelines/rollup_pipeline.py); the
block sorts itself. The block function gap-fills and re-aggregates EVERY
conversation in the block vectorized — no per-conversation Python
dispatch. Only the ``mean`` series is materialized on the dense slot grid
(the point-series features consume every interpolated point by
definition); the exact merged
aggregates accumulate straight from the PRESENT rows via ``ufunc.at``
(gap slots contribute the float identity — 0 to sums, ±inf to min/max —
so densifying them was pure memory traffic). Gap density is
data-dependent: a sparse event stream can be <1% dense (measured 0.16%
on the sf0.1 events table — 63M slots for 100k points), which made the
old eight-column dense scatter the cascade's bandwidth hot spot.
NOTE the one observable change vs the dense form: float SUM order within
a coarse window (reduceat's blocked reduction → sequential present-row
accumulation); values agree to 1 ulp and both sides of every oracle are
checked at 6-dp rounding.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from chronoxtract_ray.kernels.windowed import FeatureSpec, compute_windowed_features

__all__ = ["gap_fill_group", "cascade_block"]


def gap_fill_group(tbl: pa.Table, width_us: int) -> pa.Table:
    """Insert interpolated rows for missing windows of ONE conversation
    (single-group helper used by queries and tests; the pipeline path is the
    vectorized cascade_block)."""
    win = tbl["window_start"].to_numpy()
    order = np.argsort(win, kind="stable")
    win = win[order]
    mean = tbl["mean"].to_numpy()[order]
    if win.size == 0:
        return tbl.append_column("gap_filled", pa.array(np.empty(0, dtype=bool)))
    full = np.arange(win[0], win[-1] + width_us, width_us, dtype=np.int64)
    present = np.isin(full, win)
    # EXACTLY the SQL oracle's arithmetic, association included:
    # y0 + ((y1-y0) * (x-x0)) / (x1-x0)  — SQL `a + b*c/d` parses as
    # a + ((b*c)/d); frac-first or np.interp's slope-form each differ by
    # 1 ulp on values that land on .5e-6 rounding boundaries
    nxt_i = np.searchsorted(win, full, side="left")
    prev_i = np.maximum(np.searchsorted(win, full, side="right") - 1, 0)
    nxt_i = np.minimum(nxt_i, win.size - 1)
    x0 = win[prev_i].astype(np.float64)
    x1 = win[nxt_i].astype(np.float64)
    dx = np.where(x1 > x0, x1 - x0, 1.0)
    src_idx = nxt_i  # == searchsorted(win, full): valid where present
    filled_mean = mean[prev_i] + (mean[nxt_i] - mean[prev_i]) * (full.astype(np.float64) - x0) / dx
    filled_mean[present] = mean[src_idx[present]]
    n_rows = full.size
    cols: dict[str, pa.Array] = {}
    for name in tbl.column_names:
        arr = tbl[name].to_numpy(zero_copy_only=False)[order]
        if name == "conv_id":
            cols[name] = pa.array(np.repeat(arr[0], n_rows), pa.string())
        elif name == "window_start":
            cols[name] = pa.array(full, pa.int64())
        elif name == "n_turns":
            vals = np.zeros(n_rows, dtype=np.int64)
            vals[present] = arr[src_idx[present]]
            cols[name] = pa.array(vals, pa.int64())
        elif name == "mean":
            cols[name] = pa.array(filled_mean, pa.float64())
        elif name == "text_checksum":
            vals = np.zeros(n_rows, dtype=np.uint64)
            vals[present] = arr[src_idx[present]]
            cols[name] = pa.array(vals, pa.uint64())
        else:
            vals = np.full(n_rows, np.nan)
            vals[present] = arr[src_idx[present]]
            cols[name] = pa.array(vals, pa.float64())
    cols["gap_filled"] = pa.array(~present)
    return pa.table(cols)


def _gap_fill_block(tbl: pa.Table, width_us: int):
    """Vectorized gap-fill of a whole sorted block of tier points.

    Only the ``mean`` series is materialized on the dense slot grid (the
    point-series features genuinely consume every interpolated point); all
    other columns stay SPARSE — ``cascade_block`` merges them straight from
    the present rows. Gap density is data-dependent (sparse event streams
    can be <1% dense), so densifying eight columns was the cascade's memory
    and bandwidth hot spot at scale.

    Returns (dense mean, dense series codes, conv names, dense window
    starts, the sorted input table, ``pos`` — each present row's dense slot
    index, ``codes_s`` — each present row's conv code, ``firsts``/``lasts``
    — per-conv first/last present window)."""
    tbl = tbl.sort_by([("conv_id", "ascending"), ("window_start", "ascending")])
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    change = np.concatenate(([False], conv[1:] != conv[:-1]))
    codes_s = np.cumsum(change)
    win_s = tbl["window_start"].to_numpy()
    conv_starts = np.concatenate(([0], np.flatnonzero(np.diff(codes_s)) + 1))
    conv_ends = np.concatenate((conv_starts[1:], [codes_s.size]))
    conv_names = conv[conv_starts]
    firsts = win_s[conv_starts]
    lasts = win_s[conv_ends - 1]
    lens = (lasts - firsts) // width_us + 1
    total = int(lens.sum())
    offsets = np.concatenate(([0], np.cumsum(lens)))[:-1]
    f_codes = np.repeat(np.arange(lens.size), lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
    f_win = np.repeat(firsts, lens) + within * width_us
    pos = offsets[codes_s] + (win_s - firsts[codes_s]) // width_us

    # dense mean: every slot is either present (scattered) or interior to a
    # gap run between two consecutive present slots of the SAME conv (conv
    # first/last are always present, and consecutive present slots that
    # straddle a conv boundary are dense-adjacent → run length 0), so
    # np.empty is fully overwritten
    mean_src = tbl["mean"].to_numpy()
    mean_f = np.empty(total, dtype=np.float64)
    mean_f[pos] = mean_src
    runlens = np.diff(pos) - 1  # gap slots strictly between present pairs
    gaps_total = int(runlens.sum()) if runlens.size else 0
    if gaps_total:
        run_ids = np.flatnonzero(runlens > 0)
        rl = runlens[run_ids]
        off = np.concatenate(([0], np.cumsum(rl)))[:-1]
        k = np.arange(gaps_total, dtype=np.int64) - np.repeat(off, rl) + 1
        g = np.repeat(pos[run_ids], rl) + k
        x0 = np.repeat(win_s[run_ids].astype(np.float64), rl)
        x1 = np.repeat(win_s[run_ids + 1].astype(np.float64), rl)
        y0 = np.repeat(mean_src[run_ids], rl)
        y1 = np.repeat(mean_src[run_ids + 1], rl)
        # mult-before-divide: same association as the SQL oracle (see
        # gap_fill_group) so cross-engine values are bit-identical
        mean_f[g] = y0 + (y1 - y0) * (f_win[g] - x0) / (x1 - x0)
    return mean_f, f_codes, conv_names, f_win, tbl, pos, codes_s, firsts, lasts


def cascade_block(tbl: pa.Table, fine_width_us: int, coarse_width_us: int, spec: FeatureSpec) -> pa.Table:
    """A whole block of fine-tier points (conversations contiguous) →
    coarse-tier rows, fully vectorized."""
    if tbl.num_rows == 0:
        return _empty_cascade_out(spec, with_checksum="text_checksum" in tbl.column_names)
    mean_f, f_codes, conv_names, f_win, tbl_s, pos, codes_s, firsts, lasts = _gap_fill_block(
        tbl, fine_width_us
    )
    out = compute_windowed_features(f_win, mean_f, coarse_width_us, spec, series_ids=f_codes)
    starts = out.pop("row_index")
    n_win = starts.size
    # exact merged aggregates, accumulated straight from the PRESENT rows
    # (gap slots contributed exactly 0 to sums and +/-inf to min/max, i.e.
    # the float identity — densifying them was pure memory traffic). Each
    # present row's output-row index is arithmetic: the dense grid emits
    # every coarse window from floor(first_c) to floor(last_c) per conv, in
    # conv-then-window order — exactly the kernel's segmentation.
    cw = coarse_width_us
    wf = (firsts // cw) * cw
    n_out_c = ((lasts // cw) * cw - wf) // cw + 1
    out_off = np.concatenate(([0], np.cumsum(n_out_c)))
    if out_off[-1] != n_win:  # defensive: sparse indexing must mirror the kernel
        raise AssertionError(f"cascade window count mismatch: {out_off[-1]} != {n_win}")
    win_s = tbl_s["window_start"].to_numpy()
    row_out = out_off[codes_s] + ((win_s // cw) * cw - wf[codes_s]) // cw

    def sparse_sum(src: np.ndarray) -> np.ndarray:
        acc = np.zeros(n_win, dtype=np.float64)
        np.add.at(acc, row_out, src)
        return acc

    merged = {c: sparse_sum(np.nan_to_num(tbl_s[c].to_numpy())) for c in ("sum", "energy", "sum3", "sum4")}
    merged_n = sparse_sum(tbl_s["n_turns"].to_numpy().astype(np.float64))
    merged_min = np.full(n_win, np.inf)
    np.minimum.at(merged_min, row_out, np.nan_to_num(tbl_s["min"].to_numpy(), nan=np.inf))
    merged_max = np.full(n_win, -np.inf)
    np.maximum.at(merged_max, row_out, np.nan_to_num(tbl_s["max"].to_numpy(), nan=-np.inf))
    with np.errstate(invalid="ignore", divide="ignore"):
        N = merged_n
        m1 = merged["sum"] / N
        m2 = merged["energy"] / N
        m3 = merged["sum3"] / N
        m4 = merged["sum4"] / N
        var = m2 - m1 * m1
        std = np.sqrt(var)
        gate = ~(std > 1e-9)
        mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        mskew = np.where(gate, np.nan, mu3 / var**1.5)
        mkurt = np.where(gate, np.nan, mu4 / (var * var) - 3.0)
    empty = N == 0
    arrays: dict[str, pa.Array] = {"conv_id": pa.array(conv_names[f_codes[starts]], pa.string())}
    for k, v in out.items():
        if k == "window_start":
            arrays[k] = pa.array(v, pa.int64())
        elif k == "n_turns":
            arrays["n_points"] = pa.array(v, pa.int64())  # count of fine points
        else:
            arrays[k] = pa.array(v, pa.float64())
    arrays["n_turns"] = pa.array(merged_n.astype(np.int64), pa.int64())
    arrays["merged_mean"] = pa.array(np.where(empty, np.nan, m1), pa.float64())
    arrays["merged_variance"] = pa.array(np.where(empty, np.nan, var), pa.float64())
    arrays["merged_std"] = pa.array(np.where(empty, np.nan, std), pa.float64())
    arrays["merged_skewness"] = pa.array(mskew, pa.float64())
    arrays["merged_kurtosis"] = pa.array(mkurt, pa.float64())
    arrays["merged_min"] = pa.array(np.where(empty, np.nan, merged_min), pa.float64())
    arrays["merged_max"] = pa.array(np.where(empty, np.nan, merged_max), pa.float64())
    arrays["merged_sum"] = pa.array(merged["sum"], pa.float64())
    arrays["merged_energy"] = pa.array(merged["energy"], pa.float64())
    # keep raw power sums mergeable for the NEXT tier
    arrays["sum"] = pa.array(merged["sum"], pa.float64())
    arrays["energy"] = pa.array(merged["energy"], pa.float64())
    arrays["sum3"] = pa.array(merged["sum3"], pa.float64())
    arrays["sum4"] = pa.array(merged["sum4"], pa.float64())
    arrays["min"] = pa.array(np.where(empty, np.nan, merged_min), pa.float64())
    arrays["max"] = pa.array(np.where(empty, np.nan, merged_max), pa.float64())
    if "text_checksum" in tbl_s.column_names:
        chk = np.zeros(n_win, dtype=np.uint64)
        np.add.at(chk, row_out, tbl_s["text_checksum"].to_numpy())
        arrays["text_checksum"] = pa.array(chk, pa.uint64())
    # gap slots per window = dense slots minus present rows (exact ints)
    n_present = np.zeros(n_win, dtype=np.int64)
    np.add.at(n_present, row_out, 1)
    arrays["n_gap_filled"] = pa.array(out["n_turns"] - n_present, pa.int64())
    return pa.table(arrays)


def _empty_cascade_out(spec: FeatureSpec, with_checksum: bool = True) -> pa.Table:
    # with_checksum must mirror the input tier's schema: cascade_block emits
    # text_checksum only when the input carries it, and an empty block with
    # a DIFFERENT column set than its non-empty siblings breaks downstream
    # schema unification (observed with with_checksum=False rollups)
    cols: dict[str, pa.Array] = {
        "conv_id": pa.array([], pa.string()),
        "window_start": pa.array([], pa.int64()),
        "n_points": pa.array([], pa.int64()),
        "n_turns": pa.array([], pa.int64()),
        "n_gap_filled": pa.array([], pa.int64()),
    }
    if with_checksum:
        cols["text_checksum"] = pa.array([], pa.uint64())
    for c in spec.feature_columns():
        cols[c] = pa.array([], pa.float64())
    for c in ("merged_mean", "merged_variance", "merged_std", "merged_skewness", "merged_kurtosis", "merged_min", "merged_max", "merged_sum", "merged_energy"):
        cols[c] = pa.array([], pa.float64())
    return pa.table(cols)
