"""Independent oracle for the benchmark's checks.

Works from the generated turns (conv_id, ts_us, value) alone, where value is
the text's length in characters, as the generator chose it. It never calls
the engine: no derive, no window kernel, no cascade. Input values are
integers, so counts, sums, extremes, energies and means are exact and must
match the engine bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

__all__ = ["window_stats", "coarse_grid", "quantiles", "sample_entropy", "expected_drops"]

STAT_COLS = ("n_turns", "sum", "min", "max", "energy", "mean")


def window_stats(conv_id, ts_us, value, width_us: int) -> pd.DataFrame:
    """Per (conv_id, window_start) of the windows that hold turns:
    n_turns, sum, min, max, energy (sum of squares) and mean, sorted by
    (conv_id, window_start)."""
    v = np.asarray(value, dtype=np.int64)
    df = pd.DataFrame(
        {
            "conv_id": np.asarray(conv_id, dtype=object),
            "window_start": (np.asarray(ts_us, dtype=np.int64) // width_us) * width_us,
            "v": v,
            "v2": v * v,
        }
    )
    out = (
        df.groupby(["conv_id", "window_start"], sort=True)
        .agg(n_turns=("v", "size"), sum=("v", "sum"), min=("v", "min"), max=("v", "max"), energy=("v2", "sum"))
        .reset_index()
    )
    for c in ("sum", "min", "max", "energy"):
        out[c] = out[c].astype(np.float64)
    out["mean"] = out["sum"] / out["n_turns"].astype(np.float64)
    return out


def coarse_grid(conv_id, ts_us, value, fine_us: int, coarse_us: int) -> pd.DataFrame:
    """A coarse tier as the method defines it: per conversation, EVERY
    coarse window from the one holding its first turn to the one holding its
    last (the dense grid), with the turn statistics of each (0 turns: sums 0,
    extremes and mean NaN) and ``n_points``, the number of fine-grid slots
    between the conversation's first and last fine window that fall inside
    the coarse window."""
    stats = window_stats(conv_id, ts_us, value, coarse_us)
    ts = pd.Series(np.asarray(ts_us, dtype=np.int64)).groupby(np.asarray(conv_id, dtype=object), sort=True)
    first, last = ts.min(), ts.max()
    convs = first.index.to_numpy()
    lo, hi = (first.to_numpy() // coarse_us) * coarse_us, (last.to_numpy() // coarse_us) * coarse_us
    lens = (hi - lo) // coarse_us + 1
    within = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    ws = np.repeat(lo, lens) + within * coarse_us
    f_first = np.repeat((first.to_numpy() // fine_us) * fine_us, lens)
    f_end = np.repeat((last.to_numpy() // fine_us) * fine_us + fine_us, lens)
    grid = pd.DataFrame(
        {
            "conv_id": np.repeat(convs, lens),
            "window_start": ws,
            "n_points": (np.minimum(ws + coarse_us, f_end) - np.maximum(ws, f_first)) // fine_us,
        }
    )
    out = grid.merge(stats, on=["conv_id", "window_start"], how="left", validate="one_to_one")
    out["n_turns"] = out["n_turns"].fillna(0).astype(np.int64)
    out["sum"] = out["sum"].fillna(0.0)
    out["energy"] = out["energy"].fillna(0.0)
    return out


def quantiles(x) -> tuple[float, float, float]:
    """(q25, median, q75) by NumPy's default (linear) rule."""
    q = np.quantile(np.asarray(x, dtype=np.float64), [0.25, 0.5, 0.75])
    return float(q[0]), float(q[1]), float(q[2])


def _pair_distances(x, length: int) -> list[float]:
    """Chebyshev distances of every i<j pair of length-``length`` templates
    (templates start at every i in 0..n-length)."""
    t = len(x) - length + 1
    return [max(abs(x[i + k] - x[j + k]) for k in range(length)) for i in range(t) for j in range(i + 1, t)]


def sample_entropy(x, m: int, r: float) -> tuple[float, float]:
    """Sample entropy by the reference definition, computed directly:
    B = i<j pairs of length-m templates within r (Chebyshev), A = the same
    for length m+1, SampEn = -ln((A / (n-m-1)) / (B / (n-m))), +inf when A
    or B is 0. Needs n >= m+2. Also returns the smallest distance between r
    and any pairwise distance, since ``<= r`` is discontinuous there."""
    x = [float(v) for v in x]
    n = len(x)
    if n < m + 2:
        raise ValueError("need at least m+2 points")
    dm, dm1 = _pair_distances(x, m), _pair_distances(x, m + 1)
    b = sum(d <= r for d in dm)
    a = sum(d <= r for d in dm1)
    margin = min(abs(d - r) for d in dm + dm1)
    if a == 0 or b == 0:
        return math.inf, margin
    return -math.log((a / (n - m - 1)) / (b / (n - m))), margin


def expected_drops(stream) -> int:
    """Turns the ingest phase must drop: every replayed turn was already
    ingested (by the history rollup or an earlier batch), so it is late or
    a duplicate; no fresh turn is, because the cuts fall on minute
    boundaries."""
    return stream.n_replayed
