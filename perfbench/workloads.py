"""Seeded input generators for the three benchmark workloads.

Every workload is a time-ordered stream of transcript turns, cut into a
history (rolled up by ``run_rollup_pipeline``) and equal-sized tail batches
(merged one after another by ``run_incremental_ingest``). Cuts fall on minute
boundaries, so with the engine's lateness rule (a turn is late when it is
before its partition's open window) no fresh tail turn is ever late. A batch
may carry replayed turns: exact copies of turns that were already ingested,
which the engine must drop as late or duplicate.

The generator keeps every turn's value (the text's length in characters)
next to the tables it writes, so the oracle never needs the engine's derive
step. The same seed always gives the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

__all__ = ["WORKLOADS", "Stream", "generate"]

BASE_TS_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
MINUTE_US = 60_000_000
HOUR_US = 3_600_000_000
# non-ASCII characters make the byte length differ from the character length
_ALPHABET = "abcdefghij klmnopqrst uvwxyz éüß 0123456789 ⟨⟩ "
_TEXT = (_ALPHABET * (4096 // len(_ALPHABET) + 1))[:4096]
_ROLES = np.array(["user", "assistant", "tool"])
_TOOLS = np.array(["", "search", "python", "browser"])


@dataclass
class Stream:
    """One workload's generated input.

    ``turns`` holds every distinct turn (conv_id, turn_idx, ts_us, value,
    role, tool) sorted by time; ``part_of`` maps each turn to 0 (history) or
    k (tail batch k, 1-based). ``replays[k-1]`` indexes the turns batch k
    carries a second time."""

    name: str
    turns: dict
    part_of: np.ndarray
    n_batches: int
    replays: list

    def table(self, rows: np.ndarray) -> pa.Table:
        t = self.turns
        text = [_TEXT[:n] for n in t["value"][rows].tolist()]
        return pa.table(
            {
                "conv_id": pa.array(t["conv_id"][rows], pa.string()),
                "turn_idx": pa.array(t["turn_idx"][rows], pa.int32()),
                "role": pa.array(t["role"][rows], pa.string()),
                "text": pa.array(text, pa.string()),
                "tool": pa.array(t["tool"][rows], pa.string()),
                "ts": pa.array(t["ts_us"][rows], pa.timestamp("us")),
            }
        )

    def history_rows(self) -> np.ndarray:
        return np.flatnonzero(self.part_of == 0)

    def batch_rows(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Rows of tail batch ``k`` (1-based): its fresh turns plus its
        replays, in shuffled order."""
        rows = np.concatenate((np.flatnonzero(self.part_of == k), self.replays[k - 1]))
        return rows[rng.permutation(rows.size)]

    @property
    def n_replayed(self) -> int:
        return int(sum(r.size for r in self.replays))


def _assemble(name, conv_of, ts_us, value, rng, n_batches, tail_share, replay_share=0.0):
    """Sort the turns by time, number them per conversation, and cut the
    stream into a history and ``n_batches`` equal tail batches on minute
    boundaries."""
    order = np.lexsort((value, ts_us, conv_of))
    conv_of, ts_us, value = conv_of[order], ts_us[order], value[order]
    starts = np.flatnonzero(np.concatenate(([True], conv_of[1:] != conv_of[:-1])))
    turn_idx = np.arange(conv_of.size) - np.repeat(starts, np.diff(np.append(starts, conv_of.size)))
    order = np.argsort(ts_us, kind="stable")
    conv_of, ts_us, value, turn_idx = conv_of[order], ts_us[order], value[order], turn_idx[order]
    n = ts_us.size
    qs = 1.0 - tail_share * (1.0 - np.arange(n_batches + 1) / n_batches)
    cuts = (ts_us[np.minimum((qs[:-1] * n).astype(np.int64), n - 1)] // MINUTE_US) * MINUTE_US
    part_of = np.searchsorted(cuts, ts_us, side="right").astype(np.int64)
    replays = []
    for k in range(1, n_batches + 1):
        done = np.flatnonzero(part_of < k)
        want = int(round(replay_share * np.count_nonzero(part_of == k)))
        replays.append(np.sort(rng.choice(done, size=want, replace=False)) if want else np.empty(0, np.int64))
    turns = {
        "conv_id": np.array([f"{name}-{c:05d}" for c in range(conv_of.max() + 1)], dtype=object)[conv_of],
        "turn_idx": turn_idx.astype(np.int32),
        "ts_us": ts_us.astype(np.int64),
        "value": value.astype(np.int64),
        "role": _ROLES[turn_idx % 3],
        "tool": np.where(turn_idx % 3 == 2, _TOOLS[1 + (conv_of + turn_idx) % 3], _TOOLS[0]),
    }
    return Stream(name, turns, part_of, n_batches, replays)


def _lengths(rng, n):
    """Text lengths in characters: short user turns, long assistant turns."""
    long_turn = rng.random(n) < 0.5
    return np.where(long_turn, rng.integers(40, 600, n), rng.integers(1, 120, n))


def _spread_starts(rng, n: int, span_us: int) -> np.ndarray:
    """``n`` start times over ``span_us``, one in each of ``n`` equal slots
    (in random slot order), so that every seed gives the stream the same
    shape: the same number of conversations is active at every hour."""
    slot = span_us // n
    return BASE_TS_US + rng.permutation(n) * slot + rng.integers(0, slot, n)


def chat_sessions(rng: np.random.Generator) -> Stream:
    """2,400 short conversations of 10-50 turns 20-30 s apart, starting over
    48 h, 12 of them 100x hot (2,850-3,150 turns, starting in the first
    24 h so that they end before the stream does); 6% of the turns go to
    three small tail batches."""
    n_convs, n_hot = 2400, 12
    n_turns = rng.integers(10, 51, n_convs)
    hot = np.zeros(n_convs, dtype=bool)
    hot[rng.choice(n_convs, n_hot, replace=False)] = True
    n_turns[hot] = rng.integers(2850, 3151, n_hot)
    conv_of = np.repeat(np.arange(n_convs), n_turns)
    start = np.empty(n_convs, dtype=np.int64)
    start[~hot] = _spread_starts(rng, n_convs - n_hot, 48 * HOUR_US)
    start[hot] = _spread_starts(rng, n_hot, 24 * HOUR_US)
    gaps = rng.integers(20_000_000, 30_000_000, conv_of.size)
    ts = np.repeat(start, n_turns) + _within_conv_cumsum(gaps, n_turns)
    return _assemble("chat", conv_of, ts, _lengths(rng, conv_of.size), rng, n_batches=3, tail_share=0.06)


def agent_runs(rng: np.random.Generator) -> Stream:
    """40 agent conversations of 2,400-2,600 turns over a day or two. The
    agent works in steps 35-55 s apart, each a model turn followed by 1-2
    tool calls 1 s apart (a step starts on 2 turns in 5), so every minute
    of a working stretch holds turns and the 1m grid is dense; four 2-8 h
    idle holes per conversation, all in the first three quarters of it,
    split it into stretches of hours. Every conversation ends within the
    stream's last minutes, so each tail batch touches all of them; 6% of the
    turns go to three tail batches."""
    n_convs, n_holes = 40, 4
    n_turns = rng.integers(2400, 2601, n_convs)
    conv_of = np.repeat(np.arange(n_convs), n_turns)
    n = conv_of.size
    step_start = rng.random(n) < 0.4
    # steps under a minute apart leave no empty minute inside a stretch
    gaps = np.where(step_start, rng.integers(35_000_000, 55_000_000, n), rng.integers(900_000, 1_100_000, n))
    first = np.cumsum(n_turns) - n_turns
    for c in range(n_convs):
        at = first[c] + 1 + rng.choice(3 * n_turns[c] // 4, n_holes, replace=False)
        gaps[at] = rng.integers(2 * HOUR_US, 8 * HOUR_US, n_holes)
    rel = _within_conv_cumsum(gaps, n_turns)
    last = rel[np.cumsum(n_turns) - 1]
    end = BASE_TS_US + 72 * HOUR_US - rng.integers(0, 10 * MINUTE_US, n_convs)
    ts = np.repeat(end - last, n_turns) + rel
    return _assemble("agent", conv_of, ts, _lengths(rng, n), rng, n_batches=3, tail_share=0.06)


def live_tail(rng: np.random.Generator) -> Stream:
    """200 conversations that all run for the whole 6-hour stream, a turn
    every 20-90 s; the first 25% is history, the rest three tail batches,
    each carrying 2% replayed turns."""
    n_convs = 200
    span = 6 * HOUR_US
    start = _spread_starts(rng, n_convs, 30 * MINUTE_US)
    mean_gap = 55_000_000
    n_turns = ((BASE_TS_US + span - start) // mean_gap).astype(np.int64)
    conv_of = np.repeat(np.arange(n_convs), n_turns)
    gaps = rng.integers(20_000_000, 90_000_000, conv_of.size)
    ts = np.repeat(start, n_turns) + _within_conv_cumsum(gaps, n_turns)
    return _assemble("live", conv_of, ts, _lengths(rng, conv_of.size), rng, n_batches=3, tail_share=0.75, replay_share=0.02)


def _within_conv_cumsum(gaps: np.ndarray, n_turns: np.ndarray) -> np.ndarray:
    """Per-conversation running sum of ``gaps`` that starts at 0."""
    c = np.cumsum(gaps)
    ends = np.cumsum(n_turns)
    offs = np.repeat(c[ends - n_turns], n_turns)
    return c - offs


WORKLOADS = {"chat_sessions": chat_sessions, "agent_runs": agent_runs, "live_tail": live_tail}


def generate(name: str, seed: int) -> Stream:
    return WORKLOADS[name](np.random.default_rng(seed))
