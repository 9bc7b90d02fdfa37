"""Rollup, live-ingest and read benchmark for chronoxtract_ray.

    python3 perfbench/run.py --workload chat_sessions --seed 1 --seconds 10 --trace 0

Generates the workload's Parquet input from the seed, then sets up a Ray
session twice (``ray.init`` plus one warm-up execution; ``setup_s`` is the
median) and keeps the second. Then it runs whole rounds until ``--seconds``
have passed (at least one). A round is a closed loop with one client, each
phase waiting for the one before:

1. rollup: ``run_rollup_pipeline`` over the history, twice, each time into
   a fresh store; the first store is checked against the oracle over the
   history turns (untimed) before it is removed;
2. ingest: ``run_incremental_ingest`` of each tail batch into the second
   store, one after another;
3. read: ``tier_table`` of every tier plus ``decode_chunks`` of its chunks,
   ``READS[workload]`` times;
4. checks against the independent oracle (untimed).

Each engine call runs under a timeout; a call that raises or times out
counts as a failed operation, and so does every later operation of the
run. ``--trace 1`` sets up once and runs one round in Ray with one
rollup and one read, then the same phases in a fresh process without Ray,
untraced and traced (inproc.py), and reports the per-layer metrics. The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

N_SETUPS = 2
ROLLUPS = 2
# reads per round: at least 3 s of reading on each workload, because the
# host's speed drifts over seconds and a median over a shorter window catches
# one fast or slow stretch; agent_runs reads are the shortest (0.5 s) and the
# most sensitive, so they get about 5 s
READS = {"chat_sessions": 3, "agent_runs": 10, "live_tail": 4}
NUM_CPUS = 4  # run_rollup_pipeline never finishes at 1 or 2 logical CPUs (README)
TIMEOUT_S = {"setup": 60, "rollup": 60, "ingest": 40, "read": 30, "inproc": 120}


class PhaseTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that no ``except Exception``
    inside the engine or Ray swallows it."""


class Phase:
    """Runs a callable under a wall-clock timeout (SIGALRM) and records
    attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.broken = False  # a failure ends the round: the rest is failed too

    def run(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        if self.broken:
            self.failed += 1
            return None

        def on_alarm(signum, frame):
            raise PhaseTimeout(f"{kind} exceeded {TIMEOUT_S[kind]} s")

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S[kind])
        try:
            return fn(*args, **kwargs)
        except (Exception, PhaseTimeout) as e:  # a failed engine call is counted, not fatal
            self.failed += 1
            self.broken = True
            self.errors.append(f"{kind}: {type(e).__name__}: {e}")
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def write_inputs(stream: workloads.Stream, layout: common.Layout, seed: int) -> None:
    import numpy as np
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed + 1)
    hist = stream.history_rows()
    os.makedirs(layout.history)
    pq.write_table(stream.table(hist), os.path.join(layout.history, "part-0.parquet"))
    os.makedirs(layout.warmup)
    pq.write_table(stream.table(hist[:300]), os.path.join(layout.warmup, "part-0.parquet"))
    for k in range(1, stream.n_batches + 1):
        os.makedirs(layout.batch(k))
        pq.write_table(stream.table(stream.batch_rows(k, rng)), os.path.join(layout.batch(k), "part-0.parquet"))


def ray_tmp() -> str:
    return os.path.join(os.path.abspath(".bench_work"), "ray")


def ray_start() -> None:
    import logging

    import ray
    from ray.data import DataContext

    # Unix socket paths are limited to 107 bytes and Ray adds ~65 to its temp
    # dir; a checkout path too long for that leaves Ray at its default
    tmp = ray_tmp()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=400 * 1024**2,
        _temp_dir=tmp if len(tmp) <= 42 else None,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def ray_sessions_cleanup() -> None:
    """Remove this process's Ray session directories (logs, sockets)."""
    import glob

    tmp = ray_tmp()
    for d in glob.glob(os.path.join(tmp, f"session_*_{os.getpid()}")):
        shutil.rmtree(d, ignore_errors=True)
    if os.path.islink(os.path.join(tmp, "session_latest")):
        os.remove(os.path.join(tmp, "session_latest"))


def setup(layout: common.Layout) -> None:
    """Start the session and run one warm-up execution: read and derive the
    warm-up input through Ray Data, which starts the worker processes and
    imports the engine in them."""
    from chronoxtract_ray.sources.transcripts import read_transcripts
    from chronoxtract_ray.stages.derive import make_derive

    ray_start()
    read_transcripts(layout.warmup).map_batches(make_derive(workloads.HOUR_US, num_parts=common.NUM_PARTS), batch_format="pyarrow").take_all()


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    res = fn(*args, **kwargs)
    return res, time.perf_counter() - t0


def ray_round(layout: common.Layout, phase: Phase, r: int, rollups: int, reads: int, check_rollup) -> dict | None:
    """One round in the Ray session: the history rolled up ``rollups`` times
    (each into a fresh store; the first is checked untimed by
    ``check_rollup(root)``, the last is kept), the tail batches ingested into
    it one after another, and the store read ``reads`` times."""
    from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline
    from chronoxtract_ray.stages.ingest import run_incremental_ingest

    cfg = PipelineConfig(num_parts=common.NUM_PARTS)
    out = {"rollup_s": [], "ingest_s": [], "read_s": [], "late": 0, "dup": 0, "fails": []}
    for i in range(rollups):
        root = layout.store(f"ray{r}-{i}")
        res = phase.run("rollup", timed, run_rollup_pipeline, layout.history, root, cfg)
        if res:
            out["rollup_s"].append(res[1])
            if i == 0:
                out["fails"] += [f"rolled-up store: {f}" for f in check_rollup(root)]
        if i + 1 < rollups:
            shutil.rmtree(root, ignore_errors=True)
    before = common.store_files(root)
    for k in range(1, layout.n_batches() + 1):
        res = phase.run("ingest", timed, run_incremental_ingest, layout.batch(k), root, cfg, batch_id=f"b{k}")
        if res:
            out["ingest_s"].append(res[1])
            out["late"] += res[0]["late_rows_dropped"]
            out["dup"] += res[0]["dup_rows_dropped"]
    after = common.store_files(root)
    out["ingest_bytes"] = common.created_bytes(before, after)
    out["store_bytes"] = common.bytes_of(after)
    for _ in range(reads):
        res = phase.run("read", common.read_phase, root)
        if res:
            out["read"] = res[0]
            out["read_s"].append(res[1])
    if phase.broken:
        return None
    out["root"] = root
    return out


def run_inproc(layout: common.Layout, traced: int) -> dict:
    """The phases in a fresh process without Ray; a timeout (SIGALRM in
    ``Phase.run``) makes ``subprocess.run`` kill and reap the child."""
    out = os.path.join(layout.work, f"inproc{traced}.json")
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), "--work", layout.work, "--store", f"inproc{traced}", "--traced", str(traced), "--out", out]
    if traced:
        cmd += ["--spans", spans_path(layout)]
    subprocess.run(cmd, check=True)
    with open(out) as f:
        return json.load(f)


def spans_path(layout: common.Layout) -> str:
    """Spans of the last traced run of a workload; kept after the run."""
    name = os.path.basename(layout.work).rsplit("-", 2)[0]
    return os.path.join(os.path.dirname(layout.work), f"spans-{name}.jsonl")


def tables_of(root: str) -> dict:
    from chronoxtract_ray.pipelines.rollup_pipeline import tier_table

    out = {}
    for tier in common.TIERS:
        out[f"tier={tier}"] = tier_table(root, tier)
        out[f"chunks/tier={tier}"] = tier_table(os.path.join(root, "chunks"), tier)
    return out


def per_layer_metrics(ray_res: dict, plain: dict, traced: dict) -> dict:
    """Every per-layer metric; a layer or count the traced run lacks is a
    KeyError, not a zero."""
    layers, counts = traced["coverage"]["layers"], traced["counts"]
    m = {metric: layers[span] for span, metric in tracer.LAYER_METRICS.items()}
    for t in ("1h", "1d"):
        m[f"cascade.gap_slots_{t}"] = counts[f"cascade.gap_slots_{t}"]
    for t in common.TIERS:
        m[f"gorilla.bits_per_point_{t}"] = traced[f"bits_per_point_{t}"]
        m[f"gorilla.points_per_chunk_{t}"] = traced[f"points_per_chunk_{t}"]
        m[f"checkpoint.tier_bytes_{t}"] = traced[f"tier_bytes_{t}"]
        m[f"checkpoint.chunk_bytes_{t}"] = traced[f"chunk_bytes_{t}"]
    m["ingest.bytes_written"] = traced["ingest_bytes_written"]
    m["ingest.segments_per_part"] = traced["segments_per_part"]
    m["ingest.late_rows"] = counts["ingest.late_rows"]
    m["ingest.dup_rows"] = counts["ingest.dup_rows"]
    m["ray.rollup_overhead_s"] = statistics.median(ray_res["rollup_s"]) - traced["phase_layer_s"]["rollup"]
    m["ray.ingest_overhead_s"] = sum(ray_res["ingest_s"]) - traced["phase_layer_s"]["ingest"]
    m["trace.peak_rss_mb"] = traced["peak_rss_mb"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["trace.unattributed_s"] = traced["coverage"]["unattributed_s"]
    return m


UNITS = {
    "setup_s": "s", "rollup_turns_per_s": "turns/s", "ingest_batch_s": "s", "read_s": "s",
    "store_bytes_per_turn": "bytes", "chunk_bits_per_point": "bits", "ingest_bytes_written_per_turn": "bytes",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("gorilla.bits_per_point"):
        return "bits"
    if "bytes" in name:
        return "bytes"
    if name == "trace.peak_rss_mb":
        return "MB"
    if name.startswith("gorilla.points_per_chunk") or name == "ingest.segments_per_part":
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    marks = [("start", time.perf_counter())]

    import pandas as pd

    from checks import check_store, check_tables_equal
    from oracle import expected_drops

    # Ray workers import the engine from the checkout; temp files stay in it
    checkout = os.getcwd()
    sys.path.insert(0, checkout)
    import chronoxtract_ray  # noqa: F401  (fail now, before any file or result, if the engine is absent)

    work = os.path.join(checkout, ".bench_work", f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (checkout, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    layout = common.Layout(work)
    stream = workloads.generate(a.workload, a.seed)
    write_inputs(stream, layout, a.seed)
    turns = pd.DataFrame({k: stream.turns[k] for k in ("conv_id", "ts_us", "value")})
    hist_turns = turns[stream.part_of == 0]
    n_hist = len(hist_turns)
    n_tail = len(turns) - n_hist
    marks.append(("inputs", time.perf_counter()))

    import ray

    phase = Phase()
    setup_s = []
    for i in range(1 if a.trace else N_SETUPS):
        if i:
            ray.shutdown()
        res = phase.run("setup", timed, setup, layout)
        if res:
            setup_s.append(res[1])
    fails: list[str] = []
    rounds = []

    def check_rollup(root: str) -> list[str]:
        read, _ = common.read_phase(root)
        return check_store(hist_turns, read, a.seed)[0]

    t_start = time.perf_counter()
    marks.append(("setups", t_start))
    while not phase.broken:
        # the traced run needs one of each for the Ray overhead it reports
        res = ray_round(layout, phase, len(rounds), 1 if a.trace else ROLLUPS, 1 if a.trace else READS[a.workload], check_rollup)
        marks.append(("round", time.perf_counter()))
        if res is None:
            break
        f, info = check_store(turns, res["read"], a.seed)
        res["sampen_checked"] = info["sampen_windows_checked"]
        marks.append(("checks", time.perf_counter()))
        drops = res["late"] + res["dup"]
        if drops != expected_drops(stream):
            f.append(f"ingest dropped {drops} turns (late {res['late']}, dup {res['dup']}), {expected_drops(stream)} were replays")
        fails += res["fails"] + f
        rounds.append(res)
        if a.trace or time.perf_counter() - t_start >= a.seconds:
            break
    ray.shutdown()
    ray_sessions_cleanup()
    marks.append(("shutdown", time.perf_counter()))
    for r in rounds:
        print(" ".join(f"{k} {[round(x, 2) for x in v]} s," for k, v in (("setup", setup_s), ("rollup", r["rollup_s"]), ("ingest", r["ingest_s"]), ("read", r["read_s"]))) + f" sample entropy checked on {r['sampen_checked']} windows", file=sys.stderr)

    metrics: dict = {}
    if rounds and not a.trace:
        last = rounds[-1]
        bits = points = 0
        for tier in common.TIERS:
            b, p, _ = common.blob_stats(last["read"][tier][2])
            bits, points = bits + b, points + p
        values = {
            "setup_s": statistics.median(setup_s),
            "rollup_turns_per_s": n_hist / statistics.median(s for r in rounds for s in r["rollup_s"]),
            "ingest_batch_s": statistics.median(s for r in rounds for s in r["ingest_s"]),
            "read_s": statistics.median(s for r in rounds for s in r["read_s"]),
            "store_bytes_per_turn": last["store_bytes"] / len(turns),
            "chunk_bits_per_point": bits / points,
            "ingest_bytes_written_per_turn": last["ingest_bytes"] / n_tail,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    elif rounds:
        plain = phase.run("inproc", run_inproc, layout, 0)
        traced = phase.run("inproc", run_inproc, layout, 1)
        if traced is not None:
            fails += [f"trace coverage: {p}" for p in traced["coverage"]["problems"]]
            ray_tables = tables_of(rounds[-1]["root"])
            fails += [f"traced store vs timed store: {f}" for f in check_tables_equal(ray_tables, tables_of(layout.store("inproc1")))]
            print(f"spans: {os.path.relpath(spans_path(layout), checkout)}", file=sys.stderr)
        if not fails and not phase.broken:
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer_metrics(rounds[-1], plain, traced).items()}
    marks.append(("metrics", time.perf_counter()))
    print("timeline " + ", ".join(f"{n} {t - marks[i][1]:.2f} s" for i, (n, t) in enumerate(marks[1:])), file=sys.stderr)
    for f in fails + phase.errors:
        print("FAIL " + f, file=sys.stderr)
    result = {"correct": not fails and bool(rounds), "attempted": phase.attempted, "failed": phase.failed, "metrics": metrics}
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
