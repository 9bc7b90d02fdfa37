"""The task exchange of rollup and ingest (stages/exchange.py): its wait
helper surfaces signals and cancels what it launched, an oversized partition
is refused before any writer starts, and the exchange's shape (many input
files, one partition, the process-wide DataContext) leaves the store as a
plain rollup writes it."""

from __future__ import annotations

import collections
import os
import signal
import time

import pyarrow.parquet as pq
import pytest

from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, RollupWriteStage, run_rollup_pipeline, tier_table
from chronoxtract_ray.sources.transcripts import generate_table, read_transcripts
from chronoxtract_ray.stages import exchange
from chronoxtract_ray.stages.derive import make_derive
from chronoxtract_ray.stages.ingest import run_incremental_ingest
from tests.conftest import assert_tables_bitwise_equal

TIERS = ("1m", "1h", "1d")


class _Alarm(BaseException):
    pass


def test_gather_surfaces_a_signal_and_cancels(ray_session):
    import ray
    from ray.exceptions import TaskCancelledError, WorkerCrashedError

    ref = ray.remote(lambda: time.sleep(20)).remote()

    def on_alarm(signum, frame):
        raise _Alarm()

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    t0 = time.monotonic()
    try:
        with pytest.raises(_Alarm):
            exchange.gather([ref])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - t0 < 3.0
    with pytest.raises((TaskCancelledError, WorkerCrashedError)):
        ray.get(ref, timeout=10)


def test_partition_fit_error_names_the_fix():
    exchange.check_partition_fit([10, 40, 30, 0], capacity=40)  # fits exactly
    with pytest.raises(ValueError) as e:
        exchange.check_partition_fit([10, 100, 30, 0], capacity=40)
    msg = str(e.value)
    # partition 1, its 100 bytes, the 40-byte capacity, ceil(4 * 100 / 40)
    assert "partition 1 " in msg and "100 bytes" in msg and "40-byte" in msg
    assert "num_parts >= 10" in msg


def test_oversized_partition_refused_before_any_write(ray_session, tmp_path, monkeypatch):
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(generate_table(6, base_turns=20, hot_every=0), str(src / "part-0.parquet"))
    monkeypatch.setattr(exchange, "_smallest_object_store", lambda: 64)
    root = str(tmp_path / "store")
    with pytest.raises(ValueError, match="num_parts >= "):
        run_rollup_pipeline(str(src), root, PipelineConfig(num_parts=4))
    for tier in TIERS:
        assert not os.path.exists(os.path.join(root, f"tier={tier}"))


def test_many_input_files_each_partition_written_once(ray_session, tmp_path):
    tbl = generate_table(24, base_turns=20, hot_every=6, hot_factor=5)
    many, one = tmp_path / "many", tmp_path / "one"
    many.mkdir()
    one.mkdir()
    n_files = 16
    step = -(-tbl.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(tbl.slice(i * step, step), str(many / f"part-{i:02d}.parquet"))
    pq.write_table(tbl, str(one / "part-0.parquet"))

    cfg = PipelineConfig(num_parts=8)
    root = str(tmp_path / "many_store")
    os.makedirs(root)
    derived = read_transcripts(str(many)).map_batches(
        make_derive(cfg.rollup.bucket_us, num_parts=cfg.num_parts), batch_format="pyarrow"
    )
    results, part_rows, _ = exchange.exchange_by_part(derived, cfg.num_parts, RollupWriteStage(root, cfg, frozenset(), "many"))
    written = collections.Counter((r["tier"], r["part"]) for r in results)
    parts = [p for p in range(cfg.num_parts) if part_rows[p]]
    assert dict(written) == {(t, p): 1 for t in TIERS for p in parts}
    assert sum(part_rows) == tbl.num_rows

    ref = str(tmp_path / "one_store")
    run_rollup_pipeline(str(one), ref, cfg)
    for tier in TIERS:
        assert_tables_bitwise_equal(tier_table(ref, tier), tier_table(root, tier), f"tier {tier}")


def _split_history_tail(tmp_path):
    import pyarrow.compute as pc

    tbl = generate_table(10, base_turns=25, hot_every=5, hot_factor=6)
    ts = tbl["ts"].cast("int64")
    cut = int(pc.quantile(ts, q=0.75)[0].as_py())
    out = []
    for name, mask in (("history", pc.less(ts, cut)), ("tail", pc.greater_equal(ts, cut))):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(tbl.filter(mask), str(d / "part-0.parquet"))
        out.append((str(d), int(pc.sum(mask).as_py())))
    return out


def test_rollup_and_ingest_leave_the_data_context_alone(ray_session, tmp_path):
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    fields = (
        "shuffle_strategy",
        "max_hash_shuffle_aggregators",
        "default_hash_shuffle_parallelism",
        "hash_shuffle_operator_actor_num_cpus_per_partition_override",
    )
    saved = {f: getattr(ctx, f) for f in fields}
    # start from Ray's defaults so that a mutation shows whatever ran before
    defaults = DataContext()
    for f in fields:
        setattr(ctx, f, getattr(defaults, f))
    assert ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    try:
        (history, _), (tail, _) = _split_history_tail(tmp_path)
        cfg = PipelineConfig(num_parts=4)
        root = str(tmp_path / "store")
        run_rollup_pipeline(history, root, cfg)
        run_incremental_ingest(tail, root, cfg, batch_id="tail")
        assert {f: getattr(ctx, f) for f in fields} == {f: getattr(defaults, f) for f in fields}
    finally:
        for f, v in saved.items():
            setattr(ctx, f, v)


def test_one_partition_rollup_and_ingest(ray_session, tmp_path):
    (history, n_hist), (tail, n_tail) = _split_history_tail(tmp_path)
    stores = {}
    for P in (1, 4):
        root = str(tmp_path / f"store_p{P}")
        cfg = PipelineConfig(num_parts=P)
        m = run_rollup_pipeline(history, root, cfg)
        assert len(m["part_rows"]) == len(m["part_bytes"]) == P and sum(m["part_rows"]) == n_hist
        res = run_incremental_ingest(tail, root, cfg, batch_id="tail")
        assert len(res["part_rows"]) == P and sum(res["part_rows"]) == n_tail
        assert res["parts_touched"] == sum(1 for r in res["part_rows"] if r)
        stores[P] = root
    # partitioning moves rows between files only: the tiers are the same
    for tier in TIERS:
        assert_tables_bitwise_equal(tier_table(stores[4], tier), tier_table(stores[1], tier), f"tier {tier}")
