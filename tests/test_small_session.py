"""The rollup and ingest pipelines must finish in a Ray session with only 2
logical CPUs, and write the same store there as in the suite's session.

The small session runs in a subprocess with its own ``ray.init``: a Ray
process holds one session, and the suite's must stay up. A writer stage
that reserves whole CPUs for an actor pool leaves a 2-CPU session no room
for the derive tasks upstream of it, and the execution never finishes; the
hard timeout turns that hang into a failure.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pyarrow.compute as pc
import pyarrow.parquet as pq

from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline, tier_table
from chronoxtract_ray.sources.transcripts import generate_table
from chronoxtract_ray.stages.ingest import run_incremental_ingest
from tests.conftest import assert_tables_bitwise_equal

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_PARTS = 4
TIMEOUT_S = 180

CHILD = """
import sys

import ray

from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline
from chronoxtract_ray.stages.ingest import run_incremental_ingest

history, tail, root, num_parts = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR",
         object_store_memory=256 * 1024 * 1024)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
cfg = PipelineConfig(num_parts=num_parts)
run_rollup_pipeline(history, root, cfg)
print("rollup done", flush=True)
run_incremental_ingest(tail, root, cfg, batch_id="tail")
print("ingest done", flush=True)
ray.shutdown()
"""


def _write_inputs(tmp_path) -> tuple[str, str]:
    """A small transcript table split at a timestamp into history and tail."""
    tbl = generate_table(12, base_turns=30, hot_every=5, hot_factor=8)
    ts = tbl["ts"].cast("int64")
    cut = int(pc.quantile(ts, q=0.8)[0].as_py())
    paths = []
    for name, mask in (("history", pc.less(ts, cut)), ("tail", pc.greater_equal(ts, cut))):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(tbl.filter(mask), str(d / "part-0.parquet"))
        paths.append(str(d))
    return paths[0], paths[1]


def _run_child(history: str, tail: str, root: str) -> subprocess.CompletedProcess:
    """Run CHILD in its own process group; on timeout kill the whole group
    (the child's Ray processes included) rather than the suite's session."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [REPO, os.environ.get("PYTHONPATH")])))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, history, tail, root, str(NUM_PARTS)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        raise AssertionError(
            f"rollup + ingest in a 2-CPU Ray session did not finish in {TIMEOUT_S} s; output:\n{out[-4000:]}"
        )
    finally:
        try:  # Ray processes the child may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def test_two_cpu_session_rollup_and_ingest_finish(ray_session, tmp_path):
    history, tail = _write_inputs(tmp_path)
    small = str(tmp_path / "store_2cpu")
    res = _run_child(history, tail, small)
    assert res.returncode == 0, res.stdout[-4000:]
    assert "rollup done" in res.stdout and "ingest done" in res.stdout

    ref = str(tmp_path / "store_suite")
    cfg = PipelineConfig(num_parts=NUM_PARTS)
    run_rollup_pipeline(history, ref, cfg)
    run_incremental_ingest(tail, ref, cfg, batch_id="tail")
    for tier in ("1m", "1h", "1d"):
        assert_tables_bitwise_equal(tier_table(ref, tier), tier_table(small, tier), f"tier {tier}")
