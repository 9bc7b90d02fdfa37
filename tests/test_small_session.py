"""The rollup and ingest pipelines must finish in a Ray session with only 1
or 2 logical CPUs, write the same store there as in the suite's session,
and leave no process behind once the session's driver has exited.

The small session runs in a subprocess with its own ``ray.init``: a Ray
process holds one session, and the suite's must stay up. A stage that
reserves CPU for an actor pool (a writer pool, a hash shuffle's
aggregators) leaves a small session no room for the derive tasks upstream
of it, and the execution never finishes; the hard timeout turns that hang
into a failure. Ray's gcs_server, raylet and workers share the driver's
process group, so a process of that group still alive a few seconds after
the driver exited is one that the pipelines or ``ray.shutdown`` left
running.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline, tier_table
from chronoxtract_ray.sources.transcripts import generate_table
from chronoxtract_ray.stages.ingest import run_incremental_ingest
from tests.conftest import assert_tables_bitwise_equal

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_PARTS = 4
TIMEOUT_S = 180
LEFTOVER_WAIT_S = 5

CHILD = """
import sys

import ray

from chronoxtract_ray.pipelines.rollup_pipeline import PipelineConfig, run_rollup_pipeline
from chronoxtract_ray.stages.ingest import run_incremental_ingest

history, tail, root, num_parts, num_cpus = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR",
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


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _group_members(pgid: int) -> str:
    ps = subprocess.run(["ps", "-eo", "pid,pgid,stat,etime,args"], capture_output=True, text=True).stdout.splitlines()
    return "\n".join(line for line in ps[1:] if line.split()[1] == str(pgid))


def _run_child(history: str, tail: str, root: str, num_cpus: int) -> tuple[subprocess.CompletedProcess, str]:
    """Run CHILD in its own process group; on timeout kill the whole group
    (the child's Ray processes included) rather than the suite's session.
    Returns the child's result and the members of its group still alive
    ``LEFTOVER_WAIT_S`` after it exited (empty when none). The child writes
    to a file, not a pipe, so that a leftover holding its output open
    cannot delay the wait."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [REPO, os.environ.get("PYTHONPATH")])))
    env.pop("RAY_ADDRESS", None)
    log = root + ".log"
    with open(log, "w") as f:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, history, tail, root, str(NUM_PARTS), str(num_cpus)],
            cwd=REPO,
            env=env,
            stdout=f,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    leftovers = ""
    try:
        proc.wait(timeout=TIMEOUT_S)
        deadline = time.monotonic() + LEFTOVER_WAIT_S
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        if _group_alive(proc.pid):
            leftovers = _group_members(proc.pid) or "(a member exited before ps listed it)"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        with open(log) as f:
            out = f.read()
        raise AssertionError(
            f"rollup + ingest in a {num_cpus}-CPU Ray session did not finish in {TIMEOUT_S} s; output:\n{out[-4000:]}"
        )
    finally:
        try:  # Ray processes the child may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    with open(log) as f:
        return subprocess.CompletedProcess(proc.args, proc.returncode, f.read()), leftovers


def _check_small_session(tmp_path, num_cpus: int) -> None:
    history, tail = _write_inputs(tmp_path)
    small = str(tmp_path / f"store_{num_cpus}cpu")
    res, leftovers = _run_child(history, tail, small, num_cpus)
    assert res.returncode == 0, res.stdout[-4000:]
    assert "rollup done" in res.stdout and "ingest done" in res.stdout
    assert not leftovers, f"processes of the session still alive {LEFTOVER_WAIT_S} s after its driver exited:\n{leftovers}"

    ref = str(tmp_path / "store_suite")
    cfg = PipelineConfig(num_parts=NUM_PARTS)
    run_rollup_pipeline(history, ref, cfg)
    run_incremental_ingest(tail, ref, cfg, batch_id="tail")
    for tier in ("1m", "1h", "1d"):
        assert_tables_bitwise_equal(tier_table(ref, tier), tier_table(small, tier), f"tier {tier}")


def test_one_cpu_session_rollup_and_ingest_finish(ray_session, tmp_path):
    _check_small_session(tmp_path, 1)


def test_two_cpu_session_rollup_and_ingest_finish(ray_session, tmp_path):
    _check_small_session(tmp_path, 2)
