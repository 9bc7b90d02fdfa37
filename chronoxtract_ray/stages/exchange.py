"""The engine's one all-to-all exchange: derived rows → their ``part`` →
one writer call per partition, run as plain Ray tasks.

    Ray Data: read → normalize → derive          (Arrow block refs)
      → split task per block: P pieces + (rows, bytes) per piece
      → driver: sum the counts, refuse an oversized partition
      → write task per non-empty partition: concat its pieces → writer(table)

The exchange is explicit rather than a Ray Data shuffle: a hash shuffle
starts a pool of aggregator actors on every execution (seconds of fixed
cost per call) and reserves CPU for it, which stalls a 1-CPU session.
Split and write tasks take Ray's default of one CPU each, and every piece
reaches its writer as a top-level task argument, so Ray resolves it before
the task is scheduled: no task waits on another, and a session with one
CPU runs them one after another.

A write task gets every piece of its partition, so a partition is never
split across writer calls. Each task returns the counts the driver needs:
per-partition rows and bytes, reported by the callers as ``part_rows`` and
``part_bytes``.

No task outlives a call: the driver waits for every task it launched, in
short ``ray.wait`` slices so that a signal handler (a timeout, Ctrl-C)
runs promptly, and on any exception it force-cancels the unfinished tasks
and waits for them before re-raising.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray

__all__ = ["exchange_by_part", "gather", "check_partition_fit"]

POLL_S = 0.1


def _split_by_part(block: pa.Table, num_parts: int):
    """One derived block → ``num_parts`` pieces (rows of partition p in
    piece p, in block order) + a (2, P) array of their row and byte counts."""
    if block.num_rows == 0:
        pieces = [block] * num_parts
    else:
        part = block["part"].to_numpy()
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(num_parts + 1))
        # take() copies, so each piece owns its buffers and is stored alone
        pieces = [block.take(order[bounds[p] : bounds[p + 1]]) for p in range(num_parts)]
    counts = np.array([[t.num_rows for t in pieces], [t.nbytes for t in pieces]], dtype=np.int64)
    return (*pieces, counts)


def _write_part(writer, *pieces: pa.Table) -> pa.Table:
    return writer(pa.concat_tables(pieces))


_split_task = ray.remote(_split_by_part)
_write_task = ray.remote(_write_part)


def _cancel_and_wait(refs: list) -> None:
    """Force-cancel every task behind ``refs`` (a no-op for finished ones)
    and wait until each has ended."""
    for ref in refs:
        ray.cancel(ref, force=True)
    pending = list(refs)
    while pending:
        _, pending = ray.wait(pending, num_returns=len(pending), timeout=POLL_S)


def _signal_cause(e: BaseException) -> BaseException:
    """The exception to propagate for ``e``. A signal handler that raises
    while Ray's Cython ``wait``/``get`` runs surfaces as
    ``SystemError("... returned a result with an exception set")`` whose
    ``__cause__`` is the handler's exception (a timeout, KeyboardInterrupt):
    return that one, so callers see what their handler raised."""
    if isinstance(e, SystemError) and e.__cause__ is not None and "with an exception set" in str(e):
        return e.__cause__
    return e


def gather(refs: list) -> list:
    """``ray.get(refs)``, waiting in ``POLL_S`` slices: a single blocking
    ``ray.get``/``ray.wait`` defers a Python signal handler until the task
    ends. A task error or a signal cancels the tasks still running (and
    waits for them) before it propagates."""
    refs = list(refs)
    values = {}
    pending = refs
    try:
        while pending:
            ready, pending = ray.wait(pending, num_returns=len(pending), timeout=POLL_S)
            if ready:
                values.update(zip(ready, ray.get(ready)))
    except BaseException as e:
        _cancel_and_wait(pending)
        raise _signal_cause(e)
    return [values[r] for r in refs]


def check_partition_fit(part_bytes, capacity: int) -> None:
    """Refuse a partition larger than one node's object store: its write
    task needs all of its pieces local to one node. Raises ``ValueError``
    naming the partition, its bytes, the capacity and the smallest
    ``num_parts`` that spreads the same bytes thin enough."""
    P = len(part_bytes)
    worst = int(np.argmax(part_bytes))
    size = int(part_bytes[worst])
    if size > capacity:
        need = math.ceil(P * size / capacity)
        raise ValueError(
            f"partition {worst} holds {size} bytes of derived rows, more than the "
            f"{capacity}-byte object store of the smallest node; its writer needs the "
            f"whole partition on one node: use num_parts >= {need} (now {P})"
        )


def _smallest_object_store() -> int:
    return int(min(n["Resources"]["object_store_memory"] for n in ray.nodes() if n["Alive"]))


def exchange_by_part(ds, num_parts: int, writer) -> tuple[list[dict], list[int], list[int]]:
    """Run ``ds`` (derived rows with a ``part`` column in ``[0, num_parts)``)
    and call ``writer(table)`` once per partition that has rows, in a Ray
    task. Returns the writers' result rows (as dicts), and the rows and
    bytes of each of the ``num_parts`` partitions. Every launched task has
    ended when this returns or raises."""
    launched: list = []
    try:
        split_refs = []
        # blocks are split as Ray Data emits them. (``to_arrow_refs()`` would
        # wait for the whole execution, then run the plan again under
        # ``limit(1)`` to learn the schema: about 0.1 s per call.)
        for bundle in ds.iter_internal_ref_bundles():
            for block in bundle.block_refs:
                # num_returns = P + 1 >= 2, so .remote() always returns a list
                refs = _split_task.options(num_returns=num_parts + 1).remote(block, num_parts)
                launched.append(refs[-1])
                split_refs.append(refs)
        counts = gather([refs[-1] for refs in split_refs])
        rows, nbytes = np.sum(counts, axis=0) if counts else np.zeros((2, num_parts), np.int64)
        check_partition_fit(nbytes, _smallest_object_store())
        handle = ray.put(writer)
        write_refs = []
        for p in np.flatnonzero(rows):
            pieces = [refs[p] for refs, c in zip(split_refs, counts) if c[0, p]]
            ref = _write_task.remote(handle, *pieces)
            launched.append(ref)
            write_refs.append(ref)
        del split_refs
        results = gather(write_refs)
    except BaseException as e:
        _cancel_and_wait(launched)
        raise _signal_cause(e)
    out = [r for t in results for r in t.to_pylist()]
    return out, [int(x) for x in rows], [int(x) for x in nbytes]
