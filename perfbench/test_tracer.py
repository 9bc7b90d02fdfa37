"""Tests of the traced run's coverage check on hand-made span lists.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import EXPECTED, coverage  # noqa: E402


def _spans(extra=(), drop=(), phase_self=0.01):
    """A run span holding the three phase spans, each holding one 0.1 s span
    of every layer expected below it (minus ``drop``, plus ``extra``
    (phase, name) pairs), with ``phase_self`` seconds of the phase's own."""
    spans = [{"id": 0, "name": "run", "parent": None, "start": 0.0, "end": None}]
    t = 0.0
    for phase, names in EXPECTED.items():
        pid = len(spans)
        spans.append({"id": pid, "name": phase, "parent": 0, "start": t, "end": None})
        t += phase_self
        for name in sorted(names - set(drop)) + [n for p, n in extra if p == phase]:
            spans.append({"id": len(spans), "name": name, "parent": pid, "start": t, "end": t + 0.1})
            t += 0.1
        spans[pid]["end"] = t
    spans[0]["end"] = t
    return spans


def test_complete_trace_passes():
    cov = coverage(_spans())
    assert cov["problems"] == []
    assert abs(sum(cov["layers"].values()) + cov["unattributed_s"] - cov["wall_s"]) < 1e-9
    assert abs(cov["unattributed_s"] - 3 * 0.01) < 1e-9


def test_misnamed_layer_fails():
    problems = coverage(_spans(extra=[("phase.rollup", "gorilla.encode_None"), ("phase.rollup", "checkpoint.write")]))["problems"]
    assert "span 'gorilla.encode_None' is no reported layer" in problems
    assert "span 'checkpoint.write' is no reported layer" in problems


def test_missed_layer_fails():
    problems = coverage(_spans(drop=["kernels.batched.sampen_apen", "read.decode_chunks"]))["problems"]
    assert "phase.rollup holds no kernels.batched.sampen_apen span" in problems
    assert "phase.read holds no read.decode_chunks span" in problems


def test_unattributed_share_fails():
    problems = coverage(_spans(phase_self=2.0))["problems"]
    assert any(p.startswith("unattributed") for p in problems)


def test_span_outside_parent_fails():
    spans = _spans()
    spans[-1]["end"] += 1.0
    assert "a span lies outside its parent" in coverage(spans)["problems"]
