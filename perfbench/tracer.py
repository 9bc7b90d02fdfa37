"""In-process span tracer for the benchmark's traced run.

``install(tracer)`` wraps the engine's public layer functions in the
current process only (the package on disk is not edited): each call records
a span (name, start, end, parent) in memory, and ``Tracer.write`` writes the
spans out when the run ends. A layer's self time is its span's duration
minus the time its child spans cover; the benchmark's own phase spans are
the unattributed remainder.

    python3 perfbench/tracer.py SPANS.jsonl     # self time per layer
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "install", "self_times", "coverage", "LAYER_METRICS"]

TIERS = ("1m", "1h", "1d")

# the benchmark's own spans: whatever time they hold outside any layer span
# is unattributed
OWN_PREFIXES = ("run", "phase.")

# every layer span name, and the per-layer metric its self time is reported as
LAYER_METRICS = {
    "derive.batch": "derive.batch_s",
    "rollup.block": "rollup.block_s",
    **{f"kernels.windowed.{t}": f"kernels.windowed.{t}_s" for t in TIERS},
    **{f"kernels.batched.{k}": f"kernels.batched.{k}_s" for k in ("sampen_apen", "permutation_entropy", "fft_bands")},
    **{f"cascade.{t}": f"cascade.{t}_s" for t in TIERS[1:]},
    **{f"gorilla.encode_{t}": f"gorilla.encode_{t}_s" for t in TIERS},
    **{f"checkpoint.write_{t}": f"checkpoint.write_{t}_s" for t in TIERS},
    "ingest.merge": "ingest.merge_s",
    "read.tier_table": "read.tier_table_s",
    "read.decode_chunks": "read.decode_chunks_s",
}

# layer spans that must appear below each phase span of the in-process run
EXPECTED = {
    "phase.rollup": {k for k in LAYER_METRICS if not k.startswith(("ingest.", "read."))},
    "phase.ingest": {"derive.batch", "ingest.merge"},
    "phase.read": {"read.tier_table", "read.decode_chunks"},
}

# largest share of the traced wall time allowed outside every layer span
MAX_UNATTRIBUTED_SHARE = 0.10


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.tier: str | None = None  # tier of the chunk encode in progress

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the children's durations
    (calls nest on one thread, so children never overlap)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
    return dict(out)


def layer_total_under(spans: list[dict], root_name: str) -> float:
    """Summed self time of the layer spans below every span named
    ``root_name`` (the traced layer total of one phase)."""
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    st = {s["id"]: (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in by_parent[s["id"]]) for s in spans}
    total = 0.0
    todo = [s["id"] for s in spans if s["name"] == root_name]
    while todo:
        for c in by_parent[todo.pop()]:
            if not c["name"].startswith(OWN_PREFIXES):
                total += st[c["id"]]
            todo.append(c["id"])
    return total


def coverage(spans: list[dict]) -> dict:
    """Per-layer self times, the unattributed time (self time of the
    benchmark's own spans), the root spans' wall time, and the problems
    found. A problem is a span name that no per-layer metric reports (a
    layer the tracer misnamed, such as a chunk encode outside any tier), a
    phase without one of the layer spans expected below it (a layer the
    tracer missed), an unattributed share of the wall time above
    ``MAX_UNATTRIBUTED_SHARE``, or a span outside its parent. Self times
    plus the unattributed time add up to the wall time exactly when the
    spans nest; ``gap_s`` is the difference."""
    st = self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    unattributed = sum(v for k, v in st.items() if k.startswith(OWN_PREFIXES))
    layers = {k: v for k, v in st.items() if not k.startswith(OWN_PREFIXES)}
    problems = [f"span {k!r} is no reported layer" for k in sorted(set(layers) - set(LAYER_METRICS))]
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    for phase, want in EXPECTED.items():
        ids = [s["id"] for s in spans if s["name"] == phase]
        if not ids:
            problems.append(f"no {phase} span")
        seen = set()
        while ids:
            for c in by_parent[ids.pop()]:
                seen.add(c["name"])
                ids.append(c["id"])
        for k in sorted(want - seen):
            problems.append(f"{phase} holds no {k} span")
    if unattributed > MAX_UNATTRIBUTED_SHARE * wall:
        problems.append(f"unattributed {unattributed:.3f} s is over {MAX_UNATTRIBUTED_SHARE:.0%} of the traced {wall:.3f} s")
    if not all(spans[s["parent"]]["start"] <= s["start"] <= s["end"] <= spans[s["parent"]]["end"] for s in spans if s["parent"] is not None):
        problems.append("a span lies outside its parent")
    gap = abs(sum(layers.values()) + unattributed - wall)
    if gap > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times plus unattributed miss the wall time by {gap:.3g} s")
    return {"layers": layers, "unattributed_s": unattributed, "wall_s": wall, "gap_s": gap, "problems": problems}


def _tier_of_width(width_us: int) -> str:
    return {60_000_000: "1m", 3_600_000_000: "1h", 86_400_000_000: "1d"}.get(int(width_us), str(width_us))


def _wrap(tracer: Tracer, fn, name_of, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name_of(args, kwargs)):
            res = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, res)
        return res

    return wrapper


def _replace_everywhere(orig, new) -> None:
    """Point every ``chronoxtract_ray`` module attribute that holds ``orig``
    at ``new`` (modules import layer functions by name)."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("chronoxtract_ray"):
            for k, v in list(vars(mod).items()):
                if v is orig:
                    setattr(mod, k, new)


def install(tracer: Tracer) -> None:
    """Wrap the engine's layer entry points with spans."""
    # the pipeline and ingest modules import the layer functions by name, so
    # they must be loaded before the names are replaced
    from chronoxtract_ray.kernels import batched, windowed
    from chronoxtract_ray.pipelines import rollup_pipeline
    from chronoxtract_ray.stages import cascade, derive, gorilla_stage, ingest, rollup
    from chronoxtract_ray.state import checkpoint, gorilla

    def fixed(name):
        return lambda a, k: name

    def plain(mod, attr, name, after=None):
        orig = getattr(mod, attr)
        _replace_everywhere(orig, _wrap(tracer, orig, fixed(name), after))

    plain(derive, "derive_batch", "derive.batch")
    plain(batched, "batched_sample_approx_entropy", "kernels.batched.sampen_apen")
    plain(batched, "batched_permutation_entropy", "kernels.batched.permutation_entropy")
    plain(batched, "batched_fft_band_energies", "kernels.batched.fft_bands")
    plain(rollup_pipeline, "tier_table", "read.tier_table")
    plain(gorilla_stage, "decode_chunks", "read.decode_chunks")

    orig_cwf = windowed.compute_windowed_features
    _replace_everywhere(
        orig_cwf,
        _wrap(tracer, orig_cwf, lambda a, k: "kernels.windowed." + _tier_of_width(a[2] if len(a) > 2 else k["width_us"])),
    )

    def gap_slots(a, k, res):
        tracer.count("cascade.gap_slots_" + _tier_of_width(a[2]), float(res["n_gap_filled"].to_numpy().sum()))

    orig_cb = cascade.cascade_block
    _replace_everywhere(orig_cb, _wrap(tracer, orig_cb, lambda a, k: "cascade." + _tier_of_width(a[2]), gap_slots))

    orig_mbr = rollup.make_block_rollup

    @functools.wraps(orig_mbr)
    def make_block_rollup(cfg):
        return _wrap(tracer, orig_mbr(cfg), fixed("rollup.block"))

    _replace_everywhere(orig_mbr, make_block_rollup)

    for attr in ("encode_values_batch", "encode_timestamps_batch"):
        orig = getattr(gorilla, attr)
        _replace_everywhere(orig, _wrap(tracer, orig, lambda a, k: f"gorilla.encode_{tracer.tier}"))

    # the chunk encoder's tier, for the gorilla spans below it
    orig_enc = checkpoint.PartitionWriter._encode_chunks

    def _encode_chunks(self, tbl, cfg):
        tracer.tier = _tier_of_width(cfg["width_us"])
        try:
            return orig_enc(self, tbl, cfg)
        finally:
            tracer.tier = None

    checkpoint.PartitionWriter._encode_chunks = _encode_chunks

    def write_name(a, k):
        tiers = set(a[1]["tier_name"].to_pylist()) if a[1].num_rows else set()
        return "checkpoint.write_" + tiers.pop() if len(tiers) == 1 else "checkpoint.write"

    checkpoint.PartitionWriter.__call__ = _wrap(tracer, checkpoint.PartitionWriter.__call__, write_name)

    def drops(a, k, res):
        tracer.count("ingest.late_rows", float(sum(res["late_rows"].to_pylist())))
        tracer.count("ingest.dup_rows", float(sum(x or 0 for x in res["dup_rows"].to_pylist())))

    ingest.IncrementalWriteStage.__call__ = _wrap(tracer, ingest.IncrementalWriteStage.__call__, fixed("ingest.merge"), drops)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/tracer.py SPANS.jsonl", file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        spans = [json.loads(line) for line in f]
    cov = coverage(spans)
    for name, v in sorted(cov["layers"].items(), key=lambda kv: -kv[1]):
        print(f"{name:40s} {v:10.4f} s")
    print(f"{'(unattributed)':40s} {cov['unattributed_s']:10.4f} s")
    print(f"{'(wall)':40s} {cov['wall_s']:10.4f} s")
    for p in cov["problems"]:
        print(f"coverage: {p}")
    return 1 if cov["problems"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
