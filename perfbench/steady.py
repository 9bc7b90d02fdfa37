"""Steadiness check: run each workload k times with different seeds and
print, per metric, the median, the quartiles and the spread (interquartile
range over median). An end-to-end metric whose spread exceeds its bound in
BENCHMARK.json is flagged; so is a failed-operation share that differs
between runs.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0] [WORKLOAD ...]

Run it from the root of the repository. Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    flagged = False
    for w in names:
        results, walls = [], []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            t0 = time.perf_counter()
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(a.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                flagged = True
                continue
            r = json.loads(p.stdout.strip().splitlines()[-1])
            results.append(r)
            if not r["correct"]:
                print(f"{w} seed {seed}: INCORRECT\n" + "\n".join(l for l in p.stderr.splitlines() if l.startswith("FAIL")))
                flagged = True
        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {len(results)} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s, failed shares {sorted(shares)}")
        flagged |= len(shares) > 1
        for m in results[0]["metrics"]:
            med, q1, q3, sp = spread([r["metrics"][m]["value"] for r in results])
            bound = bounds.get(m)
            mark = ""
            if bound is not None and sp > bound:
                mark, flagged = "  OVER BOUND", True
            elif bound is not None and sp > bound / 3:
                mark = "  over a third of bound"
            lim = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {m:36s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {sp:7.4f} {lim}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
