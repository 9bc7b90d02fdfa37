"""chronoxtract_ray — a Ray-Data-native time-series rollup/downsample/retention engine.

A from-scratch engine with the query/data-processing capabilities of the
``amanasci/ChronoXtract`` reference library (PyO3/Rust, analyzed for behavior
only), re-expressed Ray-Data-first:

- input: Parquet tables of multi-turn conversation transcripts
  ``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
  ts:timestamp[us])``
- feature kernels: pure NumPy (``chronoxtract_ray.kernels``), one function per
  reference operator, each citing the reference file:line it mirrors
- execution: ``ray.data.Dataset`` pipelines — ``map_batches`` over zero-copy
  Arrow batches; the rollup is derive → one exchange on the conversation's
  partition (a Ray split task per block) → one writer task per partition
  that computes every tier and its Gorilla chunks in memory (no salting: a
  hot conversation lands whole in its partition)
- tiers: raw -> 1m -> 1h -> 1d continuous aggregates with gap-fill and
  Gorilla XOR / delta-of-delta compressed point streams
- checkpoint/resume: per-partition watermarks + manifest

Nothing in this package calls ``ray.init``/``ray.shutdown``; session ownership
belongs to the caller (driver, bench.py, test fixture, CLI).
"""

from chronoxtract_ray import kernels  # noqa: F401

__version__ = "0.1.0"
