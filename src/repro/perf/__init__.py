"""Sweep-scale performance layer.

Three independent accelerators for the experiment harness:

* :mod:`repro.perf.cache` — :class:`CompileCache`: a content-addressed
  compile cache plus a per-machine schedule memo, so a sweep compiles each
  loop once (not once per machine case) and a re-run schedules nothing.
* :mod:`repro.perf.parallel` — :class:`ParallelEvaluator`: chunked
  ``ProcessPoolExecutor`` fan-out of corpus/program evaluations with
  deterministic, insertion-order result merging and a serial fallback;
  :func:`calibrate_min_pool_work` turns a measured per-eval cost into
  the pool's break-even threshold.
* :mod:`repro.perf.batch` — :class:`BatchEvaluator`: corpus-level
  vectorized evaluation — compile/schedule each unique loop once, answer
  every sweep cell in one flat closed-form pass
  (``EvalOptions(batch=True)`` / ``repro sweep --batch``).

The remaining accelerator, the analytic fast path in
:func:`repro.sim.multiproc.simulate_doacross`, lives with the simulator it
short-circuits; see ``docs/performance.md`` for the whole layer.
"""

from repro.perf.batch import (
    BatchEvaluator,
    BatchIncompatible,
    BatchStats,
    batch_incompatibility,
    shared_batch_evaluator,
)
from repro.perf.cache import CacheStats, CompileCache, compiled_fingerprint, loop_key
from repro.perf.parallel import ParallelEvaluator, calibrate_min_pool_work, chunked

__all__ = [
    "BatchEvaluator",
    "BatchIncompatible",
    "BatchStats",
    "CacheStats",
    "CompileCache",
    "ParallelEvaluator",
    "batch_incompatibility",
    "calibrate_min_pool_work",
    "chunked",
    "compiled_fingerprint",
    "loop_key",
    "shared_batch_evaluator",
]
