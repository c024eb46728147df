"""Perf layer bench: cold vs. cached vs. parallel vs. batch sweeps.

Times the full Table 2 sweep (5 benchmarks x 4 machine cases, n=100)
seven ways, then a generated corpus of large loops three ways, and checks
the acceptance properties of the performance layer:

* every variant produces byte-identical ``t_list``/``t_new`` results;
* the warm cached + fast-path sweep is >= 3x faster than the cold serial
  exact-simulation sweep;
* the warm **batch engine** sweep (compile/schedule once, one flat
  closed-form pass for the whole grid) is >= 100x faster than cold;
* on the generated corpus (24 loops of 16-28 statements x 4 machines,
  16 jobs) the cold serial sweep, a 2-worker
  :class:`~repro.perf.parallel.ParallelEvaluator` and the cold batch
  engine agree on every ``(t_list, t_new)`` — the timings are the
  measurement that keeps the process pool;
* the auto-mode parallel evaluator either pools or explains why not —
  its threshold now comes from a per-run calibration probe, so the
  serial/pool choice is machine-dependent, but the *calibration record*
  always says which source decided.

Writes ``benchmarks/results/perf_layer.txt`` and updates its own blocks
of ``BENCH_perf.json`` (repo root), keeping the ``service`` block that
``repro loadtest`` writes.  Timing-sensitive, so it is marked ``perf``
and skipped unless pytest runs with ``--perf`` (``make bench-perf``).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import time

import pytest

from repro import (
    BatchEvaluator,
    CompileCache,
    EvalOptions,
    ParallelEvaluator,
    evaluate_corpus,
    paper_machine,
)
from repro.workloads import GeneratorConfig, PlantedDep, generate_loop, perfect_suite

from conftest import BENCHMARKS, PAPER_CASES, RESULTS_DIR, emit

pytestmark = pytest.mark.perf

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
N = 100

#: Generated corpus: loops, jobs per machine, and alternating timing rounds.
GENERATED_LOOPS = 24
GENERATED_GROUPS = 4
GENERATED_ROUNDS = 3

#: Blocks of BENCH_perf.json that other writers own (``repro loadtest``).
FOREIGN_BLOCKS = ("schema_version", "service")


def _sweep_serial(jobs, *, cache=None, exact_simulation=False):
    options = EvalOptions(cache=cache, exact_simulation=exact_simulation)
    return [
        evaluate_corpus(name, loops, machine, N, options)
        for name, loops, machine in jobs
    ]


def _times(results):
    return [(ev.name, ev.machine.name, ev.t_list, ev.t_new) for ev in results]


def _generated_jobs():
    """Seeded large loops (16-28 statements, 4-9 planted dependences),
    split into ``GENERATED_GROUPS`` corpora, each on every paper machine."""
    rng = random.Random(0)
    loops = []
    for i in range(GENERATED_LOOPS):
        statements = 16 + (i * 13) // GENERATED_LOOPS
        deps = []
        for j in range(4 + i % 6):
            # even-numbered dependences lexically backward, every other
            # backward one chained into a synchronization path
            source, sink = sorted(rng.sample(range(statements), 2), reverse=j % 2 == 0)
            chained = j % 2 == 0 and (j // 2) % 2 == 0
            deps.append(PlantedDep(source, sink, 1 + (i + j) % 4, chained))
        config = GeneratorConfig(
            statements=statements, deps=tuple(deps), seed=rng.randrange(2**31),
            temp_scalars=i % 3, reductions=(i // 3) % 2, inductions=(i // 2) % 2,
            name=f"gen{i}",
        )
        loops.append(generate_loop(config))
    size = GENERATED_LOOPS // GENERATED_GROUPS
    return [
        (f"gen{g}", loops[g * size : (g + 1) * size], paper_machine(*case))
        for g in range(GENERATED_GROUPS)
        for case in PAPER_CASES
    ]


def _write_bench_file(blocks: dict) -> None:
    """Replace this bench's blocks of BENCH_perf.json, keeping the
    :data:`FOREIGN_BLOCKS` other writers own."""
    path = REPO_ROOT / "BENCH_perf.json"
    kept = {}
    if path.exists():
        existing = json.loads(path.read_text())
        kept = {key: existing[key] for key in FOREIGN_BLOCKS if key in existing}
    path.write_text(json.dumps({**kept, **blocks}, indent=2) + "\n")


def test_perf_layer_speedups():
    suite = perfect_suite()
    jobs = [
        (name, suite[name], paper_machine(*case))
        for name in BENCHMARKS
        for case in PAPER_CASES
    ]

    # Cold serial baseline: no cache, full O(n*waits) event simulation.
    start = time.perf_counter()
    cold = _sweep_serial(jobs, exact_simulation=True)
    cold_s = time.perf_counter() - start

    # First cached sweep: compiles each loop once (not once per case),
    # analytic fast path on.
    cache = CompileCache()
    start = time.perf_counter()
    cached_first = _sweep_serial(jobs, cache=cache)
    cached_first_s = time.perf_counter() - start

    # Warm cached sweep: pure cache hits + fast path (a re-run, as in
    # iterating on a report or an ablation that shares sweep points).
    start = time.perf_counter()
    cached_warm = _sweep_serial(jobs, cache=cache)
    cached_warm_s = time.perf_counter() - start

    # Parallel evaluator, auto mode: the min-work threshold is now
    # calibrated from a one-eval probe, so whether this sweep pools is
    # machine-dependent — the acceptance property is that the choice is
    # *recorded* (calibration says which source decided; a serial run
    # says why it stayed serial).
    workers = max(2, min(4, os.cpu_count() or 1))
    auto = ParallelEvaluator(max_workers=workers)
    start = time.perf_counter()
    parallel_auto = auto.evaluate_corpora(jobs, n=N)
    auto_s = time.perf_counter() - start

    # Forced pool (min_pool_work=0): measures what the threshold weighs.
    forced = ParallelEvaluator(max_workers=workers, min_pool_work=0)
    start = time.perf_counter()
    parallel_forced = forced.evaluate_corpora(jobs, n=N)
    forced_s = time.perf_counter() - start

    # Batch engine: compile/schedule each unique loop once, answer every
    # cell of the grid in one flat closed-form pass.  Cold includes the
    # compiles; warm answers straight from the evaluation memo.
    engine = BatchEvaluator()
    start = time.perf_counter()
    batch_cold = engine.evaluate_corpora(jobs, n=N)
    batch_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    batch_warm = engine.evaluate_corpora(jobs, n=N)
    batch_warm_s = time.perf_counter() - start

    # Generated corpus of large loops: cold serial vs a 2-worker pool vs
    # the cold batch engine, in alternating rounds (median reported).
    gen_jobs = _generated_jobs()
    gen_runs = {"serial": [], "pool": [], "batch": []}
    gen_pool = ParallelEvaluator(max_workers=2)
    for _ in range(GENERATED_ROUNDS):
        start = time.perf_counter()
        gen_serial = [
            evaluate_corpus(name, loops, machine, N, EvalOptions())
            for name, loops, machine in gen_jobs
        ]
        gen_runs["serial"].append(time.perf_counter() - start)
        start = time.perf_counter()
        gen_pooled = gen_pool.evaluate_corpora(gen_jobs, n=N)
        gen_runs["pool"].append(time.perf_counter() - start)
        start = time.perf_counter()
        gen_batch = BatchEvaluator().evaluate_corpora(gen_jobs, n=N)
        gen_runs["batch"].append(time.perf_counter() - start)
        assert _times(gen_pooled) == _times(gen_serial)
        assert _times(gen_batch) == _times(gen_serial)
    gen_s = {path: statistics.median(runs) for path, runs in gen_runs.items()}
    gen_work = sum(len(loops) for _name, loops, _machine in gen_jobs)

    # Byte-identical results across every variant.
    reference = _times(cold)
    assert _times(cached_first) == reference
    assert _times(cached_warm) == reference
    assert _times(parallel_auto) == reference
    assert _times(parallel_forced) == reference
    assert _times(batch_cold) == reference
    assert _times(batch_warm) == reference

    assert auto.calibration is not None
    assert auto.calibration["source"] in ("probe", "default")
    if not auto.used_pool:
        assert auto.fallback_reason is not None

    stats = cache.stats
    assert stats.compile_hits > 0 and stats.schedule_hits > 0

    warm_speedup = cold_s / cached_warm_s if cached_warm_s else float("inf")
    first_speedup = cold_s / cached_first_s if cached_first_s else float("inf")
    auto_speedup = cold_s / auto_s if auto_s else float("inf")
    forced_speedup = cold_s / forced_s if forced_s else float("inf")
    batch_cold_speedup = cold_s / batch_cold_s if batch_cold_s else float("inf")
    batch_warm_speedup = cold_s / batch_warm_s if batch_warm_s else float("inf")

    work = sum(len(loops) for _name, loops, _machine in jobs)
    auto_mode = "pool" if auto.used_pool else "serial"
    lines = [
        f"Table 2 sweep ({len(BENCHMARKS)} benchmarks x {len(PAPER_CASES)} cases, n={N})",
        f"{'variant':<28} {'seconds':>9} {'speedup':>9}",
        f"{'cold serial (exact sim)':<28} {cold_s:>9.4f} {1.0:>8.2f}x",
        f"{'cached first run':<28} {cached_first_s:>9.4f} {first_speedup:>8.2f}x",
        f"{'cached warm + fast path':<28} {cached_warm_s:>9.4f} {warm_speedup:>8.2f}x",
        f"{'parallel auto (' + auto_mode + ')':<28} {auto_s:>9.4f} {auto_speedup:>8.2f}x"
        + (f"  [{auto.fallback_reason}]" if auto.fallback_reason else ""),
        f"{'parallel forced (pool={})'.format(forced.max_workers if forced.used_pool else 'fallback'):<28}"
        f" {forced_s:>9.4f} {forced_speedup:>8.2f}x"
        + (f"  [{forced.fallback_reason}]" if forced.fallback_reason else ""),
        f"{'batch cold (whole grid)':<28} {batch_cold_s:>9.4f} {batch_cold_speedup:>8.2f}x",
        f"{'batch warm (memo)':<28} {batch_warm_s:>9.4f} {batch_warm_speedup:>8.2f}x",
        f"cache: {stats.format()}",
        f"batch engine: {engine.stats.format()}",
        f"calibration: {auto.calibration}",
        f"sweep work: {work} loop evaluations",
        "results byte-identical across variants: True",
        "",
        f"Generated corpus ({GENERATED_LOOPS} loops of 16-28 statements x "
        f"{len(PAPER_CASES)} cases = {gen_work} evaluations in {len(gen_jobs)} jobs, "
        f"n={N}; median of {GENERATED_ROUNDS} alternating rounds)",
        f"{'variant':<28} {'seconds':>9} {'speedup':>9}",
        f"{'serial cold':<28} {gen_s['serial']:>9.4f} {1.0:>8.2f}x",
        f"{'parallel, 2 workers (' + ('pool' if gen_pool.used_pool else 'serial') + ')':<28}"
        f" {gen_s['pool']:>9.4f} {gen_s['serial'] / gen_s['pool']:>8.2f}x"
        + (f"  [{gen_pool.fallback_reason}]" if gen_pool.fallback_reason else ""),
        f"{'batch cold':<28} {gen_s['batch']:>9.4f} {gen_s['serial'] / gen_s['batch']:>8.2f}x",
        f"host: {os.cpu_count()} CPU(s); (t_list, t_new) identical across variants: True",
    ]
    emit("perf_layer", "\n".join(lines))

    payload = {
        "sweep": {"benchmarks": list(BENCHMARKS), "cases": PAPER_CASES, "n": N},
        "timings_s": {
            "cold_serial_exact": round(cold_s, 6),
            "cached_first": round(cached_first_s, 6),
            "cached_warm_fastpath": round(cached_warm_s, 6),
            "parallel_auto": round(auto_s, 6),
            "parallel_forced_pool": round(forced_s, 6),
            "batch_cold": round(batch_cold_s, 6),
            "batch_warm": round(batch_warm_s, 6),
        },
        "speedups_vs_cold": {
            "cached_first": round(first_speedup, 3),
            "cached_warm_fastpath": round(warm_speedup, 3),
            "parallel_auto": round(auto_speedup, 3),
            "parallel_forced_pool": round(forced_speedup, 3),
            "batch_cold": round(batch_cold_speedup, 3),
            "batch_warm": round(batch_warm_speedup, 3),
        },
        "parallel": {
            "workers": workers,
            "sweep_work_loop_evals": work,
            "calibration": auto.calibration,
            "auto_pool_used": auto.used_pool,
            "auto_fallback_reason": auto.fallback_reason,
            "forced_pool_used": forced.used_pool,
        },
        "generated_corpus": {
            "loops": GENERATED_LOOPS,
            "jobs": len(gen_jobs),
            "loop_evals": gen_work,
            "rounds": GENERATED_ROUNDS,
            "median_s": {path: round(secs, 6) for path, secs in gen_s.items()},
            "pool_used": gen_pool.used_pool,
            "pool_fallback_reason": gen_pool.fallback_reason,
            "cpu_count": os.cpu_count(),
        },
        "batch": {
            "cells": engine.stats.cells,
            "eval_hits": engine.stats.eval_hits,
            "sim_hits": engine.stats.sim_hits,
            "closed_form_rows": engine.stats.closed_form_rows,
            "flat_passes": engine.stats.flat_passes,
            "event_walks": engine.stats.event_walks,
        },
        "cache_stats": {
            "compile_hits": stats.compile_hits,
            "compile_misses": stats.compile_misses,
            "schedule_hits": stats.schedule_hits,
            "schedule_misses": stats.schedule_misses,
        },
        "identical_results": True,
    }
    _write_bench_file(payload)

    assert warm_speedup >= 3.0, (
        f"cached+fast-path sweep only {warm_speedup:.2f}x faster than cold "
        f"({cached_warm_s:.4f}s vs {cold_s:.4f}s)"
    )
    assert batch_warm_speedup >= 100.0, (
        f"warm batch sweep only {batch_warm_speedup:.2f}x faster than cold "
        f"({batch_warm_s:.4f}s vs {cold_s:.4f}s)"
    )


def test_profiler_overhead_under_five_percent():
    """Arming the continuous sampler must cost < 5% on a serial sweep.

    Off/armed timings are interleaved pair-by-pair (arm, time, disarm)
    so a slow scheduling window hits both sides instead of biasing one,
    and each side is summarised by its minimum — the usual best-case
    estimator, since timing noise on a busy host is one-sided.  A rare
    machine-wide stall can still poison a whole trial, so the check
    retries up to three trials and reports the best; like the rest of
    this module the assertion is timing-sensitive and non-gating in CI.
    """
    from repro.obs.prof import start_sampler, stop_sampler

    suite = perfect_suite()
    jobs = [
        (name, suite[name], paper_machine(*case))
        for name in BENCHMARKS
        for case in PAPER_CASES
    ]
    cache = CompileCache()
    _sweep_serial(jobs, cache=cache)  # warm the cache out of the timings

    def timed() -> float:
        start = time.perf_counter()
        _sweep_serial(jobs, cache=cache)
        return time.perf_counter() - start

    pairs = 11

    def trial():
        off, armed = [], []
        samples, hz = 0, 0.0
        for _ in range(pairs):
            off.append(timed())
            # DEFAULT_HZ, the rate `repro serve --profile-hz` suggests
            start_sampler()
            try:
                armed.append(timed())
            finally:
                profile = stop_sampler()
            assert profile is not None
            samples += profile.samples
            hz = profile.hz
        baseline_s, armed_s = min(off), min(armed)
        ratio = armed_s / baseline_s - 1.0 if baseline_s else 0.0
        return ratio, baseline_s, armed_s, samples, hz

    trials = []
    for _ in range(3):
        trials.append(trial())
        if trials[-1][0] < 0.05:
            break
    overhead, baseline, armed, samples, hz = min(trials)

    emit(
        "profiler_overhead",
        "\n".join(
            [
                f"warm serial sweep, min of {pairs} interleaved pairs, "
                f"best of {len(trials)} trial(s)",
                f"{'sampler off':<14} {baseline:>9.4f}s",
                f"{'sampler armed':<14} {armed:>9.4f}s",
                f"overhead: {100.0 * overhead:+.2f}% "
                f"({samples} samples at {hz:g} hz)",
            ]
        ),
    )
    assert overhead < 0.05, (
        f"armed sampler cost {100.0 * overhead:.2f}% "
        f"({baseline:.4f}s -> {armed:.4f}s)"
    )
