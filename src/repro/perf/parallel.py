"""Process-parallel corpus/program evaluation for large sweeps.

A sweep is a list of independent work items — ``(name, loops, machine)``
for :func:`repro.pipeline.evaluate_corpus` or ``(program, machine)`` for
:func:`repro.pipeline.evaluate_program`.  :class:`ParallelEvaluator` fans
the items out over a ``concurrent.futures.ProcessPoolExecutor`` in chunks
(one pickle round-trip per chunk, not per item) and merges the results in
**insertion order**: the output list always lines up index-for-index with
the input jobs, regardless of which worker finished first.

Each worker process keeps a process-global :class:`~repro.perf.cache.
CompileCache`, so a sweep that revisits a loop on several machines
compiles it once per worker rather than once per sweep point.

Observability rides along (see :mod:`repro.obs`): when the parent has an
active metrics registry, recording tracer (``--trace-out``,
``--journal-out`` and ``--profile`` all install one) or sampling
profiler, every worker collects into fresh local instances and the
parent folds them in after the fan-out.  Counter/histogram merging is
commutative, so **metrics aggregates are identical however the jobs were
partitioned** — ``--jobs 1`` and ``--jobs 4`` agree to the counter.

The evaluator degrades gracefully to in-process serial execution when
``max_workers=1``, when there is at most one job, when the sweep is too
small to amortize pool start-up, or when the platform cannot provide a
process pool (sandboxes without ``fork``/semaphores) — results are
identical either way, and :attr:`ParallelEvaluator.fallback_reason`
says why the pool was not used.  The chosen mode is recorded as the
``perf.parallel.mode.{pool,serial}`` metric.

The break-even sweep size is **calibrated, not guessed**: the evaluator
times one real loop evaluation (collectors detached) and
:func:`calibrate_min_pool_work` converts it into the pool's break-even
sweep size; the chosen threshold and probe cost are exposed on
:attr:`ParallelEvaluator.calibration` and recorded on the run ledger.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Sequence

from repro.obs.metrics import MetricsRegistry, active_metrics
from repro.obs.metrics import count as metric_count
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.prof import (
    Profile,
    Profiler,
    active_sampler,
    reset_after_fork,
)
from repro.obs.trace import (
    RecordingTracer,
    TraceEvent,
    active_progress_sinks,
    active_tracers,
    add_progress_sink,
    add_tracer,
    emit_progress,
    ingest_events,
    remove_progress_sink,
    remove_tracer,
)
from repro.options import EvalOptions, observation_scope, resolve_options
from repro.perf.cache import CompileCache
from repro.robust.harden import FailureRecord, RobustPolicy, retry_delay
from repro.sched import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.ast_nodes import Loop
    from repro.pipeline import CorpusEvaluation, ProgramEvaluation

__all__ = [
    "CorpusJob",
    "DEFAULT_MIN_POOL_WORK",
    "DEFAULT_POOL_STARTUP_COST",
    "ParallelEvaluator",
    "ProgramJob",
    "calibrate_min_pool_work",
    "chunked",
]

#: Minimum number of loop evaluations before a pool pays for itself —
#: the *fallback* when the threshold can be neither probed nor was set
#: on the constructor.  In the normal corpus-sweep path the evaluator
#: instead measures one evaluation and calibrates the threshold with
#: :func:`calibrate_min_pool_work` (the static 512 mis-filed measured
#: 144-eval sweeps into serial even when the pool won).
DEFAULT_MIN_POOL_WORK = 512

#: Fixed cost the break-even model charges for spawning and warming a
#: worker pool (seconds): interpreter start, imports, first pickles.
#: Deliberately conservative — a pool engaged a little late is cheaper
#: than a pool engaged for a sweep it slows down.
DEFAULT_POOL_STARTUP_COST = 0.25

#: Clamp bounds for a calibrated threshold: never pool below the floor
#: (per-job pickling overhead dominates), never demand more than the
#: ceiling (a degenerate probe must not disable the pool forever).
MIN_CALIBRATED_POOL_WORK = 32
MAX_CALIBRATED_POOL_WORK = 1_000_000


def calibrate_min_pool_work(
    per_eval_s: float,
    startup_cost_s: float = DEFAULT_POOL_STARTUP_COST,
    floor: int = MIN_CALIBRATED_POOL_WORK,
    ceiling: int = MAX_CALIBRATED_POOL_WORK,
) -> int:
    """The pool's break-even sweep size from a measured per-eval cost.

    The pool pays off when the serial cost of the sweep exceeds the
    pool's fixed start-up cost, i.e. beyond ``startup_cost_s /
    per_eval_s`` loop evaluations.  Clamped to ``[floor, ceiling]``;
    a non-positive ``per_eval_s`` (evaluations too fast to time) pins
    the threshold at the ceiling — pooling can only lose then.
    """
    if per_eval_s <= 0:
        return ceiling
    return max(floor, min(ceiling, int(startup_cost_s / per_eval_s)))

# (name, loops, machine) — one evaluate_corpus call.
CorpusJob = "tuple[str, list[Loop], MachineConfig]"
# (program source or Program, machine) — one evaluate_program call.
ProgramJob = "tuple[object, MachineConfig]"

# (metrics, trace, sample_hz): which collectors a worker should run for
# the parent.  All-off in the serial path, where the parent's own
# collectors see the events directly.  ``sample_hz`` > 0 arms a
# worker-side sampling :class:`~repro.obs.prof.Profiler` whose folded
# stacks merge into the parent's sampler (non-deterministic counts, like
# ``robust.*`` — see docs/observability.md, "Continuous profiling").
_COLLECT_NONE = (False, False, 0.0)


def chunked(items: Sequence, size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


# Process-global cache: reused by every chunk a worker executes.
_WORKER_CACHE: CompileCache | None = None

# Test seam: called with the chunk at the start of every chunk worker.
# The pool uses the fork start method on Linux, so a monkeypatched hook in
# the parent is visible inside the workers — the degradation tests use it
# to make a worker raise, hang, or die without touching production code.
_worker_fault_hook: Callable[[list], None] | None = None


def _worker_cache() -> CompileCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = CompileCache()
    return _WORKER_CACHE


@contextmanager
def _quiet_observation():
    """Detach every ambient collector — metrics, tracers, progress sinks
    — for the duration.  The calibration probe runs a real evaluation
    whose events must not leak into the run's deterministic metrics,
    trace, or progress stream."""
    registry = active_metrics()
    if registry is not None:
        disable_metrics()
    tracers = list(active_tracers())
    for tracer in tracers:
        remove_tracer(tracer)
    sinks = list(active_progress_sinks())
    for sink in sinks:
        remove_progress_sink(sink)
    try:
        yield
    finally:
        for sink in sinks:
            add_progress_sink(sink)
        for tracer in tracers:
            add_tracer(tracer)
        if registry is not None:
            enable_metrics(registry)


def _worker_collectors(collect: tuple[bool, bool, float]):
    """Enable fresh per-worker collectors per the parent's request."""
    collect_metrics, collect_trace, sample_hz = collect
    registry = enable_metrics() if collect_metrics else None
    tracer = RecordingTracer() if collect_trace else None
    if tracer is not None:
        add_tracer(tracer)
    sampler = None
    if sample_hz > 0:
        # Fork start method: the parent's sampler object was inherited but
        # its daemon thread was not — detach it and arm a fresh one.
        reset_after_fork()
        sampler = Profiler(sample_hz)
        add_tracer(sampler)
        sampler.start_sampling()
    return registry, tracer, sampler


def _worker_teardown(registry, tracer, sampler) -> Profile | None:
    if registry is not None:
        disable_metrics()
    if tracer is not None:
        remove_tracer(tracer)
    if sampler is None:
        return None
    remove_tracer(sampler)
    return sampler.stop_sampling()


def _run_chunk(
    evaluate: Callable,
    chunk: list,
    n: int | None,
    options: EvalOptions,
    collect: tuple[bool, bool, float] = _COLLECT_NONE,
) -> tuple[list, MetricsRegistry | None, list[TraceEvent] | None, Profile | None]:
    """Run ``evaluate(*job, n, options)`` for every job of one chunk —
    :func:`~repro.pipeline.evaluate_corpus` for ``(name, loops,
    machine)`` jobs, :func:`~repro.pipeline.evaluate_program` for
    ``(program, machine)`` jobs — against the process-global cache.
    Returns the results plus whatever the ``collect`` request gathered."""
    if _worker_fault_hook is not None:
        _worker_fault_hook(chunk)
    registry, tracer, sampler = _worker_collectors(collect)
    try:
        worker_options = options.replace(cache=_worker_cache())
        results = [evaluate(*job, n, worker_options) for job in chunk]
    finally:
        samples = _worker_teardown(registry, tracer, sampler)
    events = tracer.events if tracer else None
    return results, registry, events, samples


def _failed_corpus_job(job, index: int, error: BaseException):
    """Placeholder result for a corpus job that still fails after the
    pool's retries and the in-process serial re-run: structured failure,
    no evaluations — the sweep's output stays index-aligned."""
    from repro.pipeline import CorpusEvaluation

    name, _loops, machine = job
    result = CorpusEvaluation(name=name, machine=machine)
    result.failures.append(FailureRecord.from_exception("job", name, index, error))
    return result


def _failed_program_job(job, index: int, error: BaseException):
    from repro.pipeline import ProgramEvaluation

    program, machine = job
    name = getattr(program, "name", None) or "program"
    result = ProgramEvaluation(program=program, machine=machine)
    result.failures.append(FailureRecord.from_exception("job", name, index, error))
    return result


class ParallelEvaluator:
    """Chunked process-pool fan-out with deterministic result order.

    ``policy`` (a :class:`~repro.robust.harden.RobustPolicy`) arms the
    degradation ladder for pooled runs — per-chunk timeout, bounded retry
    with backoff, and per-job quarantine on the serial re-run path.
    ``BrokenProcessPool`` recovery is always on: completed chunks are
    kept and the rest re-run serially in-process.  Without a policy any
    worker exception propagates (the pre-robustness fail-fast).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        min_pool_work: int | None = None,
        policy: RobustPolicy | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if min_pool_work is not None and min_pool_work < 0:
            raise ValueError("min_pool_work must be >= 0")
        self.max_workers = max_workers if max_workers is not None else os.cpu_count() or 1
        self.chunk_size = chunk_size
        #: Constructor override (``0`` forces the pool — the test seam);
        #: ``None`` defers to a per-run calibration probe, then to
        #: :data:`DEFAULT_MIN_POOL_WORK` (see :meth:`_resolve_min_pool_work`).
        self.min_pool_work = min_pool_work
        self.policy = policy
        self.used_pool = False  # whether the last run actually fanned out
        self.fallback_reason: str | None = None  # why the last run stayed serial
        #: How the last run's ``min_pool_work`` was chosen:
        #: ``{"min_pool_work", "source", "per_eval_s", "probe_s"}`` with
        #: source ``constructor`` / ``probe`` / ``default``.
        self.calibration: dict | None = None
        self._progress_done = 0  # jobs finished (live progress events)
        self._progress_total = 0
        self._progress_retries = 0
        self._progress_quarantined = 0

    def _resolve_min_pool_work(
        self, probe: Callable[[], "tuple[float, float] | None"] | None = None
    ) -> int:
        """The constructor value beats the calibration probe beats the
        module default — so a test that built the evaluator with
        ``min_pool_work=0`` keeps forcing the pool.  In auto mode
        ``probe`` measures one real evaluation and
        :func:`calibrate_min_pool_work` turns it into the pool's
        break-even sweep size; the chosen threshold and probe cost land
        on :attr:`calibration` and the run ledger."""
        if self.min_pool_work is not None:
            self.calibration = {
                "min_pool_work": self.min_pool_work, "source": "constructor",
                "per_eval_s": None, "probe_s": None,
            }
            return self.min_pool_work
        if probe is not None:
            measured = probe()
            if measured is not None:
                per_eval_s, probe_s = measured
                threshold = calibrate_min_pool_work(per_eval_s)
                metric_count("perf.parallel.calibrations")
                self.calibration = {
                    "min_pool_work": threshold, "source": "probe",
                    "per_eval_s": per_eval_s, "probe_s": probe_s,
                }
                return threshold
        self.calibration = {
            "min_pool_work": DEFAULT_MIN_POOL_WORK, "source": "default",
            "per_eval_s": None, "probe_s": None,
        }
        return DEFAULT_MIN_POOL_WORK

    def _probe_per_eval(self, jobs, n, options: EvalOptions) -> "tuple[float, float] | None":
        """Time one real loop evaluation (the first non-empty job's first
        loop) with all ambient collectors detached; the result is
        discarded.  Returns ``(per_eval_s, probe_s)`` or ``None`` when
        nothing could be measured — probe failures must never fail the
        sweep, they just fall back to the static default."""
        from repro.pipeline import evaluate_corpus

        for name, loops, machine in jobs:
            if not loops:
                continue
            probe_options = options.replace(
                tracer=None, metrics=None, journal=None, cache=None, jobs=1,
                ledger=None, progress=False, robust=None,
            )
            with _quiet_observation():
                start = time.perf_counter()
                try:
                    evaluate_corpus(name, [loops[0]], machine, n, probe_options)
                except Exception:
                    return None
                probe_s = time.perf_counter() - start
            return probe_s, probe_s
        return None

    def _note_mode(self, mode: str, min_pool_work: int) -> None:
        """Record the chosen execution mode (and how ``min_pool_work``
        was calibrated) on the run ledger, if one is recording this
        invocation (``--ledger``; see :mod:`repro.obs.ledger`)."""
        from repro.obs.ledger import active_recorder

        recorder = active_recorder()
        if recorder is not None:
            detail = mode if self.fallback_reason is None else (
                f"{mode}: {self.fallback_reason}"
            )
            suffix = f"min_pool_work={min_pool_work}"
            if self.calibration is not None and self.calibration["source"] == "probe":
                suffix += (
                    f", calibrated from a "
                    f"{self.calibration['per_eval_s'] * 1e3:.2f}ms/eval probe"
                )
            recorder.note_mode(f"{detail} ({suffix})")
            if self.calibration is not None:
                recorder.note_calibration(self.calibration)

    def _resolve_chunk_size(self, n_jobs: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        # ~4 chunks per worker balances load without drowning in pickling.
        return max(1, -(-n_jobs // (self.max_workers * 4)))

    def _collect_chunks(
        self, pool, futures: list, chunks: list, evaluate, n, options, collect
    ) -> list:
        """Harvest pooled chunk results in order, riding the degradation
        ladder of :class:`~repro.robust.harden.RobustPolicy`.

        Returns one entry per chunk; ``None`` marks a chunk that must be
        re-run serially (hung past the chunk timeout, died with the pool,
        or kept raising through its retries).  Without a policy a worker
        exception propagates unchanged — except ``BrokenProcessPool``,
        whose recovery (keep finished chunks, re-run the dead ones) is
        always on.
        """
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        policy = self.policy
        per_chunk: list = [None] * len(chunks)
        abandoned = False  # a hung worker wedged the pool: stop waiting on it
        broken = False
        try:
            for i, future in enumerate(futures):
                if abandoned or broken:
                    # Keep whatever already finished; everything else re-runs.
                    if future.done():
                        try:
                            per_chunk[i] = future.result(timeout=0)
                        except Exception:
                            per_chunk[i] = None
                    continue
                attempt = 0
                while True:
                    timeout = policy.chunk_timeout if policy is not None else None
                    try:
                        per_chunk[i] = self._wait_result(future, timeout)
                        self._progress_done += len(chunks[i])
                        emit_progress(
                            "sweep",
                            self._progress_done,
                            self._progress_total,
                            message=f"chunk {i + 1}/{len(chunks)} done",
                            retries=self._progress_retries,
                            quarantined=self._progress_quarantined,
                        )
                        break
                    except cf.TimeoutError:
                        # A worker is hung.  result(timeout) cannot kill it —
                        # abandon the pool and finish the sweep in-process.
                        metric_count("robust.parallel.timeouts")
                        self.fallback_reason = (
                            f"chunk {i} exceeded the {policy.chunk_timeout:g}s "
                            "chunk timeout; unfinished chunks re-ran serially"
                        )
                        abandoned = True
                        break
                    except BrokenProcessPool as err:
                        if not broken:
                            metric_count("robust.parallel.broken_pool")
                            self.fallback_reason = (
                                f"process pool broke ({err}); unfinished "
                                "chunks re-ran serially"
                            )
                        broken = True
                        break
                    except Exception:
                        if policy is None:
                            raise  # fail fast: the pre-robustness behaviour
                        if attempt < policy.max_retries:
                            metric_count("robust.parallel.retries")
                            self._progress_retries += 1
                            emit_progress(
                                "sweep",
                                self._progress_done,
                                self._progress_total,
                                message=f"retrying chunk {i + 1}/{len(chunks)}",
                                retries=self._progress_retries,
                                quarantined=self._progress_quarantined,
                            )
                            time.sleep(retry_delay(policy, i, attempt))
                            attempt += 1
                            try:
                                future = pool.submit(
                                    _run_chunk, evaluate, chunks[i], n, options, collect
                                )
                            except RuntimeError:  # pool shut down underneath us
                                broken = True
                                break
                            continue
                        break  # retries exhausted: serial re-run decides
        finally:
            # A wedged pool must not be joined (shutdown(wait=True)
            # would block on the hung worker forever).
            pool.shutdown(wait=not abandoned, cancel_futures=abandoned or broken)
        return per_chunk

    def _wait_result(self, future, timeout: float | None):
        """``future.result(timeout)`` that emits heartbeat progress events
        in 0.2 s slices while sinks are listening — a wedged pool shows up
        live instead of silently eating the whole chunk timeout.  Total
        timeout semantics are unchanged; with no sink installed this is
        exactly ``future.result(timeout)``."""
        import concurrent.futures as cf

        if not active_progress_sinks():
            return future.result(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise cf.TimeoutError()
            slice_s = 0.2 if remaining is None else min(0.2, remaining)
            try:
                return future.result(timeout=slice_s)
            except cf.TimeoutError:
                emit_progress(
                    "sweep",
                    self._progress_done,
                    self._progress_total,
                    message="waiting on pool",
                    retries=self._progress_retries,
                    quarantined=self._progress_quarantined,
                )

    def _serial_chunk(
        self, evaluate, chunk: list, n, options, make_failed, base_index: int
    ):
        """In-process re-run of one failed chunk, one job at a time so a
        single poisoned job quarantines instead of sinking its chunk."""
        results = []
        for j, job in enumerate(chunk):
            try:
                results.append(_run_chunk(evaluate, [job], n, options)[0][0])
            except Exception as err:
                if (
                    self.policy is None
                    or not self.policy.quarantine
                    or make_failed is None
                ):
                    raise
                metric_count("robust.quarantine.jobs")
                self._progress_quarantined += 1
                results.append(make_failed(job, base_index + j, err))
            self._progress_done += 1
            emit_progress(
                "sweep",
                self._progress_done,
                self._progress_total,
                message=f"serial re-run of job {base_index + j + 1}",
                retries=self._progress_retries,
                quarantined=self._progress_quarantined,
            )
        # In-process: collectors landed on the parent directly, so there is
        # nothing to merge (same shape as a pooled chunk result).
        return (results, None, None, None)

    def _serial_run(self, evaluate, jobs, n, options) -> list:
        """In-process execution of the whole run (the serial fallback)."""
        return _run_chunk(evaluate, jobs, n, options)[0]

    def _map_chunks(
        self,
        evaluate: Callable,
        jobs: Sequence,
        n: int | None,
        options: EvalOptions,
        work: int | None = None,
        make_failed: Callable | None = None,
        probe: Callable | None = None,
    ) -> list:
        """Run ``evaluate`` over job chunks, serially or on a process pool;
        either way the flattened results keep the jobs' insertion order.
        ``work`` estimates the sweep size in loop evaluations for the
        ``min_pool_work`` threshold (``None`` = unknown, no threshold).
        ``make_failed(job, index, error)`` builds the quarantine
        placeholder for a job that fails even the serial re-run.
        ``probe`` measures one evaluation for threshold calibration; it
        only runs in auto mode, and only when the pool is a candidate
        (several jobs, several workers, known work estimate)."""
        jobs = list(jobs)
        self.used_pool = False
        self.fallback_reason = None
        self.calibration = None
        self._progress_done = 0
        self._progress_total = len(jobs)
        self._progress_retries = 0
        self._progress_quarantined = 0
        if not (self.max_workers > 1 and len(jobs) > 1 and work is not None):
            probe = None  # the threshold cannot change the outcome: skip it
        min_pool_work = self._resolve_min_pool_work(probe)
        with observation_scope(options):
            # Workers run their own collectors/caches; the options they
            # receive must be picklable and collector-free.
            options = options.replace(
                tracer=None, metrics=None, journal=None, cache=None, jobs=1,
                ledger=None, progress=False,
            )
            if self.max_workers <= 1 or len(jobs) <= 1:
                self.fallback_reason = (
                    "max_workers=1" if self.max_workers <= 1 else "single job"
                )
                metric_count("perf.parallel.mode.serial")
                self._note_mode("serial", min_pool_work)
                # In-process: stages land on the parent collectors directly.
                return self._serial_run(evaluate, jobs, n, options)
            if work is not None and min_pool_work > 0 and work < min_pool_work:
                self.fallback_reason = (
                    f"below min-work threshold ({work} < {min_pool_work} "
                    "loop evaluations)"
                )
                metric_count("perf.parallel.mode.serial")
                self._note_mode("serial", min_pool_work)
                return self._serial_run(evaluate, jobs, n, options)
            chunks = chunked(jobs, self._resolve_chunk_size(len(jobs)))
            registry = active_metrics()
            sampler = active_sampler()
            collect = (
                registry is not None,
                any(isinstance(t, RecordingTracer) for t in active_tracers()),
                sampler.hz if sampler is not None else 0.0,
            )
            try:
                import concurrent.futures as cf

                pool = cf.ProcessPoolExecutor(max_workers=self.max_workers)
                futures = [
                    pool.submit(_run_chunk, evaluate, chunk, n, options, collect)
                    for chunk in chunks
                ]
            except (OSError, ImportError, PermissionError, NotImplementedError, RuntimeError) as err:
                # No usable process pool on this platform: serial fallback.
                self.fallback_reason = f"{type(err).__name__}: {err}"
                metric_count("parallel.pool_fallbacks")
                metric_count("perf.parallel.mode.serial")
                self._note_mode("serial", min_pool_work)
                return self._serial_run(evaluate, jobs, n, options)
            per_chunk = self._collect_chunks(
                pool, futures, chunks, evaluate, n, options, collect
            )
            self.used_pool = True
            rerun = [i for i, chunk_result in enumerate(per_chunk) if chunk_result is None]
            if rerun:
                # Degraded: the unfinished chunks re-run serially in-process
                # (job by job, quarantining per the policy), so the merged
                # output is still complete and in insertion order.
                metric_count("robust.parallel.serial_reruns", len(rerun))
                offsets = [0]
                for chunk in chunks:
                    offsets.append(offsets[-1] + len(chunk))
                for i in rerun:
                    per_chunk[i] = self._serial_chunk(
                        evaluate, chunks[i], n, options, make_failed, offsets[i]
                    )
            metric_count("parallel.pool_runs")
            metric_count("perf.parallel.mode.pool")
            metric_count("parallel.chunks", len(chunks))
            self._note_mode(
                f"pool[{self.max_workers} worker(s), {len(chunks)} chunk(s)]",
                min_pool_work,
            )
            results = []
            for chunk_results, worker_metrics, worker_events, worker_samples in per_chunk:
                results.extend(chunk_results)
                if registry is not None and worker_metrics is not None:
                    registry.merge(worker_metrics)
                if worker_events:
                    ingest_events(worker_events)
                if sampler is not None and worker_samples is not None:
                    sampler.merge_profile(worker_samples)
            return results

    def evaluate_corpora(
        self,
        jobs: Sequence,
        n: int | None = None,
        options: EvalOptions | None = None,
    ) -> "list[CorpusEvaluation]":
        """Evaluate ``(name, loops, machine)`` jobs; results in job order.

        ``options`` forwards to :func:`repro.pipeline.evaluate_corpus`
        (its ``cache``/``tracer``/``metrics``/``jobs`` fields are managed
        by the evaluator).  Each returned corpus carries this run's
        ``fallback_reason``.
        """
        from repro.pipeline import evaluate_corpus

        options = resolve_options(options)
        work = sum(len(loops) for _name, loops, _machine in jobs)
        results = self._map_chunks(
            evaluate_corpus, jobs, n, options, work=work,
            make_failed=_failed_corpus_job,
            probe=lambda: self._probe_per_eval(jobs, n, options),
        )
        for corpus in results:
            corpus.fallback_reason = self.fallback_reason
        return results

    def evaluate_programs(
        self,
        jobs: Sequence,
        n: int | None = None,
        options: EvalOptions | None = None,
    ) -> "list[ProgramEvaluation]":
        """Evaluate ``(program_or_source, machine)`` jobs; results in job
        order.  ``options`` forwards to :func:`repro.pipeline.
        evaluate_program`."""
        from repro.pipeline import evaluate_program

        return self._map_chunks(
            evaluate_program, jobs, n, resolve_options(options),
            make_failed=_failed_program_job,
        )
