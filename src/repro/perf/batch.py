"""Corpus-level vectorized evaluation: the batch engine.

A sweep grid — (benchmark × machine-config × n) — asks thousands of
cells whose answers are all instances of the Section 2 closed form.  The
per-loop path (:func:`repro.pipeline.evaluate_corpus`) pays a full
Python pipeline dispatch per cell; :class:`BatchEvaluator` restructures
the same work as three flat passes:

1. **Resolve** (job order): each cell's loop is compiled and scheduled
   at most once, keyed by :class:`~repro.perf.cache.CompileCache`
   content hashes, and the schedule's
   :class:`~repro.sim.analytic.ScheduleSignature` is planned once per
   unique signature via :func:`~repro.sim.analytic.closed_form_plan` —
   the *same* eligibility test the per-loop analytic fast path
   delegates to, so the two paths cannot diverge.  Cells whose
   ``(signature, n)`` was already answered reuse the memoized
   simulation; cells the closed form cannot answer exactly (or an
   ``exact_simulation`` request) run the event walk inline.
2. **Flat pass**: every remaining cell is answered by one
   :func:`~repro.sim.analytic.batch_closed_form` call over the whole
   ``(signature, plan, n)`` table — one dispatch for the entire grid.
3. **Replay** (job order): with a metrics registry active, each cell
   re-records the deterministic ``sim.*`` / ``sched.*`` quantities the
   per-loop path would have recorded, so ``repro runs diff`` parity
   holds to the counter.

Results are **byte-identical** to ``evaluate_corpus`` — same
``CorpusEvaluation`` insertion order, same quarantine records, same
``SimulationResult`` fields down to the per-iteration finish times
(differential tests in ``tests/perf/test_batch.py`` enforce all of it).

Requests the closed-form plane cannot honour — an active
:class:`~repro.robust.faults.FaultPlan`, semantic checking, or a
recording :class:`~repro.obs.explain.DecisionJournal` — are *declined*:
:func:`batch_incompatibility` names the reason, ``evaluate_corpus``
falls back to the per-loop path, and the resulting
``CorpusEvaluation.fallback_reason`` records ``"batch engine declined:
<reason>"``.

The evaluator's memos persist for its lifetime, so a second sweep over
the same grid in the same process is answered almost entirely from the
evaluation memo (see ``make bench-perf``'s ``batch_warm`` scenario);
:func:`shared_batch_evaluator` holds the process-wide instance the
``EvalOptions(batch=True)`` route uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.explain import active_journal
from repro.obs.metrics import active_metrics, context_metrics
from repro.obs.metrics import count as metric_count
from repro.obs.trace import emit_progress, span
from repro.options import EvalOptions, observation_scope, resolve_options
from repro.perf.cache import CompileCache, loop_key
from repro.robust.harden import FailureRecord
from repro.sched.schedule import Schedule
from repro.sim.analytic import (
    ClosedFormPlan,
    ScheduleSignature,
    batch_closed_form,
    chain_finish_times,
    closed_form_plan,
)
from repro.sim.multiproc import SimulationResult, simulate_doacross

__all__ = [
    "BatchEvaluator",
    "BatchIncompatible",
    "BatchStats",
    "batch_incompatibility",
    "shared_batch_evaluator",
]


class BatchIncompatible(ValueError):
    """The batch engine cannot honour these options exactly; the caller
    must use the per-loop path (and record why)."""


def batch_incompatibility(options: EvalOptions) -> str | None:
    """Why these options cannot go through the batch engine (``None``
    when they can).

    The engine only declines requests whose *results or side effects*
    the closed-form plane cannot reproduce exactly; everything else —
    exact simulation, quarantine policies, caches, metrics — batches.
    """
    if options.faults:
        return "fault injection active"
    if options.check_semantics:
        return "semantic checking requires per-loop execution"
    if options.journal is not None or active_journal() is not None:
        return "decision journal active"
    return None


@dataclass
class BatchStats:
    """Where the batch engine's answers came from (one engine lifetime)."""

    cells: int = 0  # loop × machine × n cells requested
    eval_hits: int = 0  # answered whole from the evaluation memo
    sim_hits: int = 0  # per-role simulations reused from the memo
    closed_form_rows: int = 0  # per-role simulations from the flat pass
    event_walks: int = 0  # per-role simulations that needed the walk
    flat_passes: int = 0  # batch_closed_form dispatches issued

    def format(self) -> str:
        return (
            f"{self.cells} cells: {self.eval_hits} eval hits, "
            f"{self.sim_hits} sim hits, {self.closed_form_rows} closed-form "
            f"rows ({self.flat_passes} flat passes), "
            f"{self.event_walks} event walks"
        )


@dataclass
class _Cell:
    """One (loop, machine, n) request and how its pieces were sourced."""

    evaluation: "object"  # LoopEvaluation, sims patched in the flat pass
    replay_dispatch: list[str] = field(default_factory=list)
    replay_pending: bool = False
    """The cell hit an evaluation memo entry created earlier in this same
    grid, whose simulations only exist after the flat pass (coalesced
    service submissions duplicate cells; CLI grids never do) — resolve
    its dispatch replay from the evaluation in pass 3."""


@dataclass
class _PendingSim:
    """One unanswered (signature, n) row of the flat pass, plus every
    evaluation slot waiting on it."""

    schedule: Schedule
    signature: ScheduleSignature
    plan: ClosedFormPlan
    n: int
    targets: list[tuple["object", str]] = field(default_factory=list)


def _materialize_sim(
    schedule: Schedule,
    plan: ClosedFormPlan,
    n: int,
    parallel_time: int,
    total_stall: int,
) -> SimulationResult:
    """A :class:`SimulationResult` from flat-pass numbers — field-for-field
    what :func:`repro.sim.multiproc.fast_path_result` builds."""
    length = schedule.length
    stall_by_pair = {pair.pair_id: 0 for pair in schedule.lowered.synced.pairs}
    culprit = plan.stalling
    if culprit is None:
        finish_times = [length] * n
    else:
        finish_times = chain_finish_times(n, culprit.distance, culprit.per_hop(), length)
        stall_by_pair[culprit.pair_id] = total_stall
    return SimulationResult(
        schedule=schedule,
        n=n,
        parallel_time=parallel_time,
        finish_times=finish_times,
        total_stall=total_stall,
        processors=n,
        signal_latency=1,
        dispatch="fast_path",
        stall_by_pair=stall_by_pair,
    )


class BatchEvaluator:
    """Whole-grid corpus evaluation over the closed-form plane.

    ``cache`` is the compile/schedule memo shared across every grid this
    evaluator sees (``EvalOptions.cache`` overrides it per call); the
    evaluation and simulation memos live on the instance and survive
    across sweeps, which is what makes a warm second sweep nearly free.
    """

    def __init__(self, cache: CompileCache | None = None):
        self.cache = cache if cache is not None else CompileCache()
        self.stats = BatchStats()
        # (loop key, restructuring, fuse, machine, options hash, n) →
        # LoopEvaluation, reused verbatim (results are immutable by
        # convention throughout the pipeline).
        self._evals: dict[tuple, "object"] = {}
        # (signature, n, exact) → SimulationResult.
        self._sims: dict[tuple, SimulationResult] = {}
        # signature → plan-or-None, decided once per unique geometry.
        self._plans: dict[ScheduleSignature, ClosedFormPlan | None] = {}

    # -- plumbing ------------------------------------------------------------

    def _plan_for(self, signature: ScheduleSignature) -> ClosedFormPlan | None:
        sentinel = object()
        plan = self._plans.get(signature, sentinel)
        if plan is sentinel:
            plan = closed_form_plan(signature)
            self._plans[signature] = plan
        return plan

    @staticmethod
    def _resolve_n(compiled, n: int | None) -> int:
        """The cell's trip count — same rules (and error text) as
        :func:`repro.sim.multiproc.simulate_doacross`."""
        if n is None:
            from repro.ir.ast_nodes import Const

            loop = compiled.lowered.synced.loop
            if not (isinstance(loop.lower, Const) and isinstance(loop.upper, Const)):
                raise ValueError("symbolic loop bounds require an explicit n")
            n = int(loop.upper.value) - int(loop.lower.value) + 1
        if n < 0:
            raise ValueError("n must be non-negative")
        return n

    def _simulate_role(
        self,
        schedule: Schedule,
        n: int,
        options: EvalOptions,
        cell: _Cell,
        attr: str,
        pending: "dict[tuple, _PendingSim]",
    ) -> None:
        """Source one role's simulation: memo, flat-pass row, or walk."""
        signature = ScheduleSignature.of(schedule)
        sim_key = (signature, n, options.exact_simulation)
        sim = self._sims.get(sim_key)
        if sim is not None:
            self.stats.sim_hits += 1
            metric_count("perf.batch.sim.hit")
            setattr(cell.evaluation, attr, sim)
            cell.replay_dispatch.append(sim.dispatch)
            return
        plan = None if options.exact_simulation else self._plan_for(signature)
        if plan is not None:
            row = pending.get(sim_key)
            if row is None:
                row = _PendingSim(
                    schedule=schedule, signature=signature, plan=plan, n=n
                )
                pending[sim_key] = row
            else:
                self.stats.sim_hits += 1
                metric_count("perf.batch.sim.hit")
            row.targets.append((cell.evaluation, attr))
            cell.replay_dispatch.append("fast_path")
            return
        # Ineligible geometry (or exact_simulation): the event walk answers,
        # counting its own sim.dispatch metric as it runs.
        sim = simulate_doacross(
            schedule, n, exact_simulation=options.exact_simulation
        )
        self.stats.event_walks += 1
        self._sims[sim_key] = sim
        setattr(cell.evaluation, attr, sim)

    # -- the engine ----------------------------------------------------------

    def evaluate_corpus(
        self,
        name: str,
        loops: Sequence,
        machine,
        n: int | None = None,
        options: EvalOptions | None = None,
    ):
        """Batch-evaluate one corpus (see :meth:`evaluate_corpora`)."""
        return self.evaluate_corpora([(name, list(loops), machine)], n, options)[0]

    def evaluate_corpora(
        self,
        jobs: Sequence,
        n: int | None = None,
        options: EvalOptions | None = None,
    ) -> list:
        """Evaluate ``(name, loops, machine)`` jobs over the closed-form
        plane; results in job order, byte-identical to
        :func:`repro.pipeline.evaluate_corpus` run job by job.

        Raises :class:`BatchIncompatible` when
        :func:`batch_incompatibility` names a reason — callers routing
        via ``EvalOptions(batch=True)`` check first and fall back.
        """
        from repro.pipeline import (
            CorpusEvaluation,
            LoopEvaluation,
            _record_evaluation_metrics,
        )

        options = resolve_options(options)
        reason = batch_incompatibility(options)
        if reason is not None:
            raise BatchIncompatible(f"batch engine declined: {reason}")
        cache = options.cache if options.cache is not None else self.cache
        opts_hash = options.stable_hash()
        quarantine = options.robust is not None and options.robust.quarantine
        results: list = []
        cells: list[_Cell] = []
        pending: dict[tuple, _PendingSim] = {}
        with span("batch.evaluate", jobs=len(jobs)), observation_scope(options):
            # Pass 1 — resolve every cell in job order.  Compile/schedule
            # errors quarantine (or raise) exactly as the per-loop path
            # does, at the same loop index.
            for name, loops, machine in jobs:
                corpus = CorpusEvaluation(name=name, machine=machine)
                results.append(corpus)
                for index, loop in enumerate(loops):
                    self.stats.cells += 1
                    metric_count("perf.batch.cells")
                    try:
                        key_prefix = (
                            loop_key(loop),
                            bool(options.apply_restructuring),
                            options.fuse,
                        )
                        compiled = cache.compile(
                            loop, options.apply_restructuring, options.fuse
                        )
                        n_cell = self._resolve_n(compiled, n)
                        eval_key = key_prefix + (machine, opts_hash, n_cell)
                        evaluation = self._evals.get(eval_key)
                        if evaluation is not None:
                            self.stats.eval_hits += 1
                            metric_count("perf.batch.eval.hit")
                            if evaluation.sim_list is None or evaluation.sim_new is None:
                                # Duplicate cell within this grid: the memo
                                # entry's sims land in pass 2.
                                cells.append(
                                    _Cell(evaluation=evaluation, replay_pending=True)
                                )
                            else:
                                cells.append(
                                    _Cell(
                                        evaluation=evaluation,
                                        replay_dispatch=[
                                            evaluation.sim_list.dispatch,
                                            evaluation.sim_new.dispatch,
                                        ],
                                    )
                                )
                            corpus.evaluations.append(evaluation)
                            emit_progress(
                                "corpus", index + 1, len(loops),
                                message=f"{name}@{machine.name}",
                                quarantined=len(corpus.failures),
                            )
                            continue
                        metric_count("perf.batch.eval.miss")
                        sched_list, sched_new = cache.schedules(
                            compiled,
                            machine,
                            options.list_priority,
                            options.sync_options,
                            verify=options.verify,
                        )
                        evaluation = LoopEvaluation(
                            compiled=compiled,
                            machine=machine,
                            n=n_cell,
                            schedule_list=sched_list,
                            schedule_new=sched_new,
                            t_list=0,  # patched after the flat pass
                            t_new=0,
                        )
                        cell = _Cell(evaluation=evaluation)
                        self._simulate_role(
                            sched_list, n_cell, options, cell, "sim_list", pending
                        )
                        self._simulate_role(
                            sched_new, n_cell, options, cell, "sim_new", pending
                        )
                        self._evals[eval_key] = evaluation
                    except Exception as err:
                        if not quarantine:
                            raise
                        metric_count("robust.quarantine.loops")
                        corpus.failures.append(
                            FailureRecord.from_exception("loop", name, index, err)
                        )
                        emit_progress(
                            "corpus", index + 1, len(loops),
                            message=f"{name}@{machine.name}",
                            quarantined=len(corpus.failures),
                        )
                        continue
                    cells.append(cell)
                    corpus.evaluations.append(evaluation)
                    emit_progress(
                        "corpus", index + 1, len(loops),
                        message=f"{name}@{machine.name}",
                        quarantined=len(corpus.failures),
                    )

            # Pass 2 — one flat closed-form dispatch for the whole grid.
            if pending:
                rows = list(pending.values())
                self.stats.flat_passes += 1
                self.stats.closed_form_rows += len(rows)
                metric_count("perf.batch.flat_rows", len(rows))
                with span("sim.closed_form", rows=len(rows)):
                    values = batch_closed_form(
                        [(row.signature, row.plan, row.n) for row in rows]
                    )
                for row, (parallel_time, total_stall) in zip(rows, values):
                    sim = _materialize_sim(
                        row.schedule, row.plan, row.n, parallel_time, total_stall
                    )
                    self._sims[(row.signature, row.n, False)] = sim
                    for evaluation, attr in row.targets:
                        setattr(evaluation, attr, sim)

            # Patch the summary times now every simulation exists.
            for cell in cells:
                evaluation = cell.evaluation
                evaluation.t_list = evaluation.sim_list.parallel_time
                evaluation.t_new = evaluation.sim_new.parallel_time

            # Pass 3 — replay the deterministic per-cell metrics the
            # per-loop path records, including the sim.dispatch counters
            # for memoized / flat-pass simulations (inline event walks
            # already counted their own).
            if active_metrics() is not None or context_metrics() is not None:
                for cell in cells:
                    dispatches = cell.replay_dispatch
                    if cell.replay_pending:
                        dispatches = [
                            cell.evaluation.sim_list.dispatch,
                            cell.evaluation.sim_new.dispatch,
                        ]
                    for dispatch in dispatches:
                        metric_count(f"sim.dispatch.{dispatch}")
                    evaluation = cell.evaluation
                    _record_evaluation_metrics(
                        evaluation.compiled,
                        (
                            ("list", evaluation.schedule_list, evaluation.sim_list),
                            ("new", evaluation.schedule_new, evaluation.sim_new),
                        ),
                    )
        return results


# Process-wide engine behind EvalOptions(batch=True): its memos are what
# make a *second* sweep in the same process nearly free.
_SHARED: BatchEvaluator | None = None


def shared_batch_evaluator() -> BatchEvaluator:
    """The process-wide :class:`BatchEvaluator` used by the
    ``EvalOptions(batch=True)`` route through ``evaluate_corpus``."""
    global _SHARED
    if _SHARED is None:
        _SHARED = BatchEvaluator()
    return _SHARED
