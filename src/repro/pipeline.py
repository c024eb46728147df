"""End-to-end pipeline: the paper's Fig. 5 statistical model as a library.

``source text → parse → dependence analysis → restructuring (induction /
reduction / scalar expansion) → synchronization insertion → DLX lowering →
DFG with sync arcs → schedule (list and sync-aware) → DOACROSS timing
simulation``.

:func:`compile_loop` runs the front half once; :func:`evaluate_loop` runs
both schedulers on a machine and simulates; :func:`evaluate_corpus` sums a
benchmark corpus the way the paper's Table 2 does.

Every driver takes a single frozen :class:`~repro.options.EvalOptions`
value (the stable facade; see ``docs/api.md``).  The pre-``EvalOptions``
keyword arguments (``apply_restructuring``, ``fuse``, ``cache``,
``exact_simulation``, ...) were removed in 2.0.0.

Observability (see :mod:`repro.obs` and ``docs/observability.md``): every
stage is wrapped in a :func:`repro.obs.span` trace span, and
:func:`evaluate_loop` records the paper's per-loop quantities (wait-stall
cycles per sync pair, Wait→Send spans, run-time LBD/LFD pair counts) on
the active metrics registry.  Both are no-ops unless a tracer/registry is
installed, so the instrumented pipeline is exactly as fast as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen import LoweredLoop, lower_loop
from repro.deps import LoopClass
from repro.dfg import DataFlowGraph, build_dfg
from repro.ir.ast_nodes import Loop
from repro.ir.parser import parse_loop
from repro.obs.metrics import active_metrics, context_metrics
from repro.obs.metrics import count as metric_count
from repro.obs.metrics import observe as metric_observe
from repro.obs.trace import emit_progress, span
from repro.options import EvalOptions, resolve_options
from repro.options import observation_scope as _collectors
from repro.robust.harden import FailureRecord
from repro.sched import (
    MachineConfig,
    Schedule,
    assert_valid,
    list_schedule,
    sync_schedule,
)
from repro.sim import MemoryImage, execute_parallel, run_serial, simulate_doacross
from repro.sim.metrics import improvement_percent
from repro.sim.multiproc import SimulationResult
from repro.sync import SyncedLoop, insert_synchronization
from repro.transforms import RestructureResult, restructure


@dataclass
class CompiledLoop:
    """Everything machine-independent about one loop."""

    source: Loop
    restructured: RestructureResult
    synced: SyncedLoop
    lowered: LoweredLoop
    graph: DataFlowGraph

    @property
    def classification(self) -> LoopClass:
        return self.restructured.classification


def compile_loop(loop: Loop | str, options: EvalOptions | None = None) -> CompiledLoop:
    """Front half of the pipeline.  Raises ``ValueError`` for SERIAL loops
    (the paper drops them from the study too).

    ``options`` carries the compile knobs (``apply_restructuring``,
    ``fuse``).
    """
    options = resolve_options(options)
    with span("compile"), _collectors(options):
        if isinstance(loop, str):
            with span("parse"):
                loop = parse_loop(loop)
        with span("deps"):
            if options.apply_restructuring:
                restructured = restructure(loop)
            else:
                restructured = restructure(
                    loop,
                    apply_induction=False,
                    apply_expansion=False,
                    apply_reduction=False,
                )
        if restructured.classification is LoopClass.SERIAL:
            raise ValueError(
                "loop is SERIAL after restructuring; cannot be DOACROSS-scheduled"
            )
        with span("sync"):
            synced = insert_synchronization(restructured.loop, restructured.graph)
        with span("lower"):
            lowered = lower_loop(synced, fuse=options.fuse)
        with span("dfg"):
            graph = build_dfg(lowered)
        return CompiledLoop(
            source=loop,
            restructured=restructured,
            synced=synced,
            lowered=lowered,
            graph=graph,
        )


@dataclass
class LoopEvaluation:
    """Both schedulers' results for one loop on one machine."""

    compiled: CompiledLoop
    machine: MachineConfig
    n: int
    schedule_list: Schedule
    schedule_new: Schedule
    t_list: int
    t_new: int
    sim_list: SimulationResult | None = None
    sim_new: SimulationResult | None = None

    @property
    def improvement(self) -> float:
        return improvement_percent(self.t_list, self.t_new)


def _record_evaluation_metrics(
    compiled: CompiledLoop,
    results: tuple[tuple[str, Schedule, SimulationResult], ...],
) -> None:
    """The paper's per-loop quantities, on the active metrics registry.

    Everything here is a pure function of (loop, machine, options), so
    these ``sim.*`` / ``sched.*`` aggregates are identical however the
    sweep was cached or partitioned (see
    :data:`repro.obs.metrics.DETERMINISTIC_NAMESPACES`).
    """
    pairs = compiled.synced.pairs
    for pair in pairs:
        metric_count(
            "sched.pairs_lexical_lbd"
            if pair.is_lexically_backward
            else "sched.pairs_lexical_lfd"
        )
    for role, schedule, sim in results:
        runtime_lbd = schedule.runtime_lbd_pairs()
        metric_count(f"sched.{role}.runtime_lbd_pairs", len(runtime_lbd))
        metric_count(f"sched.{role}.runtime_lfd_pairs", len(pairs) - len(runtime_lbd))
        for pair in pairs:
            # The paper's i − j span: send issue cycle minus wait issue cycle.
            metric_observe(
                f"sched.{role}.wait_send_span",
                schedule.send_cycle(pair.pair_id) - schedule.wait_cycle(pair.pair_id),
            )
        metric_count(f"sim.{role}.stall_cycles", sim.total_stall)
        for stall in sim.stall_by_pair.values():
            metric_observe(f"sim.{role}.pair_stall_cycles", stall)


def evaluate_loop(
    compiled: CompiledLoop,
    machine: MachineConfig,
    n: int | None = None,
    options: EvalOptions | None = None,
) -> LoopEvaluation:
    """Schedule with both algorithms and simulate the DOACROSS execution.

    All knobs (``verify``, ``check_semantics``, ``list_priority``,
    ``sync_options``, ``exact_simulation``, ``cache``) live on
    ``options``.
    """
    options = resolve_options(options)
    with span("evaluate_loop"), _collectors(options):
        return _evaluate_loop(compiled, machine, n, options)


def _evaluate_loop(
    compiled: CompiledLoop,
    machine: MachineConfig,
    n: int | None,
    options: EvalOptions,
) -> LoopEvaluation:
    if options.cache is not None:
        with span("schedule"):
            sched_list, sched_new = options.cache.schedules(
                compiled,
                machine,
                options.list_priority,
                options.sync_options,
                verify=options.verify,
            )
    else:
        with span("schedule"):
            sched_list = list_schedule(
                compiled.lowered, compiled.graph, machine, options.list_priority
            )
            sched_new = sync_schedule(
                compiled.lowered, compiled.graph, machine, options.sync_options
            )
        if options.verify:
            with span("verify"):
                assert_valid(sched_list, compiled.graph)
                assert_valid(sched_new, compiled.graph)
    with span("simulate"):
        sim_list = simulate_doacross(
            sched_list, n, exact_simulation=options.exact_simulation,
            faults=options.faults,
        )
        sim_new = simulate_doacross(
            sched_new, n, exact_simulation=options.exact_simulation,
            faults=options.faults,
        )
    if active_metrics() is not None or context_metrics() is not None:
        _record_evaluation_metrics(
            compiled, (("list", sched_list, sim_list), ("new", sched_new, sim_new))
        )
    if options.check_semantics:
        with span("semantics"):
            reference = run_serial(compiled.synced.loop, MemoryImage())
            for sched, sim in ((sched_list, sim_list), (sched_new, sim_new)):
                result = execute_parallel(
                    sched,
                    MemoryImage(),
                    n,
                    max_cycles=options.max_cycles,
                    faults=options.faults,
                    graph=compiled.graph,
                )
                if result.memory != reference:
                    raise AssertionError(
                        f"{sched.scheduler_name}: parallel memory differs from serial: "
                        f"{result.memory.diff(reference)[:5]}"
                    )
                if result.parallel_time != sim.parallel_time:
                    raise AssertionError(
                        f"{sched.scheduler_name}: executor time {result.parallel_time} "
                        f"!= timing simulation {sim.parallel_time}"
                    )
    return LoopEvaluation(
        compiled=compiled,
        machine=machine,
        n=sim_list.n,
        schedule_list=sched_list,
        schedule_new=sched_new,
        t_list=sim_list.parallel_time,
        t_new=sim_new.parallel_time,
        sim_list=sim_list,
        sim_new=sim_new,
    )


@dataclass
class CorpusEvaluation:
    """Summed times over a corpus on one machine (one Table 2 cell pair)."""

    name: str
    machine: MachineConfig
    evaluations: list[LoopEvaluation] = field(default_factory=list)
    fallback_reason: str | None = None
    """Why a requested process-pool fan-out stayed serial (``None`` when
    the evaluation ran as requested); see
    :attr:`repro.perf.parallel.ParallelEvaluator.fallback_reason`."""
    failures: list[FailureRecord] = field(default_factory=list)
    """Loops quarantined under ``EvalOptions(robust=RobustPolicy(...))``:
    one structured record per loop whose evaluation raised, instead of the
    exception killing the whole sweep.  Empty without a policy (the
    exception propagates, the pre-robustness behaviour)."""

    @property
    def t_list(self) -> int:
        return sum(e.t_list for e in self.evaluations)

    @property
    def t_new(self) -> int:
        return sum(e.t_new for e in self.evaluations)

    @property
    def improvement(self) -> float:
        return improvement_percent(self.t_list, self.t_new)


def _compile(loop: Loop | str, options: EvalOptions) -> CompiledLoop:
    if options.cache is not None:
        return options.cache.compile(loop, options.apply_restructuring, options.fuse)
    return compile_loop(loop, options)


def evaluate_corpus(
    name: str,
    loops: list[Loop],
    machine: MachineConfig,
    n: int | None = None,
    options: EvalOptions | None = None,
) -> CorpusEvaluation:
    """Compile and evaluate every loop of a corpus on one machine.

    With ``options.batch`` the whole corpus is answered by the
    vectorized :class:`~repro.perf.batch.BatchEvaluator` (compile and
    schedule each unique loop once, one flat closed-form pass for every
    cell); requests the batch engine cannot honour exactly fall back to
    the per-loop path below with ``fallback_reason`` recording why.
    With ``options.jobs > 1`` the loops are fanned out over a
    :class:`~repro.perf.parallel.ParallelEvaluator` (results are
    identical to the serial order either way).
    """
    options = resolve_options(options)
    batch_fallback: str | None = None
    if options.batch:
        from repro.perf.batch import batch_incompatibility, shared_batch_evaluator

        reason = batch_incompatibility(options)
        if reason is None:
            return shared_batch_evaluator().evaluate_corpus(
                name, loops, machine, n, options
            )
        batch_fallback = f"batch engine declined: {reason}"
        metric_count("perf.batch.fallback")
    with span("evaluate_corpus", corpus=name, machine=machine.name), _collectors(
        options
    ):
        if options.jobs > 1 and len(loops) > 1:
            from repro.perf.parallel import ParallelEvaluator

            evaluator = ParallelEvaluator(
                max_workers=options.jobs, policy=options.robust
            )
            per_loop = evaluator.evaluate_corpora(
                [(name, [loop], machine) for loop in loops],
                n=n,
                options=options.replace(
                    jobs=1, tracer=None, metrics=None, journal=None, cache=None,
                    ledger=None, progress=False,
                ),
            )
            pool_reason = evaluator.fallback_reason
            if batch_fallback is not None:
                pool_reason = (
                    batch_fallback
                    if pool_reason is None
                    else f"{batch_fallback}; {pool_reason}"
                )
            result = CorpusEvaluation(
                name=name, machine=machine, fallback_reason=pool_reason
            )
            for index, sub in enumerate(per_loop):
                result.evaluations.extend(sub.evaluations)
                # Each fanned-out job holds exactly one loop, so its failure
                # records re-index to the loop's position in this corpus.
                result.failures.extend(
                    FailureRecord(
                        kind=f.kind,
                        name=f.name,
                        index=index,
                        error_type=f.error_type,
                        message=f.message,
                    )
                    for f in sub.failures
                )
            return result
        result = CorpusEvaluation(
            name=name, machine=machine, fallback_reason=batch_fallback
        )
        loop_options = options if options.jobs == 1 else options.replace(jobs=1)
        quarantine = options.robust is not None and options.robust.quarantine
        for index, loop in enumerate(loops):
            try:
                compiled = _compile(loop, loop_options)
                with span("evaluate_loop"):
                    evaluation = _evaluate_loop(compiled, machine, n, loop_options)
            except Exception as err:
                if not quarantine:
                    raise
                metric_count("robust.quarantine.loops")
                result.failures.append(
                    FailureRecord.from_exception("loop", name, index, err)
                )
                emit_progress(
                    "corpus", index + 1, len(loops),
                    message=f"{name}@{machine.name}",
                    quarantined=len(result.failures),
                )
                continue
            result.evaluations.append(evaluation)
            emit_progress(
                "corpus", index + 1, len(loops),
                message=f"{name}@{machine.name}",
                quarantined=len(result.failures),
            )
        return result


@dataclass
class ProgramEvaluation:
    """Per-loop results for one compilation unit, plus the skipped loops.

    The paper's methodology: DOACROSS loops are scheduled and measured;
    DOALL loops need no synchronization (both schedulers tie at ``l``, so
    they are measured but contribute no improvement); SERIAL loops are
    recorded and skipped, exactly like the study's unparallelizable
    leftovers.
    """

    program: "object"
    machine: MachineConfig
    evaluations: list[LoopEvaluation] = field(default_factory=list)
    serial_loops: list[int] = field(default_factory=list)  # loop indexes skipped
    failures: list[FailureRecord] = field(default_factory=list)
    """Job-level quarantine records from a hardened sweep (see
    :attr:`CorpusEvaluation.failures`)."""

    @property
    def t_list(self) -> int:
        return sum(e.t_list for e in self.evaluations)

    @property
    def t_new(self) -> int:
        return sum(e.t_new for e in self.evaluations)

    @property
    def improvement(self) -> float:
        return improvement_percent(self.t_list, self.t_new)


def evaluate_program(
    program_or_source,
    machine: MachineConfig,
    n: int | None = None,
    options: EvalOptions | None = None,
) -> ProgramEvaluation:
    """Evaluate every loop of a compilation unit (Fig. 5 at program scope).

    ``options`` behaves as in :func:`evaluate_corpus` (``jobs`` applies
    to corpus/sweep drivers, not within one program).
    """
    from repro.ir.parser import parse_program

    options = resolve_options(options)
    with span("evaluate_program", machine=machine.name), _collectors(options):
        if isinstance(program_or_source, str):
            with span("parse"):
                program = parse_program(program_or_source)
        else:
            program = program_or_source
        result = ProgramEvaluation(program=program, machine=machine)
        for index, loop in enumerate(program.loops):
            try:
                compiled = _compile(loop, options)
            except ValueError:
                result.serial_loops.append(index)
                continue
            with span("evaluate_loop"):
                result.evaluations.append(
                    _evaluate_loop(compiled, machine, n, options)
                )
        return result
