"""The stable evaluation-options facade: :class:`EvalOptions`.

PR 1 grew :func:`repro.pipeline.evaluate_corpus` and friends a new
keyword argument per subsystem (``apply_restructuring``, ``fuse``,
``cache``, ``exact_simulation``, ...) — a surface that every further
subsystem would widen.  :class:`EvalOptions` freezes that surface into
one immutable value object that travels through ``compile_loop`` →
``evaluate_loop`` → ``evaluate_corpus`` / ``evaluate_program`` →
:class:`~repro.perf.parallel.ParallelEvaluator` unchanged.

Version 2.0.0 removed the old keyword arguments (and the bool-positional
``compile_loop(loop, True)`` form); passing one is a ``TypeError``.
``docs/api.md`` maps every old keyword onto its ``EvalOptions`` field::

    # 1.x (removed):
    evaluate_corpus(name, loops, machine, apply_restructuring=False)
    # 2.0:
    evaluate_corpus(name, loops, machine,
                    options=EvalOptions(apply_restructuring=False))
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.codegen import FuseStore
from repro.robust.faults import FaultPlan
from repro.robust.harden import RobustPolicy
from repro.sched import Priority, SyncSchedulerOptions

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.obs.explain import DecisionJournal
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.perf.cache import CompileCache

__all__ = ["EvalOptions", "observation_scope", "resolve_options"]


@dataclass(frozen=True)
class EvalOptions:
    """Every knob of the evaluation pipeline in one frozen value.

    Compile-time knobs
        ``apply_restructuring`` — run the induction/expansion/reduction
        restructuring passes; ``fuse`` — where the fused store lands.
    Schedule-time knobs
        ``list_priority`` — baseline list-scheduler priority;
        ``sync_options`` — the sync-aware scheduler's ablation switches;
        ``verify`` — re-check schedules against the DFG.
    Simulation knobs
        ``exact_simulation`` — force the full event walk instead of the
        analytic fast path; ``check_semantics`` — execute against real
        memory and compare with serial execution (slow; tests only).
    Execution strategy
        ``cache`` — a :class:`~repro.perf.cache.CompileCache` shared
        across sweep points; ``jobs`` — worker processes for corpus
        evaluation (1 = in-process); ``batch`` — route corpus evaluation
        through the vectorized batch engine
        (:class:`~repro.perf.batch.BatchEvaluator`): unique loops are
        compiled/scheduled once and every sweep cell is answered by flat
        closed-form array passes.  Results are byte-identical to the
        per-loop path; incompatible requests (fault plans, semantic
        checking, an active decision journal) fall back to per-loop
        evaluation with a recorded ``fallback_reason``.
    Robustness
        ``faults`` — a :class:`~repro.robust.faults.FaultPlan` of
        deliberate mis-synchronization injected into the simulators (a
        non-empty plan disqualifies the analytic fast path and is
        recorded as ``fallback_reason``); ``max_cycles`` — runaway
        backstop for the semantic executor (``None`` derives it via
        :func:`repro.sim.executor.default_max_cycles`); ``robust`` — a
        :class:`~repro.robust.harden.RobustPolicy` of degradation knobs
        for sweep evaluation (timeouts, retries, quarantine).
    Observability
        ``tracer`` — a :class:`~repro.obs.trace.Tracer` installed for the
        duration of the call; ``metrics`` — a
        :class:`~repro.obs.metrics.MetricsRegistry` collecting counters
        and histograms for the duration of the call; ``journal`` — a
        :class:`~repro.obs.explain.DecisionJournal` recording scheduler
        decision provenance and simulator stall chains for the duration
        of the call (``repro explain`` consumes it); ``ledger`` — path of
        the append-only run ledger (``repro runs``/``repro dash`` consume
        it; see :func:`repro.obs.ledger.record_run` — the pipeline does
        not write it implicitly); ``progress`` — render live progress
        heartbeats while a corpus/sweep evaluates (an in-place status
        line on a TTY, plain log lines otherwise).
    """

    apply_restructuring: bool = True
    fuse: FuseStore = FuseStore.BEFORE_SEND
    cache: "CompileCache | None" = None
    exact_simulation: bool = False
    jobs: int = 1
    batch: bool = False
    verify: bool = True
    check_semantics: bool = False
    list_priority: Priority = Priority.PROGRAM_ORDER
    sync_options: SyncSchedulerOptions | None = None
    faults: FaultPlan | None = None
    max_cycles: int | None = None
    robust: RobustPolicy | None = None
    tracer: "Tracer | None" = None
    metrics: "MetricsRegistry | None" = None
    journal: "DecisionJournal | None" = None
    ledger: str | None = None
    progress: bool = False

    #: Fields that attach collectors or execution strategy rather than
    #: select results; excluded from :meth:`stable_hash` and stripped
    #: before options cross a process boundary.
    COLLECTOR_FIELDS = (
        "cache",
        "jobs",
        "batch",
        "robust",
        "tracer",
        "metrics",
        "journal",
        "ledger",
        "progress",
    )

    #: Result-determining fields added after the bench-history baseline
    #: format froze.  At their defaults they are dropped from the
    #: :meth:`stable_hash` payload so historical ``options_hash`` values
    #: (e.g. ``benchmarks/baselines/bench_history.jsonl``) stay valid;
    #: any non-default value hashes differently, as it must.
    HASH_IF_SET_FIELDS = ("faults", "max_cycles")

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1 (or None for the default)")

    def replace(self, **changes: Any) -> "EvalOptions":
        """A copy with ``changes`` applied (the dataclasses idiom)."""
        return dataclasses.replace(self, **changes)

    def as_kwargs(self) -> dict[str, Any]:
        """Field name → value, suitable for ``EvalOptions(**kwargs)``."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def stable_hash(self) -> str:
        """A short stable digest of the *result-determining* fields.

        Collector and execution-strategy fields (``tracer``, ``metrics``,
        ``journal``, ``cache``, ``jobs``) never change results and are
        excluded, so a cached, parallel, or instrumented sweep hashes the
        same as a plain one.  Used to key bench-history records
        (:mod:`repro.obs.regress`).
        """
        payload: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            if f.name in self.COLLECTOR_FIELDS:
                continue
            value = getattr(self, f.name)
            if f.name in self.HASH_IF_SET_FIELDS and value is None:
                continue
            if isinstance(value, enum.Enum):
                value = value.value
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                value = {
                    k: (v.value if isinstance(v, enum.Enum) else v)
                    for k, v in dataclasses.asdict(value).items()
                }
            payload[f.name] = value
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()
        return digest[:12]


def resolve_options(options: EvalOptions | None) -> EvalOptions:
    """``options`` itself, or the defaults when it is ``None``.

    Anything else is a ``TypeError``, so a 1.x bool-positional call such
    as ``compile_loop(loop, False)`` fails loudly instead of being read
    as options.
    """
    if options is None:
        return EvalOptions()
    if not isinstance(options, EvalOptions):
        raise TypeError(
            f"options must be an EvalOptions or None, got {type(options).__name__} "
            "(the 1.x keyword and positional forms were removed in 2.0.0; "
            "see docs/api.md)"
        )
    return options


@contextmanager
def observation_scope(options: EvalOptions) -> Iterator[None]:
    """Install the options' tracer/metrics/journal for the duration of a
    call.

    Re-entrant: a tracer, registry or journal that is already active
    (e.g. an outer driver installed it before calling an inner one with
    the same options) is left alone.
    """
    from repro.obs.explain import active_journal, disable_journal, enable_journal
    from repro.obs.metrics import active_metrics, disable_metrics, enable_metrics
    from repro.obs.trace import active_tracers, add_tracer, remove_tracer

    with ExitStack() as stack:
        tracer = options.tracer
        if tracer is not None and tracer not in active_tracers():
            add_tracer(tracer)
            stack.callback(remove_tracer, tracer)
        registry = options.metrics
        if registry is not None and registry is not active_metrics():
            previous = active_metrics()
            enable_metrics(registry)

            def restore() -> None:
                disable_metrics()
                if previous is not None:
                    enable_metrics(previous)

            stack.callback(restore)
        journal = options.journal
        if journal is not None and journal is not active_journal():
            previous_journal = active_journal()
            enable_journal(journal)

            def restore_journal() -> None:
                disable_journal()
                if previous_journal is not None:
                    enable_journal(previous_journal)

            stack.callback(restore_journal)
        if options.progress:
            from repro.obs.trace import (
                active_progress_sinks,
                add_progress_sink,
                progress_sink_for,
                remove_progress_sink,
            )

            # An outer driver (e.g. the CLI's --progress flag) may have
            # installed a sink already; re-entrancy means leaving it alone.
            if not active_progress_sinks():
                sink = progress_sink_for()
                add_progress_sink(sink)

                def close_sink() -> None:
                    remove_progress_sink(sink)
                    sink.close()

                stack.callback(close_sink)
        yield
