"""Pipeline-wide observability: trace spans, metrics, exporters.

The pipeline is instrumented with two kinds of markers, both free when
disabled (one module-global read):

* :func:`span` — hierarchical trace spans (``compile`` → ``schedule`` →
  ...) emitted by :mod:`repro.pipeline`, both schedulers, the simulator
  and the :mod:`repro.perf` layer.  Any number of :class:`Tracer`\\ s can
  subscribe; :class:`RecordingTracer` collects :class:`TraceEvent`\\ s for
  the exporters — including the ``repro --profile`` stage table.
* :func:`count` / :func:`observe` — counters and histograms on the
  active :class:`MetricsRegistry`: wait-stall cycles per sync pair,
  Wait→Send spans ``i − j``, run-time LBD vs LFD pair counts, ready-list
  lengths, cache hit/miss, fast-path vs event-walk dispatch.  Registries
  merge deterministically across :class:`~repro.perf.parallel.
  ParallelEvaluator` workers.

Both seams also have **context-local scopes** (:func:`tracer_scope`,
:func:`metrics_scope`, built on ``contextvars``) so concurrent threads —
the service's handler threads, its batcher — can each collect their own
request's spans and metrics without sharing one global collector; the
disabled cost stays two module-global reads.

Exporters (:mod:`repro.obs.export`): Chrome ``chrome://tracing`` trace
files (``repro --trace-out FILE``), a JSON-lines event journal
(``repro --journal-out FILE``), the per-stage table of
``repro --profile`` and the metrics snapshot embedded in
:mod:`repro.report` records and printed by ``repro metrics``.  See
``docs/observability.md`` for the guided tour.

Two sibling subsystems build on this foundation:

* :mod:`repro.obs.explain` — decision provenance: a
  :class:`DecisionJournal` records *why* each instruction was placed
  where it was and *which* producer send each stalled iteration waited
  on; ``repro explain`` renders the answers.
* :mod:`repro.obs.regress` — the benchmark-regression tracker behind
  ``repro bench record / diff / check``: an append-only JSONL history
  with an exact gate on cycle counts and a threshold gate on wall-clock.
* :mod:`repro.obs.ledger` — the run ledger behind ``repro runs`` and
  ``--ledger``: one schema-versioned JSONL record per invocation
  (options hash, git SHA, machine, wall time, outcome, quarantined
  failures, final metrics snapshot, artifacts).
* :mod:`repro.obs.dash` — ``repro dash``: the ledger plus the bench
  history rendered as one self-contained HTML dashboard.
* :mod:`repro.obs.prof` — the continuous sampling profiler behind
  ``repro prof record / top / diff`` and ``repro serve --profile-hz``:
  a daemon thread samples every thread's stack, aggregates collapsed
  stacks into schema-stamped profiles, attributes samples to pipeline
  stages via the span seam, and renders inline SVG flame graphs.

Live progress rides the same module-global seam as tracing: the
pipeline calls :func:`emit_progress`, and an installed
:class:`ProgressSink` (in-place TTY status line, plain log lines, or the
recording sink that feeds ``--journal-out``) renders the heartbeat.
"""

from repro.obs.dash import build_dashboard, build_live_dashboard, walkthrough_timelines
from repro.obs.explain import (
    Decision,
    DecisionJournal,
    StallLink,
    active_journal,
    disable_journal,
    enable_journal,
    explain_op,
    explain_pair,
    explain_summary,
    journal_scope,
    pair_span_bound,
)
from repro.obs.export import (
    chrome_trace,
    journal_lines,
    metrics_snapshot,
    prometheus_text,
    stage_table,
    write_chrome_trace,
    write_journal,
)
from repro.obs.ledger import (
    DEFAULT_LEDGER,
    RunLedger,
    RunRecord,
    RunRecorder,
    active_recorder,
    diff_run_metrics,
    format_run_diff,
    record_run,
)
from repro.obs.prof import (
    FrameDelta,
    FrameStat,
    Profile,
    ProfileStore,
    Profiler,
    active_sampler,
    busy_samples,
    diff_profiles,
    flamegraph_svg,
    folded_lines,
    format_profile_diff,
    frame_stats,
    profile_top_table,
    start_sampler,
    stop_sampler,
)
from repro.obs.regress import (
    BenchHistory,
    BenchPoint,
    BenchRun,
    check_run,
    collect_run,
    diff_runs,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    DETERMINISTIC_NAMESPACES,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    context_metrics,
    count,
    disable_metrics,
    enable_metrics,
    metrics_scope,
    observe,
    percentile,
    record_value,
    set_gauge,
)
from repro.obs.trace import (
    LogProgressSink,
    ProgressEvent,
    ProgressSink,
    RecordingProgressSink,
    RecordingTracer,
    TTYProgressSink,
    TraceEvent,
    Tracer,
    active_progress_sinks,
    active_tracers,
    add_progress_sink,
    add_tracer,
    context_tracers,
    disable_tracing,
    emit_progress,
    enable_tracing,
    ingest_events,
    progress_sink_for,
    remove_progress_sink,
    remove_tracer,
    span,
    tracer_scope,
)

__all__ = [
    "BenchHistory",
    "BenchPoint",
    "BenchRun",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_LEDGER",
    "DETERMINISTIC_NAMESPACES",
    "Decision",
    "DecisionJournal",
    "FrameDelta",
    "FrameStat",
    "Gauge",
    "Histogram",
    "LogProgressSink",
    "MetricsRegistry",
    "Profile",
    "ProfileStore",
    "Profiler",
    "ProgressEvent",
    "ProgressSink",
    "RecordingProgressSink",
    "RecordingTracer",
    "RunLedger",
    "RunRecord",
    "RunRecorder",
    "StallLink",
    "TTYProgressSink",
    "TraceEvent",
    "Tracer",
    "active_journal",
    "active_metrics",
    "active_progress_sinks",
    "active_recorder",
    "active_sampler",
    "active_tracers",
    "add_progress_sink",
    "add_tracer",
    "build_dashboard",
    "build_live_dashboard",
    "busy_samples",
    "check_run",
    "chrome_trace",
    "collect_run",
    "context_metrics",
    "context_tracers",
    "count",
    "diff_profiles",
    "diff_run_metrics",
    "diff_runs",
    "disable_journal",
    "disable_metrics",
    "disable_tracing",
    "emit_progress",
    "enable_journal",
    "enable_metrics",
    "enable_tracing",
    "explain_op",
    "explain_pair",
    "explain_summary",
    "flamegraph_svg",
    "folded_lines",
    "format_profile_diff",
    "format_run_diff",
    "frame_stats",
    "ingest_events",
    "journal_lines",
    "journal_scope",
    "metrics_scope",
    "metrics_snapshot",
    "observe",
    "pair_span_bound",
    "percentile",
    "profile_top_table",
    "progress_sink_for",
    "prometheus_text",
    "record_run",
    "record_value",
    "remove_progress_sink",
    "remove_tracer",
    "set_gauge",
    "span",
    "stage_table",
    "start_sampler",
    "stop_sampler",
    "tracer_scope",
    "walkthrough_timelines",
    "write_chrome_trace",
    "write_journal",
]
