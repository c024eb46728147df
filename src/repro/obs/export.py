"""Exporters for trace events and metrics snapshots.

Three output formats (see ``docs/observability.md``):

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format: load the file at ``chrome://tracing`` (or
  https://ui.perfetto.dev) to see the pipeline's span hierarchy on a
  timeline.  Spans become ``"ph": "X"`` *complete* events with
  microsecond ``ts``/``dur``; nesting is inferred from the timestamps.
* :func:`journal_lines` / :func:`write_journal` — a JSON-lines event
  journal: one ``{"kind": "span", ...}`` object per line, interleaved
  with the ``{"kind": "progress", ...}`` heartbeats a
  :class:`~repro.obs.trace.RecordingProgressSink` collected (schema v5),
  terminated by a single ``{"kind": "metrics", ...}`` snapshot when
  metrics were collected.  Grep-able, stream-able, stable key order.
* :func:`metrics_snapshot` — the dict embedded in :mod:`repro.report`
  records (schema v2) and printed by ``repro metrics``.
* :func:`prometheus_text` — the Prometheus text exposition (format
  0.0.4) of a registry, served by ``GET /v1/metrics?format=prom``
  (:mod:`repro.service.server`).
* :func:`stage_table` — the per-stage ``calls / seconds / share`` table
  ``repro --profile`` prints to stderr: recorded spans summed by name.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import ProgressEvent, TraceEvent
from repro.schema import SCHEMA_VERSION, dump_line, stamped

__all__ = [
    "chrome_trace",
    "journal_lines",
    "metrics_snapshot",
    "prometheus_text",
    "stage_table",
    "stage_totals",
    "write_chrome_trace",
    "write_journal",
]


def chrome_trace(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Trace events in the Chrome trace-event format (JSON object form).

    Every span becomes a complete ("ph": "X") event; ``ts`` and ``dur``
    are microseconds as the format requires.  The nesting ``depth`` rides
    along in ``args`` (Chrome itself infers nesting from timestamps).
    """
    trace_events = [
        {
            "name": event.name,
            "cat": "repro",
            "ph": "X",
            "ts": event.start_ns / 1000.0,
            "dur": event.duration_ns / 1000.0,
            "pid": event.pid,
            "tid": event.pid,
            "args": {"depth": event.depth, **event.attrs},
        }
        for event in events
    ]
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"schema_version": SCHEMA_VERSION},
    }


def write_chrome_trace(path: str, events: Iterable[TraceEvent]) -> None:
    """Write :func:`chrome_trace` JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events), handle, indent=1, sort_keys=True)
        handle.write("\n")


def metrics_snapshot(registry: MetricsRegistry) -> dict[str, Any]:
    """The metrics snapshot embedded in report records and journals."""
    return {
        "schema_version": SCHEMA_VERSION,
        "deterministic": registry.deterministic_subset().as_dict(),
        "all": registry.as_dict(),
    }


def _prom_name(name: str) -> str:
    """Dotted metric name → Prometheus metric name (dots/dashes → ``_``)."""
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format (0.0.4).

    Counters map to ``counter`` samples, gauges to ``gauge``,
    fixed-bucket distributions to full ``histogram`` families
    (cumulative ``_bucket{le=...}`` plus ``_sum``/``_count``), and the
    exact value→count histograms to their ``_count``/``_sum`` summaries
    (their exact buckets are a JSON-side concept).  Deterministic: one
    line order for one registry state.
    """
    lines: list[str] = []
    for name in sorted(registry.counters):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {registry.counters[name]}")
    for name in sorted(registry.gauges):
        prom = _prom_name(name)
        summary = registry.gauges[name].summary()
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {summary['value']}")
    for name in sorted(registry.distributions):
        prom = _prom_name(name)
        histogram = registry.distributions[name]
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, occurrences in zip(histogram.bounds, histogram.bucket_counts):
            cumulative += occurrences
            lines.append(f'{prom}_bucket{{le="{bound!r}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {histogram.total}')
        lines.append(f"{prom}_sum {round(histogram.value_sum, 9)}")
        lines.append(f"{prom}_count {histogram.total}")
    for name in sorted(registry.histograms):
        prom = _prom_name(name)
        summary = registry.histogram_summary(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_sum {summary['sum']}")
        lines.append(f"{prom}_count {summary['count']}")
    return "\n".join(lines) + "\n"


def journal_lines(
    events: Iterable[TraceEvent],
    registry: MetricsRegistry | None = None,
    progress: Iterable[ProgressEvent] | None = None,
) -> Iterator[str]:
    """JSON-lines journal: span lines, then progress heartbeats, then a
    final metrics snapshot.

    Every line carries a top-level ``schema_version`` (the v3 contract;
    ``progress`` lines are v5) so a journal can be consumed without
    out-of-band format knowledge."""
    for event in events:
        yield dump_line(stamped("span", event.as_dict()))
    for heartbeat in progress or ():
        yield dump_line(heartbeat.as_dict())
    if registry is not None and registry:
        yield dump_line(stamped("metrics", metrics_snapshot(registry)))


def write_journal(
    path: str,
    events: Iterable[TraceEvent],
    registry: MetricsRegistry | None = None,
    progress: Iterable[ProgressEvent] | None = None,
) -> None:
    """Write the JSON-lines journal to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in journal_lines(events, registry, progress):
            handle.write(line + "\n")


def stage_totals(events: Iterable[TraceEvent]) -> dict[str, dict[str, float]]:
    """``{stage: {"seconds", "calls"}}``: span durations and counts summed
    by span name, in the order each name first finished."""
    totals: dict[str, dict[str, float]] = {}
    for event in events:
        entry = totals.setdefault(event.name, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += event.duration_ns / 1e9
        entry["calls"] += 1
    return totals


def stage_table(events: Iterable[TraceEvent]) -> str:
    """Aligned per-stage table, slowest stage first::

        stage         calls   seconds  share
        schedule        160     0.166  55.3%

    Nested spans each count in full, so ``share`` is of the summed
    stage time, not of the wall clock.
    """
    totals = stage_totals(events)
    if not totals:
        return "no stages recorded"
    total = sum(entry["seconds"] for entry in totals.values())
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["seconds"])
    width = max(len("stage"), *(len(name) for name in totals))
    lines = [f"{'stage':<{width}}  {'calls':>7}  {'seconds':>9}  {'share':>6}"]
    for name, entry in rows:
        lines.append(
            f"{name:<{width}}  {entry['calls']:>7}  {entry['seconds']:>9.4f}"
            f"  {100.0 * entry['seconds'] / (total or 1.0):>5.1f}%"
        )
    lines.append(f"{'total':<{width}}  {'':>7}  {total:>9.4f}")
    return "\n".join(lines)
