"""Hierarchical trace spans for the whole pipeline.

The pipeline marks its stages with the :func:`span` context manager
(``with span("schedule"): ...``).  When no tracer is installed the marker
costs one module-global read, so instrumented code is free in
production.  When one or
more :class:`Tracer` instances are installed (via :func:`enable_tracing`
or :func:`add_tracer`), every span is reported to each of them.

Two tracer families ship with the package:

* :class:`RecordingTracer` (here) — records every span as a
  :class:`TraceEvent` with nanosecond timestamps, nesting depth and
  process id; the events feed the exporters in :mod:`repro.obs.export`
  (Chrome ``chrome://tracing`` format, JSON-lines journal, and the
  per-stage table ``repro --profile`` prints).
* :class:`repro.obs.prof.Profiler` — the sampling profiler, which uses
  the span seam only to attribute its stack samples to stages.

A ``Tracer`` is anything with ``start(name, attrs) -> token`` and
``finish(name, token, attrs)``; exceptions inside a span still finish it.

Alongside the span seam lives the **progress seam** (PR 5): long-running
drivers (:func:`repro.pipeline.evaluate_corpus`,
:class:`repro.perf.parallel.ParallelEvaluator`) report structured
:class:`ProgressEvent` heartbeats — loops/chunks done vs total, retries,
quarantines — through :func:`emit_progress`.  Like spans, the emit costs
one module-global read when no :class:`ProgressSink` is installed.  Three
sinks ship here: :class:`TTYProgressSink` (an in-place ``\\r`` status
line for interactive terminals), :class:`LogProgressSink` (periodic
plain lines — no control characters — for CI/pytest captured output) and
:class:`RecordingProgressSink` (collects events for the JSON-lines
journal; see :func:`repro.obs.export.journal_lines`).
:func:`progress_sink_for` picks the right renderer for a stream.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, TextIO

from repro.schema import stamped

__all__ = [
    "LogProgressSink",
    "ProgressEvent",
    "ProgressSink",
    "RecordingProgressSink",
    "RecordingTracer",
    "TTYProgressSink",
    "TraceEvent",
    "Tracer",
    "active_progress_sinks",
    "active_tracers",
    "add_progress_sink",
    "add_tracer",
    "context_tracers",
    "disable_tracing",
    "emit_progress",
    "enable_tracing",
    "ingest_events",
    "progress_sink_for",
    "remove_progress_sink",
    "remove_tracer",
    "span",
    "tracer_scope",
]


@dataclass
class TraceEvent:
    """One completed span: ``[start_ns, start_ns + duration_ns)``."""

    name: str
    start_ns: int
    duration_ns: int
    depth: int  # nesting level at the time the span opened (0 = root)
    pid: int
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "depth": self.depth,
            "pid": self.pid,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Base tracer: subclasses override :meth:`start` / :meth:`finish`.

    ``start`` returns an opaque token that is handed back to ``finish``;
    the default implementation is a no-op pair, so a subclass may override
    either or both.
    """

    def start(self, name: str, attrs: dict[str, Any] | None) -> Any:  # pragma: no cover
        return None

    def finish(self, name: str, token: Any, attrs: dict[str, Any] | None) -> None:
        """Called when the span closes (even on exceptions)."""


class RecordingTracer(Tracer):
    """Collects every span as a :class:`TraceEvent` for export."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._depth = 0

    def start(self, name: str, attrs: dict[str, Any] | None) -> tuple[int, int]:
        depth = self._depth
        self._depth += 1
        return depth, time.perf_counter_ns()

    def finish(self, name: str, token: tuple[int, int], attrs: dict[str, Any] | None) -> None:
        depth, start_ns = token
        self._depth = depth
        self.events.append(
            TraceEvent(
                name=name,
                start_ns=start_ns,
                duration_ns=time.perf_counter_ns() - start_ns,
                depth=depth,
                pid=os.getpid(),
                attrs=dict(attrs) if attrs else {},
            )
        )

    def add_events(self, events: list[TraceEvent]) -> None:
        """Fold in completed events from elsewhere (a worker process)."""
        self.events.extend(events)

    def clear(self) -> None:
        self.events.clear()
        self._depth = 0


# The active tracers.  A tuple (not a list) so `span` reads one immutable
# snapshot; installation replaces the whole tuple.
_TRACERS: tuple[Tracer, ...] = ()


def add_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer``; spans report to every installed tracer."""
    global _TRACERS
    if tracer not in _TRACERS:
        _TRACERS = _TRACERS + (tracer,)
    return tracer


def remove_tracer(tracer: Tracer) -> None:
    """Uninstall ``tracer`` (a no-op when it is not installed)."""
    global _TRACERS
    _TRACERS = tuple(t for t in _TRACERS if t is not tracer)


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (default: a fresh :class:`RecordingTracer`)."""
    return add_tracer(tracer if tracer is not None else RecordingTracer())


def disable_tracing() -> tuple[Tracer, ...]:
    """Uninstall every tracer; returns the tracers that were active."""
    global _TRACERS
    previous, _TRACERS = _TRACERS, ()
    return previous


def active_tracers() -> tuple[Tracer, ...]:
    return _TRACERS


# Context-local tracers (PR 8): the service wraps each request's
# evaluation in tracer_scope(), so concurrent handler threads each
# collect their own spans without sharing one global tracer.  _SCOPES
# counts entered scopes process-wide so the disabled span() path stays
# at two module-global reads (no ContextVar lookup until a scope opens).
_CONTEXT_TRACERS: ContextVar[tuple[Tracer, ...]] = ContextVar(
    "repro_obs_tracer_scope", default=()
)
_SCOPES = 0
_SCOPES_LOCK = threading.Lock()


@contextmanager
def tracer_scope(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Report spans to ``tracer`` (default: a fresh
    :class:`RecordingTracer`) for this context only.

    Context-local (:mod:`contextvars`): invisible to other threads, so
    each service request traces into its own collector while any
    globally installed tracers keep seeing everything.  Scopes nest —
    spans report to every tracer on the context stack.
    """
    global _SCOPES
    tracer = tracer if tracer is not None else RecordingTracer()
    token = _CONTEXT_TRACERS.set(_CONTEXT_TRACERS.get() + (tracer,))
    with _SCOPES_LOCK:
        _SCOPES += 1
    try:
        yield tracer
    finally:
        with _SCOPES_LOCK:
            _SCOPES -= 1
        _CONTEXT_TRACERS.reset(token)


def context_tracers() -> tuple[Tracer, ...]:
    """The tracers installed by enclosing :func:`tracer_scope` calls."""
    return _CONTEXT_TRACERS.get()


def ingest_events(events: list[TraceEvent]) -> None:
    """Deliver remotely-collected events (e.g. from a
    :class:`~repro.perf.parallel.ParallelEvaluator` worker) to every
    active tracer that records events."""
    if not events:
        return
    tracers = _TRACERS
    if _SCOPES:
        tracers = tracers + _CONTEXT_TRACERS.get()
    for tracer in tracers:
        add = getattr(tracer, "add_events", None)
        if add is not None:
            add(events)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Mark a pipeline stage; no-op (two global reads) when tracing is off."""
    tracers = _TRACERS
    if _SCOPES:
        tracers = tracers + _CONTEXT_TRACERS.get()
    if not tracers:
        yield
        return
    tokens = [(tracer, tracer.start(name, attrs)) for tracer in tracers]
    try:
        yield
    finally:
        for tracer, token in reversed(tokens):
            tracer.finish(name, token, attrs)


# -- live progress events (the ProgressSink seam) ------------------------------


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat from a long-running driver.

    ``phase`` names the loop that is progressing (``"corpus"`` — loops
    within one corpus; ``"sweep"`` — chunks across a parallel fan-out),
    ``done``/``total`` its position, ``message`` the current work item
    (loop index, chunk, or a "waiting on chunk k" heartbeat while a
    pooled worker is silent — the live view of PR 4's degradation
    ladder).  ``retries``/``quarantined`` carry the cumulative
    degradation counters at emit time.
    """

    phase: str
    done: int
    total: int
    message: str = ""
    retries: int = 0
    quarantined: int = 0
    timestamp: float = field(default_factory=time.time)

    def as_dict(self) -> dict[str, Any]:
        """The journaled v5 ``progress`` line (see :mod:`repro.schema`)."""
        return stamped(
            "progress",
            {
                "phase": self.phase,
                "done": self.done,
                "total": self.total,
                "message": self.message,
                "retries": self.retries,
                "quarantined": self.quarantined,
                "timestamp": self.timestamp,
            },
        )

    def render(self) -> str:
        """One human-readable status line (no control characters)."""
        text = f"[{self.phase}] {self.done}/{self.total}"
        if self.message:
            text += f" {self.message}"
        if self.retries:
            text += f" retries={self.retries}"
        if self.quarantined:
            text += f" quarantined={self.quarantined}"
        return text


class ProgressSink:
    """Receives :class:`ProgressEvent` heartbeats; subclass to render."""

    def emit(self, event: ProgressEvent) -> None:  # pragma: no cover - interface
        """Handle one event (called synchronously on the driver thread)."""

    def close(self) -> None:
        """Flush any partial output (e.g. terminate an in-place line)."""


class RecordingProgressSink(ProgressSink):
    """Collects every event — feeds the JSON-lines journal and tests."""

    def __init__(self) -> None:
        self.events: list[ProgressEvent] = []

    def emit(self, event: ProgressEvent) -> None:
        self.events.append(event)


class TTYProgressSink(ProgressSink):
    """In-place ``\\r`` status line for interactive terminals.

    Events are throttled to ``min_interval`` seconds except for the
    terminal event of a phase (``done == total``), so a tight loop does
    not spend its time repainting.  :meth:`close` ends the line with a
    newline so subsequent output starts clean.
    """

    def __init__(self, stream: TextIO | None = None, min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        # None, not 0.0: on a freshly booted clock monotonic() can be
        # below min_interval, and a 0.0 sentinel would throttle the very
        # first event of the run.
        self._last_emit: float | None = None
        self._last_width = 0

    def emit(self, event: ProgressEvent) -> None:
        now = time.monotonic()
        if (
            event.done < event.total
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        text = event.render()
        pad = " " * max(0, self._last_width - len(text))
        self._last_width = len(text)
        self.stream.write("\r" + text + pad)
        self.stream.flush()

    def close(self) -> None:
        if self._last_width:
            self.stream.write("\n")
            self.stream.flush()
            self._last_width = 0


class LogProgressSink(ProgressSink):
    """Plain full lines for captured/non-TTY output (CI, pytest, pipes).

    Never writes ``\\r`` or any other control character: each rendered
    event is one ordinary ``\\n``-terminated line, throttled to
    ``min_interval`` seconds (terminal events always print) so a long
    sweep logs a heartbeat trail instead of a screenful per loop.
    """

    def __init__(self, stream: TextIO | None = None, min_interval: float = 2.0):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_emit: float | None = None

    def emit(self, event: ProgressEvent) -> None:
        now = time.monotonic()
        if (
            event.done < event.total
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        self.stream.write(event.render() + "\n")
        self.stream.flush()


def progress_sink_for(
    stream: TextIO | None = None, min_interval: float | None = None
) -> ProgressSink:
    """The right renderer for ``stream`` (default ``sys.stderr``).

    A real terminal gets the in-place :class:`TTYProgressSink`; anything
    else — CI logs, pytest capture, a pipe — degrades to
    :class:`LogProgressSink` so captured output stays free of ``\\r``
    spew (the ``--progress`` auto-disable).
    """
    stream = stream if stream is not None else sys.stderr
    try:
        interactive = stream.isatty()
    except (AttributeError, ValueError):
        interactive = False
    if interactive:
        return TTYProgressSink(stream, min_interval if min_interval is not None else 0.1)
    return LogProgressSink(stream, min_interval if min_interval is not None else 2.0)


# Same discipline as _TRACERS: an immutable tuple snapshot, so the hot
# emit path is one global read when no sink is installed.
_PROGRESS_SINKS: tuple[ProgressSink, ...] = ()


def add_progress_sink(sink: ProgressSink) -> ProgressSink:
    """Install ``sink``; events report to every installed sink."""
    global _PROGRESS_SINKS
    if sink not in _PROGRESS_SINKS:
        _PROGRESS_SINKS = _PROGRESS_SINKS + (sink,)
    return sink


def remove_progress_sink(sink: ProgressSink) -> None:
    """Uninstall ``sink`` (a no-op when it is not installed)."""
    global _PROGRESS_SINKS
    _PROGRESS_SINKS = tuple(s for s in _PROGRESS_SINKS if s is not sink)


def active_progress_sinks() -> tuple[ProgressSink, ...]:
    return _PROGRESS_SINKS


def emit_progress(
    phase: str,
    done: int,
    total: int,
    message: str = "",
    retries: int = 0,
    quarantined: int = 0,
) -> None:
    """Report progress; no-op (one global read) when no sink is installed."""
    sinks = _PROGRESS_SINKS
    if not sinks:
        return
    event = ProgressEvent(
        phase=phase,
        done=done,
        total=total,
        message=message,
        retries=retries,
        quarantined=quarantined,
    )
    for sink in sinks:
        sink.emit(event)
