"""The run ledger: an append-only record of every invocation.

The paper's claims are comparative — Table 2/3 speedups and the
Fig. 4a→4b span reduction only mean something *across* runs — yet until
PR 5 every observability artifact (trace, journal, metrics snapshot,
bench record) was per-invocation.  The ledger is the persistent layer:
one schema-versioned JSONL line (``kind: "run"``, v5) per
``compile``/``simulate``/``sweep``/``fuzz``/``bench`` invocation,
recording

* identity — ``run_id``, timestamp, the command and its argv;
* provenance — :meth:`repro.options.EvalOptions.stable_hash`, git SHA
  and machine fingerprint (both reused from :mod:`repro.obs.regress`);
* outcome — wall time, ``ok`` / ``exit N`` / ``quarantined`` /
  ``deadlock`` / ``error``, the quarantined
  :class:`~repro.robust.harden.FailureRecord`\\ s, and the parallel
  mode actually used (pool vs serial, with the fallback reason and the
  ``min_pool_work`` threshold in force);
* results — the final metrics snapshot (deterministic ``sim.*`` /
  ``sched.*`` aggregates first, so two runs of the same options are
  byte-comparable) plus the paths of emitted artifacts and any embedded
  ASCII timelines.

``repro runs list/show/diff`` query the store; ``repro dash`` aggregates
it with the bench history into a self-contained HTML dashboard
(:mod:`repro.obs.dash`).  Recording is **driver-level and default-off**:
nothing in :mod:`repro.pipeline` writes the ledger implicitly, so the
disabled path costs nothing and report output is byte-identical with or
without a ledger configured.  The CLI arms it with ``--ledger FILE``;
library code uses :func:`record_run`::

    with record_run("sweep", options=EvalOptions(ledger=".repro/ledger.jsonl")) as run:
        evaluate_corpus(...)
        run.add_artifact("results/table2.json")
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.obs.export import metrics_snapshot
from repro.obs.metrics import (
    MetricsRegistry,
    active_metrics,
    count,
    disable_metrics,
    enable_metrics,
)
from repro.obs.regress import git_sha, machine_fingerprint
from repro.schema import dump_line, read_records, stamped

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.options import EvalOptions
    from repro.robust.harden import FailureRecord

__all__ = [
    "DEFAULT_LEDGER",
    "RunLedger",
    "RunMetricsDiff",
    "RunRecord",
    "RunRecorder",
    "active_recorder",
    "diff_run_metrics",
    "format_run_diff",
    "record_run",
    "unfinished_inflight",
]

#: Where the ledger lives unless ``--ledger`` / ``EvalOptions.ledger``
#: say otherwise.  ``.repro/`` is the repository-local scratch directory
#: (gitignored, like ``.pytest_cache``).
DEFAULT_LEDGER = os.path.join(".repro", "ledger.jsonl")


@dataclass(frozen=True)
class RunRecord:
    """One recorded invocation (a ``kind: "run"`` JSONL line, schema v5)."""

    run_id: str
    timestamp: float
    command: str
    argv: tuple[str, ...]
    options_hash: str | None
    git_sha: str
    machine: dict[str, str]
    wall_s: float
    outcome: str
    error: str | None = None
    mode: str | None = None
    calibration: dict[str, Any] | None = None
    """How the run's ``min_pool_work`` threshold was chosen (source,
    per-eval probe cost, resulting threshold); ``None`` for runs that
    never resolved one.  Recorded by
    :meth:`repro.perf.parallel.ParallelEvaluator._note_mode`."""
    failures: tuple[dict[str, Any], ...] = ()
    metrics: dict[str, Any] | None = None
    artifacts: tuple[str, ...] = ()
    timelines: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def as_dict(self) -> dict[str, Any]:
        return stamped(
            "run",
            {
                "run_id": self.run_id,
                "timestamp": self.timestamp,
                "command": self.command,
                "argv": list(self.argv),
                "options_hash": self.options_hash,
                "git_sha": self.git_sha,
                "machine": self.machine,
                "wall_s": self.wall_s,
                "outcome": self.outcome,
                "error": self.error,
                "mode": self.mode,
                "calibration": self.calibration,
                "failures": [dict(f) for f in self.failures],
                "metrics": self.metrics,
                "artifacts": list(self.artifacts),
                "timelines": dict(self.timelines),
            },
        )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=data["run_id"],
            timestamp=data["timestamp"],
            command=data["command"],
            argv=tuple(data.get("argv", ())),
            options_hash=data.get("options_hash"),
            git_sha=data.get("git_sha", "unknown"),
            machine=dict(data.get("machine", {})),
            wall_s=data.get("wall_s", 0.0),
            outcome=data.get("outcome", "ok"),
            error=data.get("error"),
            mode=data.get("mode"),
            calibration=data.get("calibration"),
            failures=tuple(dict(f) for f in data.get("failures", ())),
            metrics=data.get("metrics"),
            artifacts=tuple(data.get("artifacts", ())),
            timelines=dict(data.get("timelines", {})),
        )

    def summary(self) -> str:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.timestamp))
        opts = self.options_hash or "-"
        return (
            f"{self.run_id}  {when}  {self.command:<9s} {self.outcome:<12s} "
            f"wall={self.wall_s:.3f}s opts={opts} sha={self.git_sha[:12]}"
        )

    def describe(self) -> str:
        """Multi-line detail view (``repro runs show``)."""
        lines = [self.summary()]
        if self.argv:
            lines.append(f"  argv: {' '.join(self.argv)}")
        if self.mode:
            lines.append(f"  mode: {self.mode}")
        if self.calibration:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.calibration.items()))
            lines.append(f"  calibration: {parts}")
        if self.error:
            lines.append(f"  error: {self.error}")
        for failure in self.failures:
            lines.append(
                f"  quarantined: {failure.get('kind')} {failure.get('name')!r}"
                f"[{failure.get('index')}] {failure.get('error_type')}: "
                f"{failure.get('message')}"
            )
        for artifact in self.artifacts:
            lines.append(f"  artifact: {artifact}")
        deterministic = (self.metrics or {}).get("deterministic", {})
        counters = deterministic.get("counters", {})
        if counters:
            lines.append(f"  deterministic counters ({len(counters)}):")
            for name in sorted(counters):
                lines.append(f"    {name:<40s} {counters[name]:>12}")
        for label in sorted(self.timelines):
            lines.append(f"  timeline [{label}]:")
            lines.extend("    " + row for row in self.timelines[label].splitlines())
        return "\n".join(lines)


#: Process-level guard for ledger appends.  Concurrent
#: ``ThreadingHTTPServer`` handlers (and any other threads recording
#: runs) all append to JSONL files; serializing the write keeps every
#: line whole — a torn line would be silently dropped by ``load()``.
#: One lock for all ledgers: appends are rare and short, and a per-path
#: registry would itself need a lock.
_APPEND_LOCK = threading.Lock()


class RunLedger:
    """The append-only JSONL store behind ``repro runs`` / ``repro dash``.

    ``durable=True`` fsyncs every append (``--ledger-durable``): the
    record survives a process kill — or a power cut — the moment
    ``append`` returns, at the cost of a disk flush per record.  The
    default stays buffered: a kill can tear the final line, which
    ``load`` recovers from (skip-and-count, ``torn_tail``).
    """

    def __init__(self, path: str = DEFAULT_LEDGER, durable: bool = False) -> None:
        self.path = path
        self.durable = durable
        #: Torn final lines seen by the most recent :meth:`load` — a
        #: process killed mid-append leaves at most one, and exactly the
        #: last one.  Also counted as ``robust.ledger.torn_tail``.
        self.torn_tail = 0

    def append(self, record: RunRecord) -> None:
        line = dump_line(record.as_dict()) + "\n"
        with _APPEND_LOCK:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                if self.durable:
                    handle.flush()
                    os.fsync(handle.fileno())

    def load(self) -> list[RunRecord]:
        """Every ``run`` record, oldest first; unreadable lines are skipped
        (an append-only log torn mid-write must not sink its readers).

        A torn *tail* — the final line unreadable, the signature of a
        process killed mid-append — is additionally counted in
        :attr:`torn_tail` and the ``robust.ledger.torn_tail`` metric, so
        ``repro serve --recover`` and ``repro runs list`` can say the
        log lost its last write instead of silently shrugging.
        """
        data, torn = read_records(self.path, "run")
        self.torn_tail = int(torn)
        if torn:
            count("robust.ledger.torn_tail")
        return [RunRecord.from_dict(record) for record in data]

    def get(self, run_id: str) -> RunRecord:
        """Look a run up by id (unambiguous prefixes accepted)."""
        matches = [r for r in self.load() if r.run_id.startswith(run_id)]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.path}")
        if len({r.run_id for r in matches}) > 1:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous in {self.path}")
        return matches[-1]

    def latest(self, command: str | None = None) -> RunRecord | None:
        records = [
            r for r in self.load() if command is None or r.command == command
        ]
        return records[-1] if records else None


def unfinished_inflight(records: Iterable[RunRecord]) -> list[RunRecord]:
    """The ``outcome: "inflight"`` service records never finalized.

    The service journals every admitted submission before evaluation and
    appends a terminal record (sharing the request id in ``argv[-1]``)
    after; an inflight record with no later terminal twin is work a
    killed process accepted but never answered.  ``repro serve
    --recover`` appends ``outcome: "lost"`` finalizers for these;
    ``repro runs list --inflight`` shows them.
    """
    records = list(records)
    finalized: set[str] = set()
    for record in records:
        if (
            record.command.startswith("service")
            and record.outcome != "inflight"
            and record.argv
        ):
            finalized.add(record.argv[-1])
    return [
        record
        for record in records
        if record.outcome == "inflight"
        and record.command.startswith("service")
        and record.argv
        and record.argv[-1] not in finalized
    ]


class RunRecorder:
    """Collects one invocation's provenance and appends it on ``finish``.

    Created by the CLI when ``--ledger`` is passed (or by
    :func:`record_run`).  While the run executes, commands enrich the
    record through :func:`active_recorder` — options hash, parallel mode,
    quarantined failures, artifact paths, ASCII timelines.  If no metrics
    registry is active when the recorder starts, it installs a fresh one
    so the final snapshot is always captured; an already-active registry
    is observed, not replaced.
    """

    def __init__(
        self,
        command: str,
        path: str,
        argv: Iterable[str] = (),
        options: "EvalOptions | None" = None,
    ) -> None:
        self.command = command
        self.path = path
        self.argv = tuple(argv)
        self._options_hash: str | None = None
        self._mode: str | None = None
        self._calibration: dict[str, Any] | None = None
        self._outcome: str | None = None
        self._error: str | None = None
        self._failures: list[dict[str, Any]] = []
        self._artifacts: list[str] = []
        self._timelines: dict[str, str] = {}
        self._timestamp = time.time()
        self._started = time.perf_counter()
        self._finished: RunRecord | None = None
        self._own_registry: MetricsRegistry | None = None
        if active_metrics() is None:
            self._own_registry = enable_metrics()
        if options is not None:
            self.note_options(options)

    # -- enrichment (called by commands mid-run) -----------------------------

    def note_options(self, options: "EvalOptions") -> None:
        self._options_hash = options.stable_hash()

    def note_mode(self, mode: str) -> None:
        self._mode = mode

    def note_calibration(self, calibration: dict[str, Any]) -> None:
        """Record how the run's ``min_pool_work`` threshold was chosen
        (source, per-eval probe cost, resulting threshold)."""
        self._calibration = dict(calibration)

    def note_error(self, outcome: str, error: str) -> None:
        """Pin the outcome (e.g. ``"deadlock"``) with its diagnosis."""
        self._outcome = outcome
        self._error = error

    def note_failures(self, failures: Iterable["FailureRecord"]) -> None:
        self._failures.extend(f.as_dict() for f in failures)

    def add_artifact(self, path: str) -> None:
        self._artifacts.append(path)

    def add_timeline(self, label: str, text: str) -> None:
        self._timelines[label] = text

    # -- completion ----------------------------------------------------------

    def _resolve_outcome(self, outcome: str | None) -> str:
        if self._outcome is not None:  # a command pinned it (e.g. deadlock)
            return self._outcome
        if outcome is not None and outcome != "ok":
            return outcome
        if self._failures:
            return "quarantined"
        return outcome or "ok"

    def finish(self, outcome: str | None = None, error: str | None = None) -> RunRecord:
        """Snapshot metrics, build the record, append it to the ledger.

        Idempotent: a second ``finish`` returns the first record without
        appending again (the CLI's exception path and its normal path
        may both reach it).
        """
        if self._finished is not None:
            return self._finished
        wall = time.perf_counter() - self._started
        registry = (
            self._own_registry if self._own_registry is not None else active_metrics()
        )
        if self._own_registry is not None and active_metrics() is self._own_registry:
            disable_metrics()
        snapshot = metrics_snapshot(registry) if registry is not None else None
        payload = {
            "command": self.command,
            "argv": list(self.argv),
            "timestamp": self._timestamp,
            "options_hash": self._options_hash,
            "outcome": self._resolve_outcome(outcome),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        record = RunRecord(
            run_id=digest[:12],
            timestamp=self._timestamp,
            command=self.command,
            argv=self.argv,
            options_hash=self._options_hash,
            git_sha=git_sha(),
            machine=machine_fingerprint(),
            wall_s=wall,
            outcome=self._resolve_outcome(outcome),
            error=self._error if self._error is not None else error,
            mode=self._mode,
            calibration=self._calibration,
            failures=tuple(self._failures),
            metrics=snapshot,
            artifacts=tuple(self._artifacts),
            timelines=dict(self._timelines),
        )
        RunLedger(self.path).append(record)
        self._finished = record
        return record


# The recorder of the invocation in flight, if any — commands enrich it
# without threading it through every signature.
_ACTIVE_RECORDER: RunRecorder | None = None


def active_recorder() -> RunRecorder | None:
    return _ACTIVE_RECORDER


def _set_recorder(recorder: RunRecorder | None) -> None:
    global _ACTIVE_RECORDER
    _ACTIVE_RECORDER = recorder


@contextmanager
def record_run(
    command: str,
    options: "EvalOptions | None" = None,
    path: str | None = None,
    argv: Iterable[str] = (),
) -> Iterator[RunRecorder | None]:
    """Record one invocation when a ledger is configured; no-op otherwise.

    ``path`` (or ``options.ledger``) selects the store — when both are
    ``None`` the scope yields ``None`` and records nothing, which is the
    zero-overhead default.  An exception inside the scope is recorded
    (``outcome: "error"`` with the exception text) and re-raised.
    """
    ledger_path = path if path is not None else (options.ledger if options else None)
    if not ledger_path:
        yield None
        return
    recorder = RunRecorder(command, ledger_path, argv=argv, options=options)
    _set_recorder(recorder)
    try:
        yield recorder
    except BaseException as err:
        recorder.finish("error", f"{type(err).__name__}: {err}")
        raise
    else:
        recorder.finish()
    finally:
        _set_recorder(None)


# -- run-to-run metrics diff (repro runs diff) ---------------------------------


@dataclass
class RunMetricsDiff:
    """Two runs' metrics snapshots compared name by name."""

    old: RunRecord
    new: RunRecord
    deterministic_only: bool = True
    counter_deltas: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    histogram_deltas: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    compared: int = 0

    @property
    def identical(self) -> bool:
        return not self.counter_deltas and not self.histogram_deltas

    @property
    def comparable(self) -> bool:
        return self.old.metrics is not None and self.new.metrics is not None


def _metrics_block(record: RunRecord, deterministic_only: bool) -> dict[str, Any]:
    snapshot = record.metrics or {}
    return snapshot.get("deterministic" if deterministic_only else "all", {}) or {}


def diff_run_metrics(
    old: RunRecord, new: RunRecord, deterministic_only: bool = True
) -> RunMetricsDiff:
    """Compare two runs' final metrics snapshots.

    By default only the deterministic ``sim.*``/``sched.*`` namespaces
    are compared — those are pure functions of (corpus, machine,
    options), so two runs with the same
    :meth:`~repro.options.EvalOptions.stable_hash` must match exactly;
    any delta is a behaviour change.  ``deterministic_only=False``
    widens the diff to every namespace (cache warmth, pool partitioning,
    robustness counters — legitimately run-dependent).
    """
    diff = RunMetricsDiff(old=old, new=new, deterministic_only=deterministic_only)
    if not diff.comparable:
        return diff
    block_a = _metrics_block(old, deterministic_only)
    block_b = _metrics_block(new, deterministic_only)
    for store in ("counters", "histograms"):
        a = block_a.get(store, {})
        b = block_b.get(store, {})
        deltas = (
            diff.counter_deltas if store == "counters" else diff.histogram_deltas
        )
        for name in sorted(set(a) | set(b)):
            diff.compared += 1
            if a.get(name) != b.get(name):
                deltas[name] = (a.get(name), b.get(name))
    return diff


def format_run_diff(diff: RunMetricsDiff) -> str:
    """Side-by-side rendering of a :class:`RunMetricsDiff`."""
    lines = [f"old: {diff.old.summary()}", f"new: {diff.new.summary()}"]
    same_options = (
        diff.old.options_hash is not None
        and diff.old.options_hash == diff.new.options_hash
    )
    scope = "deterministic" if diff.deterministic_only else "all"
    if not diff.comparable:
        missing = [r.run_id for r in (diff.old, diff.new) if r.metrics is None]
        lines.append(f"metrics: not recorded for run(s) {', '.join(missing)}")
        return "\n".join(lines)
    if diff.identical:
        lines.append(
            f"{scope} metrics: identical across {diff.compared} name(s)"
            + (" (same options hash, as required)" if same_options else "")
        )
    else:
        if same_options:
            lines.append(
                f"{scope} metrics: DRIFT despite identical options hash "
                f"{diff.old.options_hash} — a behaviour change:"
            )
        else:
            lines.append(f"{scope} metrics: {len(diff.counter_deltas) + len(diff.histogram_deltas)} name(s) differ:")
        width = max(
            (len(n) for n in (*diff.counter_deltas, *diff.histogram_deltas)),
            default=0,
        )
        for name, (a, b) in sorted(diff.counter_deltas.items()):
            lines.append(f"  {name:<{width}}  {a!r:>14} -> {b!r}")
        for name, (a, b) in sorted(diff.histogram_deltas.items()):
            a_sum = (a or {}).get("sum") if isinstance(a, dict) else a
            b_sum = (b or {}).get("sum") if isinstance(b, dict) else b
            lines.append(f"  {name:<{width}}  sum {a_sum!r} -> {b_sum!r}")
    if diff.old.wall_s > 0:
        lines.append(
            f"wall-clock: {diff.old.wall_s:.3f}s -> {diff.new.wall_s:.3f}s "
            f"({diff.new.wall_s / diff.old.wall_s:.2f}x)"
        )
    return "\n".join(lines)
