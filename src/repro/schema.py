"""The record-format version shared by every machine-readable emitter.

Lives in its own dependency-free module so that :mod:`repro.report`,
:mod:`repro.obs.export`, :mod:`repro.obs.regress` and
:mod:`repro.obs.ledger` can all stamp their documents without import
cycles (``repro.obs`` must not import ``repro.report``, which pulls in
the whole pipeline).

Version history — the documented contract lives in ``docs/api.md``:

* **v1** (implicit; records had no version field) — the original PR 1
  shape: timings, spans, utilization.
* **v2** — ``schema_version`` on report records, ``metrics`` blocks,
  ``fallback_reason`` on corpus records.
* **v3** — ``schema_version`` at the top level of *every* emitted
  document (journal lines, ``repro metrics --json``, Chrome trace
  metadata, bench-history records), an optional ``explain`` block on
  evaluation records (decision provenance + stall chains, see
  :mod:`repro.obs.explain`), and the ``bench_run`` record family of
  :mod:`repro.obs.regress`.  Consumers written against v2 keep working:
  v3 only adds keys.
* **v4** — robustness fields (see ``docs/robustness.md``):
  ``fallback_reason`` inside each per-scheduler simulation-metrics block
  (why the analytic fast path declined — ``None`` when it answered) and
  a ``failures`` list on corpus records (quarantined loops/jobs as
  structured :class:`~repro.robust.harden.FailureRecord` dicts, empty on
  a clean run).  The on-disk :class:`~repro.perf.cache.CompileCache`
  format is also stamped with this version and refuses to load any
  other.  Again additive: v3 consumers keep working.
* **v5** — the run ledger and live progress (see
  ``docs/observability.md``, "Run ledger & dashboard"): the ``run``
  record kind of :mod:`repro.obs.ledger` (one JSONL line per
  ``compile``/``simulate``/``sweep``/``fuzz``/``bench`` invocation:
  options hash, git SHA, machine fingerprint, wall time, outcome,
  quarantined failures, final metrics snapshot, emitted artifacts) and
  the ``progress`` event lines emitted through the
  :class:`~repro.obs.trace.ProgressSink` seam and journaled by
  ``repro --journal-out``.  Additive: v4 consumers keep working.
* **v6** — the batch evaluation engine and persistent worker pool (see
  ``docs/performance.md``): ``run`` records gain an optional
  ``calibration`` block (how ``min_pool_work`` was chosen: source,
  measured per-eval cost, probe cost), and the on-disk
  :class:`~repro.perf.cache.CompileCache` payload changes shape —
  :class:`~repro.codegen.lower.LoweredLoop` now pickles its ``ref_iids``
  map as identity-preserving ``(ref, iid)`` pairs so cached compiled
  loops survive a process boundary.  v5 cache files are rejected (and
  recompiled); JSONL consumers keep working — the new key is optional.
* **v7** — compilation-as-a-service (see ``docs/service.md``): the
  ``result`` and ``error`` record kinds of :mod:`repro.service.server`
  (every HTTP response body, and the terminal line of a streamed
  submission, is one of them), and ``run`` records written by the
  service carry ``command: "service <op>"`` with ``metrics: null`` (a
  per-request metrics snapshot would dominate service latency).  JSONL
  consumers keep working — the new kinds are additive; v6 cache files
  are rejected and recompiled, as every bump does by construction.
* **v8** — service telemetry (see ``docs/service.md``, "Operating the
  service"): every service response body carries a ``request_id``
  echoed from the server's per-request trace; ``GET /v1/metrics``
  returns a stamped snapshot whose registry block may carry the new
  optional ``distributions`` (fixed-bucket histograms with p50/p95/p99)
  and ``gauges`` keys — **present only when non-empty**, so one-shot
  pipeline snapshots stay byte-identical to v7; ``GET
  /v1/trace/<request_id>`` serves retained flight-recorder traces; and
  the ``access`` JSONL kind is the structured per-request access log
  written by ``repro serve --access-log FILE``.  Additive throughout:
  v7 consumers keep working.
* **v9** — the service resilience layer (see ``docs/robustness.md``,
  "Operating under failure"): service ``error`` bodies may carry the
  overload fields ``retry_after_s`` (shed ``429`` responses, mirrored in
  the ``Retry-After`` header) and ``hint`` (deadline ``504`` responses:
  a structured block naming where the request's budget went); ``run``
  records written by the service may carry ``outcome: "inflight"``
  (journaled before evaluation, finalized by a terminal record sharing
  the same ``request_id`` in ``argv``) and ``outcome: "lost"`` (a
  finalizer appended by ``repro serve --recover`` for in-flight work a
  killed process never finished); circuit-breaker transitions append
  ``command: "service breaker"`` run records and drive the
  ``service.breaker.state`` gauge on ``GET /v1/metrics``.  Additive
  throughout: v8 consumers keep working.
* **v10** — continuous CPU profiling (see ``docs/observability.md``,
  "Continuous profiling"): the ``profile`` record kind of
  :mod:`repro.obs.prof` (collapsed sample stacks with per-stage
  attribution, appended to ``.repro/profiles.jsonl`` and served by
  ``GET /v1/profile``); ``bench_run`` records gain ``wall_repeats``
  (how many timed repeats the recorded wall clock is the median of);
  service flight-recorder traces and ``GET /v1/metrics`` may carry
  per-op CPU sample counters (``cpu_samples`` /
  ``service.cpu.samples.<op>``) when profiling is armed.  Additive
  throughout: v9 consumers keep working; v9 cache files are rejected
  and recompiled, as every bump does by construction.
"""

from __future__ import annotations

import json
import os
from typing import Any

#: Record format version; bump when any record's shape changes (docs/api.md).
SCHEMA_VERSION = 10

#: Every ``kind`` that may appear as a top-level JSONL line.  Nested
#: records (``schedule``/``evaluation``/``corpus`` report blocks) are
#: stamped with ``schema_version`` but carry no ``kind`` — they are
#: documents, not stream lines.  ``result``/``error`` are the service's
#: response bodies and ndjson stream lines (:mod:`repro.service.server`);
#: ``access`` is its per-request access-log line (``--access-log``).
JSONL_KINDS = (
    "span", "metrics", "progress", "bench_run", "run", "result", "error",
    "access", "profile",
)

__all__ = [
    "JSONL_KINDS",
    "SCHEMA_VERSION",
    "dump_line",
    "parse_line",
    "read_records",
    "stamped",
]


def stamped(kind: str | None, record: dict[str, Any]) -> dict[str, Any]:
    """``record`` with ``schema_version`` (and ``kind``) stamped first.

    The stamp wins over any stale version already present, so re-emitting
    a loaded record always carries the current version.
    """
    head: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    if kind is not None:
        head["kind"] = kind
    return {**head, **{k: v for k, v in record.items() if k not in head}}


def dump_line(record: dict[str, Any]) -> str:
    """Serialize one JSONL record (stable key order, no trailing newline).

    Refuses records without a top-level ``schema_version`` — every line
    this repository emits must be self-describing (the v3 contract).
    """
    if "schema_version" not in record:
        raise ValueError(
            "record is missing a top-level schema_version; "
            "build it with schema.stamped(kind, record)"
        )
    return json.dumps(record, sort_keys=True)


def parse_line(line: str) -> dict[str, Any]:
    """Parse one JSONL record and check its version envelope.

    Raises ``ValueError`` for non-object lines, missing/non-integer
    ``schema_version``, or a version newer than this code understands
    (older versions load fine — the schema only ever adds keys).
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"JSONL line is not an object: {line[:80]!r}")
    version = record.get("schema_version")
    if not isinstance(version, int):
        raise ValueError(
            f"record has no integer schema_version: {sorted(record)[:8]}"
        )
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"record schema_version {version} is newer than this code "
            f"understands (v{SCHEMA_VERSION}); upgrade to read it"
        )
    return record


def read_records(path: str, kind: str) -> tuple[list[dict[str, Any]], bool]:
    """Every ``kind`` record of the JSONL file at ``path``, oldest first,
    and whether its final line was torn.

    The one reader behind every append-only store (run ledger, bench
    history, profile store).  Lines :func:`parse_line` rejects are
    skipped, so a log torn mid-write never sinks its readers; an
    unreadable *final* line — the signature of a process killed
    mid-append — is reported so the caller can say the log lost its last
    write.  A missing file reads as empty.
    """
    if not os.path.exists(path):
        return [], False
    records: list[dict[str, Any]] = []
    last_was_torn = False
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = parse_line(line)
            except ValueError:
                last_was_torn = True
                continue
            last_was_torn = False
            if record.get("kind") == kind:
                records.append(record)
    return records, last_was_torn
