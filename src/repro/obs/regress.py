"""Append-only benchmark-regression tracker (``repro bench ...``).

PR 2 made the numbers observable; this module makes them *accountable*.
A :class:`BenchRun` snapshots the repository's headline results — the
Fig. 1–4 walkthrough numbers and the Table 2 Perfect-suite cells — keyed
by git SHA, machine fingerprint and :meth:`repro.options.EvalOptions.
stable_hash`, and appends it to a JSON-lines history file.  Two gates
compare runs:

* **cycle counts** (``t_list``/``t_new``/iteration lengths/spans) are
  pure functions of (loop, machine, options) and must match **exactly**
  — any drift is a behaviour change and fails ``repro bench check``;
* **wall-clock** timings gate on a relative threshold, and only when the
  two runs share a machine fingerprint (comparing seconds across hosts
  is noise, not signal).

The committed baseline lives at ``benchmarks/baselines/
bench_history.jsonl`` and is enforced by ``make bench-check`` and CI
(``.github/workflows/ci.yml``).  Records carry
``schema_version`` (v3) and ``kind: "bench_run"``; see ``docs/api.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.schema import SCHEMA_VERSION, read_records

__all__ = [
    "BenchPoint",
    "BenchRun",
    "BenchHistory",
    "DEFAULT_HISTORY",
    "DEFAULT_WALL_TOLERANCE",
    "collect_run",
    "diff_runs",
    "check_run",
    "format_diff",
    "machine_fingerprint",
    "git_sha",
]

#: Where ``repro bench`` reads/writes history unless ``--history`` says else.
DEFAULT_HISTORY = os.path.join("benchmarks", "baselines", "bench_history.jsonl")

#: Allowed relative wall-clock slowdown before ``check`` flags it (50%:
#: generous because suite runtimes are fractions of a second and shared
#: CI machines jitter; cycle counts are the precise gate).
DEFAULT_WALL_TOLERANCE = 0.5

# The paper's Fig. 1(a) loop — the walkthrough micro-benchmark whose
# Fig. 4 schedule numbers (l = 13, spans 13/12 vs 7/LFD, T = 1201 vs 356)
# anchor the "fig" suite.
_FIG1A_SOURCE = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""

_SUITES = ("fig", "perfect", "batch")


def git_sha(cwd: str | None = None) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_fingerprint() -> dict[str, str]:
    """Coarse host identity for the wall-clock gate (not for cycle gates —
    cycle counts must match across every machine)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@dataclass(frozen=True)
class BenchPoint:
    """One benchmark cell: a corpus on a machine, both schedulers.

    All fields are exact-gate material: simulated parallel times,
    iteration lengths, and the per-pair Wait→Send spans (summed over the
    corpus' loops so the point stays compact)."""

    name: str
    t_list: int
    t_new: int
    l_list: int
    l_new: int
    spans_list: tuple[int, ...] = ()
    spans_new: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "t_list": self.t_list,
            "t_new": self.t_new,
            "l_list": self.l_list,
            "l_new": self.l_new,
            "spans_list": list(self.spans_list),
            "spans_new": list(self.spans_new),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchPoint":
        return cls(
            name=data["name"],
            t_list=data["t_list"],
            t_new=data["t_new"],
            l_list=data["l_list"],
            l_new=data["l_new"],
            spans_list=tuple(data.get("spans_list", ())),
            spans_new=tuple(data.get("spans_new", ())),
        )


@dataclass(frozen=True)
class BenchRun:
    """One recorded benchmark run (a ``kind: "bench_run"`` JSONL record)."""

    run_id: str
    timestamp: float
    git_sha: str
    suite: str
    n: int
    options_hash: str
    machine: dict[str, str]
    points: tuple[BenchPoint, ...]
    wall_s: float
    #: How many timed repeats ``wall_s`` is the median of (v10; 1 for
    #: records written before the median gate existed).
    wall_repeats: int = 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench_run",
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "git_sha": self.git_sha,
            "suite": self.suite,
            "n": self.n,
            "options_hash": self.options_hash,
            "machine": self.machine,
            "points": [p.as_dict() for p in self.points],
            "wall_s": self.wall_s,
            "wall_repeats": self.wall_repeats,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchRun":
        return cls(
            run_id=data["run_id"],
            timestamp=data["timestamp"],
            git_sha=data["git_sha"],
            suite=data["suite"],
            n=data["n"],
            options_hash=data["options_hash"],
            machine=dict(data["machine"]),
            points=tuple(BenchPoint.from_dict(p) for p in data["points"]),
            wall_s=data["wall_s"],
            wall_repeats=int(data.get("wall_repeats", 1)),
        )

    def summary(self) -> str:
        return (
            f"{self.run_id}  {self.suite:<8s} n={self.n} "
            f"points={len(self.points)} wall={self.wall_s:.3f}s "
            f"sha={self.git_sha[:12]} opts={self.options_hash}"
        )


def _run_id(payload: dict[str, Any]) -> str:
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:12]


def _spans(evaluation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pair_ids = [p.pair_id for p in evaluation.compiled.synced.pairs]
    return (
        tuple(evaluation.schedule_list.span(pid) for pid in pair_ids),
        tuple(evaluation.schedule_new.span(pid) for pid in pair_ids),
    )


def _suite_points(suite: str, n: int, options) -> list[BenchPoint]:
    """One timed execution of a suite, as its benchmark points."""
    from repro.pipeline import compile_loop, evaluate_corpus, evaluate_loop
    from repro.sched import figure4_machine, paper_machine

    points: list[BenchPoint] = []
    if suite == "fig":
        compiled = compile_loop(_FIG1A_SOURCE, options)
        evaluation = evaluate_loop(compiled, figure4_machine(), n, options)
        spans_list, spans_new = _spans(evaluation)
        points.append(
            BenchPoint(
                name="fig4@fig4-4issue",
                t_list=evaluation.t_list,
                t_new=evaluation.t_new,
                l_list=evaluation.schedule_list.length,
                l_new=evaluation.schedule_new.length,
                spans_list=spans_list,
                spans_new=spans_new,
            )
        )
    else:
        from repro.workloads import PERFECT_BENCHMARKS, perfect_suite

        loops_by_name = perfect_suite()
        grid = [
            (name, loops_by_name[name], paper_machine(*case))
            for name in PERFECT_BENCHMARKS
            for case in ((2, 1), (2, 2), (4, 1), (4, 2))
        ]
        if suite == "batch":
            from repro.perf import BatchEvaluator

            evaluations = BatchEvaluator().evaluate_corpora(grid, n, options)
        else:
            evaluations = [
                evaluate_corpus(name, loops, machine, n, options)
                for name, loops, machine in grid
            ]
        for (name, _loops, machine), ev in zip(grid, evaluations):
            points.append(
                BenchPoint(
                    name=f"{name}@{machine.name}",
                    t_list=ev.t_list,
                    t_new=ev.t_new,
                    l_list=sum(e.schedule_list.length for e in ev.evaluations),
                    l_new=sum(e.schedule_new.length for e in ev.evaluations),
                    spans_list=tuple(
                        s for e in ev.evaluations for s in _spans(e)[0]
                    ),
                    spans_new=tuple(
                        s for e in ev.evaluations for s in _spans(e)[1]
                    ),
                )
            )
    return points


def collect_run(
    suite: str = "fig",
    n: int = 100,
    options=None,
    now: float | None = None,
    repeats: int = 1,
) -> BenchRun:
    """Run one suite and package the results as a :class:`BenchRun`.

    ``"fig"`` evaluates the paper's Fig. 1(a) walkthrough loop on the
    Fig. 4 machine (fast; the CI smoke gate).  ``"perfect"`` evaluates
    the five Perfect-club corpora on the four Section 4 machines — the
    Table 2 grid, one point per cell.  ``"batch"`` answers the same grid
    through the vectorized :class:`~repro.perf.batch.BatchEvaluator` —
    its points carry the same names and must carry the same values as
    ``"perfect"``'s, so the history doubles as a cross-engine gate.

    ``repeats`` times the suite that many times and records the **median**
    wall clock (``wall_s``; ``wall_repeats`` says how many) — the
    wall-clock gate in :func:`check_run` is noise-sensitive, and a median
    of 3 cuts one-off scheduler hiccups out of CI.  The points always
    come from the first execution (they are cycle-exact and identical
    across repeats by construction).
    """
    from repro.options import EvalOptions

    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; use one of {_SUITES}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    options = options if options is not None else EvalOptions()
    walls: list[float] = []
    points: list[BenchPoint] = []
    for repeat in range(repeats):
        started = time.perf_counter()
        result = _suite_points(suite, n, options)
        walls.append(time.perf_counter() - started)
        if repeat == 0:
            points = result
    wall = statistics.median(walls)
    timestamp = time.time() if now is None else now
    payload = {
        "suite": suite,
        "n": n,
        "timestamp": timestamp,
        "points": [p.as_dict() for p in points],
    }
    return BenchRun(
        run_id=_run_id(payload),
        timestamp=timestamp,
        git_sha=git_sha(),
        suite=suite,
        n=n,
        options_hash=options.stable_hash(),
        machine=machine_fingerprint(),
        points=tuple(points),
        wall_s=wall,
        wall_repeats=repeats,
    )


class BenchHistory:
    """The append-only JSONL store behind ``repro bench``."""

    def __init__(self, path: str = DEFAULT_HISTORY) -> None:
        self.path = path
        #: 1 when the most recent :meth:`load` found a torn final line.
        self.torn_tail = 0

    def append(self, run: BenchRun) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(run.as_dict(), sort_keys=True) + "\n")

    def load(self) -> list[BenchRun]:
        """Every ``bench_run`` record, oldest first (unreadable lines
        skipped, a torn final line flagged on :attr:`torn_tail`)."""
        data, torn = read_records(self.path, "bench_run")
        self.torn_tail = int(torn)
        return [BenchRun.from_dict(record) for record in data]

    def get(self, run_id: str) -> BenchRun:
        """Look a run up by id (unambiguous prefixes accepted)."""
        matches = [r for r in self.load() if r.run_id.startswith(run_id)]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.path}")
        if len({r.run_id for r in matches}) > 1:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous in {self.path}")
        return matches[-1]

    def latest(self, suite: str | None = None) -> BenchRun | None:
        runs = [r for r in self.load() if suite is None or r.suite == suite]
        return runs[-1] if runs else None


@dataclass
class PointDiff:
    """One benchmark point compared across two runs."""

    name: str
    field_deltas: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    @property
    def drifted(self) -> bool:
        return bool(self.field_deltas)


@dataclass
class RunDiff:
    """Cycle-exact comparison of two runs of the same suite."""

    old: BenchRun
    new: BenchRun
    point_diffs: list[PointDiff] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # points only in old
    added: list[str] = field(default_factory=list)  # points only in new
    wall_ratio: float | None = None  # new/old, only for same-machine runs

    @property
    def cycle_drift(self) -> bool:
        return bool(self.missing or self.added) or any(
            d.drifted for d in self.point_diffs
        )


def diff_runs(old: BenchRun, new: BenchRun) -> RunDiff:
    """Field-by-field comparison of two runs (cycle gate material)."""
    result = RunDiff(old=old, new=new)
    old_points = {p.name: p for p in old.points}
    new_points = {p.name: p for p in new.points}
    result.missing = sorted(set(old_points) - set(new_points))
    result.added = sorted(set(new_points) - set(old_points))
    for name in sorted(set(old_points) & set(new_points)):
        a, b = old_points[name].as_dict(), new_points[name].as_dict()
        deltas = {
            key: (a[key], b[key]) for key in a if key != "name" and a[key] != b[key]
        }
        if deltas:
            result.point_diffs.append(PointDiff(name=name, field_deltas=deltas))
    if old.machine == new.machine and old.wall_s > 0:
        result.wall_ratio = new.wall_s / old.wall_s
    return result


def format_diff(diff: RunDiff) -> str:
    lines = [
        f"old: {diff.old.summary()}",
        f"new: {diff.new.summary()}",
    ]
    if not diff.cycle_drift:
        lines.append(f"cycle counts: identical across {len(diff.new.points)} point(s)")
    for name in diff.missing:
        lines.append(f"  {name}: MISSING from the new run")
    for name in diff.added:
        lines.append(f"  {name}: added (not in the old run)")
    for pd in diff.point_diffs:
        for key, (a, b) in sorted(pd.field_deltas.items()):
            lines.append(f"  {pd.name}: {key} {a} -> {b}")
    if diff.wall_ratio is not None:
        lines.append(
            f"wall-clock: {diff.old.wall_s:.3f}s -> {diff.new.wall_s:.3f}s "
            f"({diff.wall_ratio:.2f}x, same machine)"
        )
    else:
        lines.append("wall-clock: machines differ, not compared")
    return "\n".join(lines)


def check_run(
    baseline: BenchRun,
    candidate: BenchRun,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> list[str]:
    """Violations of the regression gates, empty when the check passes.

    Cycle counts must match exactly; wall-clock may regress by up to
    ``wall_tolerance`` (relative), and only gates when both runs carry
    the same machine fingerprint.
    """
    violations: list[str] = []
    if baseline.suite != candidate.suite:
        violations.append(
            f"suite mismatch: baseline {baseline.suite!r} vs {candidate.suite!r}"
        )
        return violations
    if baseline.n != candidate.n:
        violations.append(f"n mismatch: baseline {baseline.n} vs {candidate.n}")
        return violations
    if baseline.options_hash != candidate.options_hash:
        violations.append(
            "options mismatch: baseline recorded with "
            f"{baseline.options_hash}, candidate with {candidate.options_hash}"
        )
    diff = diff_runs(baseline, candidate)
    for name in diff.missing:
        violations.append(f"{name}: point missing from the candidate run")
    for name in diff.added:
        violations.append(f"{name}: point not present in the baseline")
    for pd in diff.point_diffs:
        for key, (a, b) in sorted(pd.field_deltas.items()):
            violations.append(f"{pd.name}: {key} drifted {a} -> {b} (exact gate)")
    if diff.wall_ratio is not None and diff.wall_ratio > 1.0 + wall_tolerance:
        violations.append(
            f"wall-clock regressed {diff.wall_ratio:.2f}x "
            f"(> {1.0 + wall_tolerance:.2f}x threshold; "
            f"{baseline.wall_s:.3f}s -> {candidate.wall_s:.3f}s)"
        )
    return violations


def suites(selector: str) -> Iterable[str]:
    """Expand a ``--suite`` argument (``all`` → every suite)."""
    if selector == "all":
        return _SUITES
    if selector not in _SUITES:
        raise ValueError(f"unknown suite {selector!r}; use one of {_SUITES} or 'all'")
    return (selector,)
