"""Schedule legality verification.

Checks, independently of how a schedule was produced:

1. every instruction scheduled exactly once, at a cycle >= 1;
2. every DFG edge's latency respected (``cycle(dst) >= cycle(src) +
   latency(src)``) — this covers register, memory *and* the
   synchronization-condition arcs;
3. per-cycle issue width and function-unit occupancy (multi-cycle units
   non-pipelined);
4. the paper's two synchronization invariants restated directly from the
   pair map (belt and braces: a builder bug dropping a sync arc would
   otherwise go unnoticed): no ``Send_Signal`` before its dependence
   source completes (kind ``send_before_source``), and no sink before its
   ``Wait_Signal`` (kind ``sink_before_wait``).

:func:`verify_schedule_structured` returns typed :class:`Violation`
records (kind + the instructions/cycles/pair involved), so callers can
dispatch on *what* is broken; :func:`verify_schedule` keeps the original
list-of-strings surface, and :func:`assert_valid` raises on any.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.dfg.graph import DataFlowGraph
from repro.sched.schedule import Schedule

__all__ = ["Violation", "assert_valid", "verify_schedule", "verify_schedule_structured"]


@dataclass(frozen=True)
class Violation:
    """One schedule-legality violation, typed for dispatch.

    ``kind`` is one of ``unscheduled``, ``unknown_instruction``,
    ``bad_cycle``, ``latency``, ``issue_width``, ``unit_overuse``,
    ``send_before_source``, ``sink_before_wait``.  ``iid``/``cycle``/
    ``pair_id`` locate the offender where the kind has one (``None``
    otherwise); ``message`` is the human-readable rendering.
    """

    kind: str
    message: str
    iid: int | None = None
    cycle: int | None = None
    pair_id: int | None = None

    def __str__(self) -> str:
        return self.message


def verify_schedule_structured(
    schedule: Schedule, graph: DataFlowGraph
) -> list[Violation]:
    """Check ``schedule`` against the module-level rules; returns typed
    violations (empty = legal)."""
    lowered = schedule.lowered
    machine = schedule.machine
    cycle_of = schedule.cycle_of
    violations: list[Violation] = []

    # 1. completeness
    expected = {i.iid for i in lowered.instructions}
    scheduled = set(cycle_of)
    for missing in sorted(expected - scheduled):
        violations.append(
            Violation("unscheduled", f"instruction {missing} not scheduled", iid=missing)
        )
    for extra in sorted(scheduled - expected):
        violations.append(
            Violation(
                "unknown_instruction", f"unknown instruction {extra} scheduled", iid=extra
            )
        )
    for iid, cycle in cycle_of.items():
        if cycle < 1:
            violations.append(
                Violation(
                    "bad_cycle",
                    f"instruction {iid} scheduled at cycle {cycle} < 1",
                    iid=iid,
                    cycle=cycle,
                )
            )
    if violations:
        return violations

    # 2. dependence latencies
    unit_of = {i.iid: machine.unit_for(i.fu) for i in lowered.instructions}
    for edge in graph.edges:
        src_cycle = cycle_of[edge.src]
        dst_cycle = cycle_of[edge.dst]
        latency = unit_of[edge.src].latency
        if dst_cycle < src_cycle + latency:
            violations.append(
                Violation(
                    "latency",
                    f"edge {edge} violated: {edge.src}@{src_cycle} (lat {latency}) "
                    f"-> {edge.dst}@{dst_cycle}",
                    iid=edge.dst,
                    cycle=dst_cycle,
                )
            )

    # 3. resources
    issue_count: dict[int, int] = defaultdict(int)
    unit_count: dict[tuple[str, int], int] = defaultdict(int)
    unit_named = {unit.name: unit for unit in reversed(machine.units)}  # first wins
    for iid, cycle in cycle_of.items():
        issue_count[cycle] += 1
        unit = unit_of[iid]
        busy = 1 if unit.pipelined else unit.latency
        for c in range(cycle, cycle + busy):
            unit_count[(unit.name, c)] += 1
    for cycle, used in sorted(issue_count.items()):
        if used > machine.issue_width:
            violations.append(
                Violation(
                    "issue_width",
                    f"cycle {cycle}: {used} issued > width {machine.issue_width}",
                    cycle=cycle,
                )
            )
    for (unit_name, cycle), used in sorted(unit_count.items()):
        unit = unit_named[unit_name]
        if used > unit.count:
            violations.append(
                Violation(
                    "unit_overuse",
                    f"cycle {cycle}: unit {unit_name!r} used {used} > count {unit.count}",
                    cycle=cycle,
                )
            )

    # 4. the paper's synchronization invariants from the pair map
    for pair in lowered.synced.pairs:
        sig = lowered.send_iids[pair.pair_id]
        wat = lowered.wait_iids[pair.pair_id]
        for src in lowered.source_iids(pair.pair_id):
            src_done = cycle_of[src] + unit_of[src].latency - 1
            if cycle_of[sig] <= src_done:
                violations.append(
                    Violation(
                        "send_before_source",
                        f"pair {pair.pair_id}: send {sig}@{cycle_of[sig]} not after "
                        f"source {src} completing at {src_done}",
                        iid=sig,
                        cycle=cycle_of[sig],
                        pair_id=pair.pair_id,
                    )
                )
        for snk in lowered.sink_iids(pair.pair_id):
            if cycle_of[wat] >= cycle_of[snk]:
                violations.append(
                    Violation(
                        "sink_before_wait",
                        f"pair {pair.pair_id}: wait {wat}@{cycle_of[wat]} not before "
                        f"sink {snk}@{cycle_of[snk]}",
                        iid=wat,
                        cycle=cycle_of[wat],
                        pair_id=pair.pair_id,
                    )
                )
    return violations


def verify_schedule(schedule: Schedule, graph: DataFlowGraph) -> list[str]:
    """Check ``schedule``; returns human-readable violations (the original
    string surface of :func:`verify_schedule_structured`)."""
    return [v.message for v in verify_schedule_structured(schedule, graph)]


def assert_valid(schedule: Schedule, graph: DataFlowGraph) -> None:
    """Raise ``AssertionError`` with details if the schedule is illegal."""
    violations = verify_schedule(schedule, graph)
    if violations:
        details = "\n  ".join(violations)
        raise AssertionError(f"invalid schedule ({schedule.scheduler_name}):\n  {details}")
