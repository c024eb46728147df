"""Synchronization-marker list scheduling (the paper's predecessor, its
reference [18]).

The marker method keeps synchronization operations *glued to their
dependence events* instead of letting list scheduling treat them as
always-ready nodes: a ``Wait_Signal`` is held back until its sink could
issue the very next cycle (so the wait sits immediately before the sink,
as the textual insertion intended), and a ``Send_Signal`` issues as soon
as its source completes.

This removes the classic pathology — waits hoisted to cycle 1 stretch the
wait→send span to the whole iteration — without any of the paper's
structural ideas (no Sigwat analysis, no LBD→LFD conversion, no
synchronization-path packing).  It therefore makes the natural middle
baseline between plain list scheduling and the Section 3 technique; the
three-way comparison is `benchmarks/test_bench_scheduler_comparison.py`.
"""

from __future__ import annotations

from repro.codegen.isa import Opcode
from repro.codegen.lower import LoweredLoop
from repro.dfg.graph import DataFlowGraph
from repro.sched.machine import MachineConfig
from repro.sched.resources import ResourceTable
from repro.sched.schedule import Schedule


def marker_schedule(
    lowered: LoweredLoop,
    graph: DataFlowGraph,
    machine: MachineConfig,
) -> Schedule:
    """Greedy cycle-by-cycle scheduling with marker-pinned sync operations.

    Identical to :func:`repro.sched.list_scheduler.list_schedule` with
    program-order priority, except for the readiness rule of waits: a wait
    becomes a candidate only once every *other* predecessor of each of its
    sinks is scheduled and their latencies allow the sink to issue next
    cycle.  Sends have no special rule — their sync arc (source → send)
    already delays them until the source completes, and program order picks
    them up immediately after.
    """
    # For each wait: its sinks, and each sink's other predecessors.
    wait_sinks: dict[int, list[int]] = {}
    for pair in lowered.synced.pairs:
        wait_iid = lowered.wait_iids[pair.pair_id]
        wait_sinks.setdefault(wait_iid, []).extend(lowered.sink_iids(pair.pair_id))

    schedule = Schedule(machine=machine, lowered=lowered, scheduler_name="marker")
    resources = ResourceTable(machine)
    unscheduled = set(graph.nodes)
    ready_cycle = {n: 1 for n in graph.nodes}
    pending_preds = {n: graph.in_degree(n) for n in graph.nodes}
    cycle_of = schedule.cycle_of

    wait_descendants: dict[int, int] = {  # bitmasks (DataFlowGraph.bit)
        iid: graph.descendant_mask(iid) for iid in wait_sinks
    }

    def wait_ready(iid: int, cycle: int) -> bool:
        """May the wait issue at ``cycle`` under the marker rule?"""
        for snk in wait_sinks.get(iid, ()):
            for edge in graph.pred[snk]:
                if edge.src == iid:
                    continue
                if lowered.instruction(edge.src).opcode is Opcode.WAIT:
                    # sibling waits on the same sink must not deadlock each
                    # other; the single sync port serializes them anyway
                    continue
                if wait_descendants[iid] & graph.bit(edge.src):
                    # the predecessor itself needs this wait first (a sink
                    # store whose value chain starts at the wait) — holding
                    # the wait for it would deadlock
                    continue
                if edge.src not in cycle_of:
                    return False
                latency = machine.latency(lowered.instruction(edge.src).fu)
                if cycle_of[edge.src] + latency > cycle + 1:
                    # the sink could not issue right after the wait yet
                    return False
        return True

    cycle = 1
    guard = 0
    while unscheduled:
        candidates = sorted(
            n
            for n in unscheduled
            if pending_preds[n] == 0 and ready_cycle[n] <= cycle
        )
        for iid in candidates:
            instr = lowered.instruction(iid)
            if instr.opcode is Opcode.WAIT and not wait_ready(iid, cycle):
                continue
            if resources.can_place(instr.fu, cycle):
                resources.place(instr.fu, cycle)
                cycle_of[iid] = cycle
                unscheduled.discard(iid)
                latency = machine.latency(instr.fu)
                for edge in graph.succ[iid]:
                    pending_preds[edge.dst] -= 1
                    ready_cycle[edge.dst] = max(ready_cycle[edge.dst], cycle + latency)
        cycle += 1
        guard += 1
        if guard > len(graph.nodes) * 64 + 1024:  # pragma: no cover
            raise RuntimeError("marker scheduler failed to make progress")
    return schedule
