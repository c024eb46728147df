"""The paper's synchronization-aware instruction scheduler (Section 3.2).

Scheduling order:

1. **Synchronization paths** in Sigwat graphs, in descending
   ``(n/d)·|SP|`` order, overlapping paths grouped.  The highest-priority
   path of each group is placed *contiguously* — one path node per
   back-to-back cycle (spaced by unit latency) — because the path is the
   shortest possible wait→send span and packing it realizes that minimum.
   The placement searches the earliest start cycle for which the path's
   off-path ancestors fit in the surrounding slots (a retry search; loop
   bodies are tens of instructions, so this is cheap).  Remaining paths of
   the group are packed as tightly as dependences allow.
2. **Remaining Sigwat nodes**, ASAP in topological order.
3. **Sig graphs**: each ``Send_Signal`` is placed as late as possible but
   *before* its already-scheduled wait (converting the pair to run-time
   LFD); other Sig-graph nodes ASAP.
4. **Wat graphs**: each ``Wait_Signal`` is placed *after* its send (run-time
   LFD again); other Wat-graph nodes ASAP.
5. **Plain nodes** (no synchronization in their component), ASAP.

Unlike the cycle-by-cycle list scheduler, placement is slot-based: a later
phase may fill empty slots of earlier cycles, exactly as the paper's
Fig. 4(b) fills Wat-graph nodes into the Sigwat cycles.

Every step honours the DFG (which includes the synchronization-condition
arcs), so the result is always a legal, stale-data-free schedule; the
options exist to ablate the individual performance ideas.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.codegen.isa import Opcode
from repro.codegen.lower import LoweredLoop
from repro.dfg.graph import DataFlowGraph
from repro.dfg.partition import Component, ComponentKind, partition
from repro.dfg.syncpath import SyncPath, find_sync_paths, group_overlapping, order_paths
from repro.ir.ast_nodes import Const
from repro.obs.explain import Decision, active_journal
from repro.obs.metrics import count as metric_count
from repro.obs.trace import span
from repro.sched.machine import MachineConfig
from repro.sched.resources import ResourceTable
from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class SyncSchedulerOptions:
    """Feature switches for ablation studies.  Defaults = the paper."""

    contiguous_sp: bool = True  # pack each primary SP back-to-back
    sp_order: str = "desc"  # "desc" | "asc" | "id": (n/d)|SP| ordering
    sends_before_waits: bool = True  # Sig-graph deadline placement
    waits_after_sends: bool = True  # Wat-graph placement after the send
    trip_count: int | None = None  # n for SP weights; default from the loop
    guard_never_degrade: bool = False  # fall back to list scheduling if faster
    """The paper asserts the technique "never degrades the system
    performance".  The *stall component* never degrades, but the phase-
    based placement can cost a cycle or two of iteration length on
    stall-free loops, and cross-coupled pairs can stack (see
    EXPERIMENTS.md §6).  With this guard on, the scheduler simulates both
    its own result and plain list scheduling and returns the faster one,
    making the claim literally true at the cost of one extra scheduling
    pass."""


class _SyncScheduler:
    def __init__(
        self,
        lowered: LoweredLoop,
        graph: DataFlowGraph,
        machine: MachineConfig,
        options: SyncSchedulerOptions,
    ) -> None:
        self.lowered = lowered
        self.graph = graph
        self.machine = machine
        self.options = options
        self.resources = ResourceTable(machine)
        self.cycle_of: dict[int, int] = {}
        self.topo = graph.topological_order()
        # Reachability is asked as graph bitmasks; ``_placed`` is the mask
        # of ``cycle_of``'s keys, kept in step by place()/unplace().
        self._bit = {iid: graph.bit(iid) for iid in self.topo}
        self._placed = 0
        self._latency = {
            instr.iid: machine.latency(instr.fu) for instr in lowered.instructions
        }
        self._inflight_sends: set[int] = set()
        self._sp_pair_ids: set[int] = set()  # filled by run()
        # Decision provenance (repro.obs.explain).  Buffered per-iid so the
        # transactional SP placement can roll decisions back with unplace();
        # flushed to the journal once at the end of run().
        self._journal = active_journal()
        self._decisions: dict[int, Decision] = {}
        self._phase = "init"
        self._rule = "asap"
        self._rule_pair: int | None = None
        self._rule_note = ""

    # -- decision provenance ----------------------------------------------------

    @contextmanager
    def _ruled(self, rule: str, pair_id: int | None = None, note: str = ""):
        """Label placements inside the block with a placement rule."""
        previous = (self._rule, self._rule_pair, self._rule_note)
        self._rule, self._rule_pair, self._rule_note = rule, pair_id, note
        try:
            yield
        finally:
            self._rule, self._rule_pair, self._rule_note = previous

    def _record(
        self,
        iid: int,
        cycle: int,
        *,
        ready: int,
        min_cycle: int = 1,
        rule: str | None = None,
        pair_id: int | None = None,
        note: str | None = None,
        critical_pred: int | None = None,
    ) -> None:
        if self._journal is None:
            return
        self._decisions[iid] = Decision(
            scheduler="sync-aware",
            iid=iid,
            cycle=cycle,
            phase=self._phase,
            rule=rule if rule is not None else self._rule,
            ready_cycle=ready,
            min_cycle=min_cycle,
            resource_delay=max(0, cycle - max(ready, min_cycle)),
            critical_pred=critical_pred,
            pair_id=pair_id if pair_id is not None else self._rule_pair,
            note=note if note is not None else self._rule_note,
        )

    def ready_cycle_reason(self, iid: int) -> tuple[int, int | None]:
        """:meth:`ready_cycle` plus the predecessor that set it."""
        cycle, pred = 1, None
        for edge in self.graph.pred[iid]:
            candidate = self.cycle_of[edge.src] + self.latency(edge.src)
            if candidate > cycle:
                cycle, pred = candidate, edge.src
        return cycle, pred

    # -- primitives -----------------------------------------------------------

    def latency(self, iid: int) -> int:
        return self._latency[iid]

    def ready_cycle(self, iid: int) -> int:
        """Earliest legal issue cycle given scheduled predecessors.

        All predecessors must already be scheduled (phases guarantee it).
        """
        cycle = 1
        cycle_of, latency = self.cycle_of, self._latency
        for edge in self.graph.pred[iid]:
            candidate = cycle_of[edge.src] + latency[edge.src]
            if candidate > cycle:
                cycle = candidate
        return cycle

    def place(self, iid: int, cycle: int) -> None:
        self.resources.place(self.lowered.instruction(iid).fu, cycle)
        self.cycle_of[iid] = cycle
        self._placed |= self._bit[iid]

    def unplace(self, iid: int) -> None:
        cycle = self.cycle_of.pop(iid)
        self._placed &= ~self._bit[iid]
        self.resources.remove(self.lowered.instruction(iid).fu, cycle)
        self._decisions.pop(iid, None)

    def place_asap(self, iid: int, min_cycle: int = 1) -> int:
        fu = self.lowered.instruction(iid).fu
        if self._journal is None:
            ready, pred = self.ready_cycle(iid), None
        else:
            ready, pred = self.ready_cycle_reason(iid)
        cycle = self.resources.earliest(fu, max(min_cycle, ready))
        self.place(iid, cycle)
        self._record(iid, cycle, ready=ready, min_cycle=min_cycle, critical_pred=pred)
        return cycle

    def unscheduled_ancestors(self, nodes: list[int]) -> list[int]:
        """Unscheduled ancestors of ``nodes`` outside ``nodes``, in
        topological order."""
        ancestor_mask, bit = self.graph.ancestor_mask, self._bit
        closure = own = 0
        for node in nodes:
            closure |= ancestor_mask(node)
            own |= bit[node]
        return self.graph.nodes_of(closure & ~(own | self._placed))

    def place_with_ancestors(self, iid: int, min_cycle: int = 1) -> int:
        for anc in self.unscheduled_ancestors([iid]):
            self.place_asap(anc)
        return self.place_asap(iid, min_cycle)

    # -- node placement rules (sends and waits) --------------------------------

    def wait_min_cycle(self, iid: int) -> int:
        """A wait goes after its send when the send is already placed."""
        if not self.options.waits_after_sends:
            return 1
        instr = self.lowered.instruction(iid)
        assert instr.sync is not None
        min_cycle = 1
        for pair_id in instr.sync.pair_ids:
            send_iid = self.lowered.send_iids[pair_id]
            if send_iid in self.cycle_of:
                min_cycle = max(min_cycle, self.cycle_of[send_iid] + self.latency(send_iid))
        return min_cycle

    def send_deadline(self, iid: int) -> int | None:
        """A send should complete before its earliest scheduled wait."""
        if not self.options.sends_before_waits:
            return None
        instr = self.lowered.instruction(iid)
        assert instr.sync is not None
        deadline: int | None = None
        for pair_id in instr.sync.pair_ids:
            wait_iid = self.lowered.wait_iids[pair_id]
            if wait_iid in self.cycle_of:
                limit = self.cycle_of[wait_iid] - self.latency(iid)
                deadline = limit if deadline is None else min(deadline, limit)
        return deadline

    def place_node(self, iid: int) -> None:
        """Place one node (preds scheduled) honouring send/wait rules.

        Idempotent: recursive cone-pulling can reach a node through several
        routes; the first placement wins.
        """
        if iid in self.cycle_of:
            return
        instr = self.lowered.instruction(iid)
        if instr.opcode is Opcode.WAIT:
            if self.options.waits_after_sends:
                # Convertible-to-LFD: pull the paired send's cone in first
                # whenever the wait does not feed it (no synchronization
                # path), then sit down after the send.
                assert instr.sync is not None
                for pair_id in instr.sync.pair_ids:
                    send_iid = self.lowered.send_iids[pair_id]
                    if (
                        send_iid in self.cycle_of
                        or send_iid in self._inflight_sends
                        or self.graph.ancestor_mask(send_iid) & self._bit[iid]
                    ):
                        continue
                    self._inflight_sends.add(send_iid)
                    try:
                        for anc in self.unscheduled_ancestors([send_iid]):
                            self.place_node(anc)
                        self.place_node(send_iid)
                    finally:
                        self._inflight_sends.discard(send_iid)
                if iid in self.cycle_of:
                    return  # the cone-pulling recursion placed this wait
            min_cycle = self.wait_min_cycle(iid)
            assert instr.sync is not None
            pair_id = instr.sync.pair_ids[0] if instr.sync.pair_ids else None
            rule = (
                "wait_after_send"
                if self.options.waits_after_sends and min_cycle > 1
                else self._rule
            )
            with self._ruled(rule, pair_id=pair_id):
                self.place_asap(iid, min_cycle)
            return
        if instr.opcode is Opcode.SEND:
            assert instr.sync is not None
            pair_id = instr.sync.pair_ids[0] if instr.sync.pair_ids else None
            deadline = self.send_deadline(iid)
            if self._journal is None:
                ready, pred = self.ready_cycle(iid), None
            else:
                ready, pred = self.ready_cycle_reason(iid)
            if deadline is not None and deadline >= ready:
                cycle = self.resources.latest_at_most(instr.fu, deadline, ready)
                if cycle is not None:
                    self.place(iid, cycle)
                    self._record(
                        iid,
                        cycle,
                        ready=ready,
                        rule="send_deadline",
                        pair_id=pair_id,
                        note=f"placed before its wait (deadline c{deadline})",
                        critical_pred=pred,
                    )
                    return
            with self._ruled(self._rule, pair_id=pair_id):
                self.place_asap(iid)
            return
        self.place_asap(iid)

    def schedule_set(self, nodes: set[int], sends_first: bool = False) -> None:
        """Schedule ``nodes`` (and any unscheduled ancestors) in topological
        order with the send/wait placement rules.

        ``sends_first`` implements the paper's convertible-to-LFD case for
        Sigwat graphs: a pair whose wait has *no* directed path to its send
        (no synchronization path — those were handled in phase 1) can be
        made run-time LFD by scheduling the send's dependence cone first
        and the wait after it.  A wait never sits in a send's ancestor cone
        here (that would be a synchronization path), so the two passes are
        well-defined.
        """
        pending = [n for n in self.topo if n in nodes and n not in self.cycle_of]
        if sends_first:
            for iid in pending:
                if iid in self.cycle_of:
                    continue
                if self.lowered.instruction(iid).opcode is Opcode.SEND:
                    for anc in self.unscheduled_ancestors([iid]):
                        self.place_node(anc)
                    self.place_node(iid)
        for iid in pending:
            if iid in self.cycle_of:
                continue
            for anc in self.unscheduled_ancestors([iid]):
                self.place_node(anc)
            self.place_node(iid)

    # -- synchronization-path placement ----------------------------------------

    def min_spacing(self, a: int, b: int) -> int:
        """Minimum cycles between path nodes ``a`` and ``b``: the longest
        latency-weighted dependence chain from ``a`` to ``b``.

        Usually that is just ``lat(a)`` (the direct path edge), but other
        mandatory chains may connect two consecutive SP nodes — e.g. the
        k19-style recurrence where the sink's loaded value feeds, through
        the whole statement, the very store the send follows.  Packing
        tighter than the chain is impossible for *any* start cycle.
        """
        graph, bit = self.graph, self._bit
        between = (graph.descendant_mask(a) & graph.ancestor_mask(b)) | bit[a] | bit[b]
        dist = {a: 0}
        for node in graph.nodes_of(between):  # topological order
            if node not in dist:
                continue
            candidate = dist[node] + self._latency[node]
            for edge in graph.succ[node]:
                if between & bit[edge.dst] and candidate > dist.get(edge.dst, -1):
                    dist[edge.dst] = candidate
        return dist.get(b, self.latency(a))

    def sp_offsets(self, nodes: list[int]) -> list[int]:
        """Each path node's cycle offset from the path's start when packed
        at :meth:`min_spacing`; independent of the start cycle."""
        offsets = [0]
        for a, b in zip(nodes, nodes[1:]):
            offsets.append(offsets[-1] + self.min_spacing(a, b))
        return offsets

    def try_place_path(
        self,
        nodes: list[int],
        start: int,
        offsets: list[int],
        ancestors: list[int],
        pair_id: int | None = None,
    ) -> bool:
        """Transactionally place ``nodes`` at ``start + offsets``, then
        ``ancestors`` (their unscheduled ancestors, topologically ordered)
        backward — ALAP before their consumers, the way the paper's
        Fig. 4(b) tucks ``t5 <- I + 1`` into cycle 1; roll back on any
        failure.  Both lists are the same for every retried ``start``: a
        failed try restores the state it started from.

        ALAP rather than ASAP matters: an ancestor placed greedily early
        can occupy the slot a tighter-deadline ancestor chain needs (the
        address arithmetic feeding the path's first load must finish before
        the path starts, while the store-address arithmetic has the whole
        path's length of slack).
        """
        placed: list[int] = []

        def rollback() -> bool:
            for iid in reversed(placed):
                self.unplace(iid)
            return False

        for iid, offset in zip(nodes, offsets):
            fu = self.lowered.instruction(iid).fu
            if not self.resources.can_place(fu, start + offset):
                return rollback()
            self.place(iid, start + offset)
            placed.append(iid)

        for anc in reversed(ancestors):  # reverse topological: consumers first
            instr = self.lowered.instruction(anc)
            latency = self.latency(anc)
            deadline: int | None = None
            for edge in self.graph.succ[anc]:
                if edge.dst in self.cycle_of:
                    limit = self.cycle_of[edge.dst] - latency
                    deadline = limit if deadline is None else min(deadline, limit)
            if deadline is None or deadline < 1:
                return rollback()
            # Predecessors scheduled in earlier phases bound us from below;
            # ancestor predecessors are placed after us (reverse topo) and
            # satisfy the ordering through their own deadlines.
            min_cycle = 1
            for edge in self.graph.pred[anc]:
                if edge.src in self.cycle_of:
                    min_cycle = max(min_cycle, self.cycle_of[edge.src] + self.latency(edge.src))
            if instr.opcode is Opcode.WAIT and not (
                instr.sync is not None
                and set(instr.sync.pair_ids) & self._sp_pair_ids
            ):
                # A *convertible* wait ancestor whose send is already placed
                # (Sig graphs go first) must land after it — retrying with a
                # later SP start makes room for the run-time LFD.  Waits on
                # synchronization paths are exempt: they can never follow
                # their own sends.
                min_cycle = max(min_cycle, self.wait_min_cycle(anc))
            cycle = self.resources.latest_at_most(instr.fu, deadline, min_cycle)
            if cycle is None:
                return rollback()
            self.place(anc, cycle)
            placed.append(anc)

        # Full latency re-check now that everything relevant is scheduled.
        for iid in placed:
            if self.ready_cycle(iid) > self.cycle_of[iid]:
                return rollback()
        if self._journal is not None:
            # Everything relevant is placed, so ready cycles are final.
            path_set = set(nodes)
            for iid in placed:
                ready, pred = self.ready_cycle_reason(iid)
                if iid in path_set:
                    self._record(
                        iid,
                        self.cycle_of[iid],
                        ready=ready,
                        rule="sp_contiguous",
                        pair_id=pair_id,
                        note=f"synchronization path packed from c{start}",
                        critical_pred=pred,
                    )
                else:
                    self._record(
                        iid,
                        self.cycle_of[iid],
                        ready=ready,
                        rule="sp_ancestor_alap",
                        pair_id=pair_id,
                        note="tucked before its consumer on the path",
                        critical_pred=pred,
                    )
        return True

    def schedule_path_contiguous(self, path: SyncPath) -> None:
        nodes = [n for n in path.nodes if n not in self.cycle_of]
        if len(nodes) != len(path.nodes):
            # Partially scheduled by an earlier group (shared ancestor):
            # fall back to tight ASAP packing of the remainder.
            for node in nodes:
                self.place_with_ancestors(node)
            return
        horizon = (
            max(self.cycle_of.values(), default=0)
            + (len(self.graph) + 2) * max(u.latency for u in self.machine.units)
            + 8
        )
        offsets = self.sp_offsets(nodes)
        ancestors = self.unscheduled_ancestors(nodes)
        for start in range(1, horizon + 1):
            if self.try_place_path(nodes, start, offsets, ancestors, pair_id=path.pair_id):
                metric_count("sched_pass.sync.sp_start_retries", start - 1)
                return
        # Dependence-minimal spacing can still be resource-infeasible (the
        # in-between work oversubscribes a unit inside the fixed window):
        # fall back to tight sequential ASAP placement, which always works.
        metric_count("sched_pass.sync.sp_fallback_asap")
        with self._ruled("sp_fallback_asap", pair_id=path.pair_id):
            for node in nodes:
                if node not in self.cycle_of:
                    self.place_with_ancestors(node)

    def schedule_sp_group(self, group: list[SyncPath]) -> None:
        primary, *rest = group
        if self.options.contiguous_sp:
            self.schedule_path_contiguous(primary)
        else:
            for node in primary.nodes:
                if node not in self.cycle_of:
                    self.place_with_ancestors(node)
        for path in rest:
            for node in path.nodes:
                if node not in self.cycle_of:
                    self.place_with_ancestors(node)

    # -- driver -----------------------------------------------------------------

    def run(self) -> Schedule:
        components = partition(self.graph, self.lowered)
        trip = self.options.trip_count
        if trip is None:
            loop = self.lowered.synced.loop
            if isinstance(loop.lower, Const) and isinstance(loop.upper, Const):
                trip = int(loop.upper.value) - int(loop.lower.value) + 1
            else:
                trip = 100
        paths = find_sync_paths(self.graph, self.lowered, components)
        self._sp_pair_ids = {p.pair_id for p in paths}
        metric_count("sched_pass.sync.sync_paths", len(paths))
        if self.options.sp_order == "desc":
            paths = order_paths(paths, trip)
        elif self.options.sp_order == "asc":
            paths = list(reversed(order_paths(paths, trip)))
        else:
            paths = sorted(paths, key=lambda p: p.pair_id)

        # Phase 0: a pair with no synchronization path is convertible to
        # run-time LFD, but only if its send precedes its wait.  When such a
        # pair's wait is an *ancestor of an SP node* (its sink's load feeds
        # an SP chain), phase 1 would drag the wait early while the send's
        # statement is still unscheduled — an avoidable LBD costing
        # ``(n/d)·span``.  Scheduling those sends' cones first costs a few
        # cycles of iteration length and removes the whole stall chain.
        sp_nodes = {node for path in paths for node in path.nodes}
        sp_mask = self.graph.mask_of(sp_nodes)
        sp_ancestors = 0
        for node in sp_nodes:
            sp_ancestors |= self.graph.ancestor_mask(node)
        sp_pair_ids = {path.pair_id for path in paths}
        if self.options.waits_after_sends:
            self._phase = "lfd_conversion"
            for pair in self.lowered.synced.pairs:
                if pair.pair_id in sp_pair_ids:
                    continue
                wait_iid = self.lowered.wait_iids[pair.pair_id]
                send_iid = self.lowered.send_iids[pair.pair_id]
                if sp_ancestors & self._bit[wait_iid] and send_iid not in sp_nodes:
                    cone = self.graph.ancestor_mask(send_iid) & ~self._placed
                    if cone & sp_mask:
                        continue  # cannot hoist the send without the SP
                    with self._ruled("lfd_send_hoist", pair_id=pair.pair_id):
                        for anc in self.unscheduled_ancestors([send_iid]):
                            self.place_node(anc)
                        self.place_node(send_iid)

        # Sig graphs first (the paper's rule: "scheduling Sig graphs before
        # all Sigwat graphs" converts their pairs to LFD — the waits, placed
        # later, land after these sends).
        if self.options.sends_before_waits:
            self._phase = "sig_first"
            with span("schedule.sync.sig_first"):
                for component in components:
                    if component.kind is ComponentKind.SIG:
                        self.schedule_set(set(component.nodes))

        # Phase 1: synchronization paths.
        self._phase = "sync_paths"
        with span("schedule.sync.sp"):
            groups = group_overlapping(paths)
            metric_count("sched_pass.sync.sp_groups", len(groups))
            for group in groups:
                self.schedule_sp_group(group)

        # Phases 2-5: Sigwat remainders, Sig graphs, Wat graphs, plain nodes.
        with span("schedule.sync.components"):
            for kind in (
                ComponentKind.SIGWAT,
                ComponentKind.SIG,
                ComponentKind.WAT,
                ComponentKind.PLAIN,
            ):
                self._phase = f"components.{kind.name.lower()}"
                for component in components:
                    if component.kind is kind:
                        self.schedule_set(
                            set(component.nodes),
                            sends_first=(kind is ComponentKind.SIGWAT),
                        )

        if self._journal is not None:
            for iid in sorted(
                self._decisions, key=lambda i: (self.cycle_of.get(i, 0), i)
            ):
                self._journal.record_decision(self._decisions[iid])

        return Schedule(
            machine=self.machine,
            lowered=self.lowered,
            cycle_of=self.cycle_of,
            scheduler_name="sync-aware",
        )


def sync_schedule(
    lowered: LoweredLoop,
    graph: DataFlowGraph,
    machine: MachineConfig,
    options: SyncSchedulerOptions | None = None,
) -> Schedule:
    """Schedule with the paper's synchronization-aware algorithm."""
    options = options or SyncSchedulerOptions()
    with span("schedule.sync"):
        schedule = _SyncScheduler(lowered, graph, machine, options).run()
    if options.guard_never_degrade:
        # Deferred imports: repro.sim imports repro.sched at module load.
        from repro.ir.ast_nodes import Const
        from repro.sched.list_scheduler import list_schedule
        from repro.sim.multiproc import simulate_doacross

        n = options.trip_count
        if n is None:
            loop = lowered.synced.loop
            if isinstance(loop.lower, Const) and isinstance(loop.upper, Const):
                n = int(loop.upper.value) - int(loop.lower.value) + 1
            else:
                n = 100
        listed = list_schedule(lowered, graph, machine)
        if (
            simulate_doacross(listed, n).parallel_time
            < simulate_doacross(schedule, n).parallel_time
        ):
            listed.scheduler_name = "sync-aware/guarded->list"
            return listed
    return schedule
