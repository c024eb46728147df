"""Per-cycle resource reservation: issue slots and function units.

Occupancy is tracked as a per-cycle count against capacity.  For
non-pipelined multi-cycle units this count-based test is exact: all
reservations of a unit kind are intervals of the same length, and a set of
intervals fits on ``count`` instances iff no cycle's overlap exceeds
``count`` (interval-graph coloring).
"""

from __future__ import annotations

from repro.codegen.isa import FuClass
from repro.sched.machine import MachineConfig


class ResourceTable:
    """Mutable reservation state for one schedule under construction.

    Layout: one ``cycle -> count`` dict for issue slots and one per unit
    name, shared by every FuClass that unit serves.  Each FuClass maps once,
    at construction, to ``(count, busy, used)``: the unit's instance count,
    how many cycles one operation occupies it (1 when pipelined or unit
    latency, else the latency) and the unit's occupancy dict.  A single-
    cycle occupancy is tested and updated with one dict access; only
    non-pipelined multi-cycle units walk their interval.
    """

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        self._width = machine.issue_width
        self._issue: dict[int, int] = {}
        self._units: dict[FuClass, tuple[int, int, dict[int, int]]] = {}
        occupancy: dict[str, dict[int, int]] = {}  # by unit name
        for unit in machine.units:
            busy = 1 if unit.pipelined else unit.latency
            entry = (unit.count, busy, occupancy.setdefault(unit.name, {}))
            for cls in unit.classes:
                self._units[cls] = entry

    def can_place(self, fu: FuClass, cycle: int) -> bool:
        """Is there a free issue slot at ``cycle`` and a free instance of the
        unit serving ``fu`` for its full occupancy interval?"""
        if cycle < 1 or self._issue.get(cycle, 0) >= self._width:
            return False
        count, busy, used = self._units[fu]
        if busy == 1:
            return used.get(cycle, 0) < count
        for c in range(cycle, cycle + busy):
            if used.get(c, 0) >= count:
                return False
        return True

    def place(self, fu: FuClass, cycle: int) -> None:
        if not self.can_place(fu, cycle):
            raise ValueError(f"cannot place {fu} at cycle {cycle}")
        issue = self._issue
        issue[cycle] = issue.get(cycle, 0) + 1
        _, busy, used = self._units[fu]
        if busy == 1:
            used[cycle] = used.get(cycle, 0) + 1
            return
        for c in range(cycle, cycle + busy):
            used[c] = used.get(c, 0) + 1

    def remove(self, fu: FuClass, cycle: int) -> None:
        """Undo a placement (used by the sync scheduler's retry search)."""
        self._issue[cycle] -= 1
        _, busy, used = self._units[fu]
        if busy == 1:
            used[cycle] -= 1
            return
        for c in range(cycle, cycle + busy):
            used[c] -= 1

    def earliest(self, fu: FuClass, min_cycle: int) -> int:
        """First cycle ``>= min_cycle`` where ``fu`` can be placed.

        Always terminates: beyond the current horizon everything is free.
        """
        cycle = max(1, min_cycle)
        while not self.can_place(fu, cycle):
            cycle += 1
        return cycle

    def latest_at_most(self, fu: FuClass, deadline: int, min_cycle: int) -> int | None:
        """Last cycle in ``[min_cycle, deadline]`` where ``fu`` fits, or None."""
        for cycle in range(deadline, max(1, min_cycle) - 1, -1):
            if self.can_place(fu, cycle):
                return cycle
        return None
