"""Property-based tests of the resource reservation table."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.codegen.isa import FuClass
from repro.sched import ResourceTable, figure4_machine, paper_machine

_fus = st.sampled_from(
    [
        FuClass.LOAD_STORE,
        FuClass.INT_ALU,
        FuClass.FP_ALU,
        FuClass.MULTIPLIER,
        FuClass.DIVIDER,
        FuClass.SHIFTER,
        FuClass.SYNC,
    ]
)
_machines = st.sampled_from(
    [paper_machine(2, 1), paper_machine(4, 2), figure4_machine()]
)


@given(machine=_machines, ops=st.lists(st.tuples(_fus, st.integers(1, 12)), max_size=30))
@settings(max_examples=80)
def test_placements_never_exceed_capacity(machine, ops):
    """Greedily place every op at its earliest slot; recount occupancy and
    verify no cycle exceeds issue width or unit capacity."""
    table = ResourceTable(machine)
    placed = []
    for fu, min_cycle in ops:
        cycle = table.earliest(fu, min_cycle)
        assert cycle >= min_cycle
        table.place(fu, cycle)
        placed.append((fu, cycle))

    # independent recount
    from collections import defaultdict

    issue = defaultdict(int)
    unit_busy = defaultdict(int)
    for fu, cycle in placed:
        issue[cycle] += 1
        unit = machine.unit_for(fu)
        span = 1 if unit.pipelined else unit.latency
        for c in range(cycle, cycle + span):
            unit_busy[(unit.name, c)] += 1
    for cycle, used in issue.items():
        assert used <= machine.issue_width
    for (unit_name, _), used in unit_busy.items():
        unit = next(u for u in machine.units if u.name == unit_name)
        assert used <= unit.count


@given(machine=_machines, ops=st.lists(st.tuples(_fus, st.integers(1, 10)), max_size=20))
@settings(max_examples=60)
def test_remove_is_exact_inverse(machine, ops):
    table = ResourceTable(machine)
    placements = []
    for fu, min_cycle in ops:
        cycle = table.earliest(fu, min_cycle)
        table.place(fu, cycle)
        placements.append((fu, cycle))
    for fu, cycle in reversed(placements):
        table.remove(fu, cycle)
    # the table is empty again: every class fits at every touched cycle
    touched = {cycle for _, cycle in placements} | {1}
    for fu in FuClass:
        for cycle in touched:
            assert table.can_place(fu, cycle)


@given(machine=_machines, fu=_fus, min_cycle=st.integers(1, 20))
@settings(max_examples=60)
def test_earliest_is_minimal(machine, fu, min_cycle):
    table = ResourceTable(machine)
    # congest the early cycles a bit
    for c in range(1, 4):
        while table.can_place(fu, c):
            table.place(fu, c)
    found = table.earliest(fu, min_cycle)
    assert table.can_place(fu, found)
    for cycle in range(min_cycle, found):
        assert not table.can_place(fu, cycle)


class _DictReservations:
    """The dict-of-dicts reservation table the flat one replaced: the
    reference for the differential test below."""

    def __init__(self, machine):
        from collections import defaultdict

        self.machine = machine
        self.issue = defaultdict(int)
        self.units = defaultdict(lambda: defaultdict(int))

    def _busy(self, unit, cycle):
        return range(cycle, cycle + (1 if unit.pipelined else unit.latency))

    def can_place(self, fu, cycle):
        if cycle < 1 or self.issue[cycle] >= self.machine.issue_width:
            return False
        unit = next(u for u in self.machine.units if fu in u.classes)
        return all(self.units[unit.name][c] < unit.count for c in self._busy(unit, cycle))

    def place(self, fu, cycle):
        self.issue[cycle] += 1
        unit = next(u for u in self.machine.units if fu in u.classes)
        for c in self._busy(unit, cycle):
            self.units[unit.name][c] += 1

    def remove(self, fu, cycle):
        self.issue[cycle] -= 1
        unit = next(u for u in self.machine.units if fu in u.classes)
        for c in self._busy(unit, cycle):
            self.units[unit.name][c] -= 1


_all_machines = st.sampled_from(
    [
        figure4_machine(),
        paper_machine(2, 1),
        paper_machine(2, 2),
        paper_machine(4, 1),
        paper_machine(4, 2),
        paper_machine(2, 1, pipelined=True),
    ]
)


@given(
    machine=_all_machines,
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("place"), _fus, st.integers(0, 14)),
            st.tuples(st.just("remove"), st.integers(0, 40)),
        ),
        max_size=60,
    ),
)
@settings(max_examples=150, deadline=None)
def test_place_remove_sequences_agree_with_dict_reference(machine, ops):
    table = ResourceTable(machine)
    reference = _DictReservations(machine)
    live = []
    for op in ops:
        if op[0] == "place":
            _, fu, cycle = op
            fits = reference.can_place(fu, cycle)
            assert table.can_place(fu, cycle) == fits
            if fits:
                table.place(fu, cycle)
                reference.place(fu, cycle)
                live.append((fu, cycle))
            else:
                try:
                    table.place(fu, cycle)
                except ValueError:
                    pass
                else:
                    raise AssertionError(f"placed {fu} at full cycle {cycle}")
        elif live:
            fu, cycle = live.pop(op[1] % len(live))
            table.remove(fu, cycle)
            reference.remove(fu, cycle)
        for fu in FuClass:
            for cycle in range(0, 22):
                assert table.can_place(fu, cycle) == reference.can_place(fu, cycle)
        for fu in (FuClass.LOAD_STORE, FuClass.DIVIDER):
            assert table.earliest(fu, 3) == next(
                c for c in range(3, 64) if reference.can_place(fu, c)
            )
