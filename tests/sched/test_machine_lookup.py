"""The FuClass -> unit table of MachineConfig against a linear scan.

``unit_for`` and ``latency`` answer from a table built once per machine;
the scan below is the lookup they replaced, kept as the oracle.  The table
is derived state: equality, hash, repr and pickle see only the fields.
"""

import pickle

import pytest

from repro.codegen.isa import FuClass
from repro.sched import MachineConfig, figure4_machine, paper_machine
from repro.sched.machine import paper_cases

MACHINES = [
    figure4_machine(),
    *paper_cases(),
    paper_machine(2, 1, pipelined=True),
    paper_machine(4, 2, pipelined=True),
]


def scan_unit_for(machine, fu):
    for unit in machine.units:
        if fu in unit.classes:
            return unit
    raise KeyError(fu)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("fu", list(FuClass), ids=lambda fu: fu.name)
def test_unit_for_and_latency_match_linear_scan(machine, fu):
    assert machine.unit_for(fu) is scan_unit_for(machine, fu)
    assert machine.latency(fu) == scan_unit_for(machine, fu).latency


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
class TestDerivedTableIsInvisible:
    def test_equality_and_hash_are_the_fields(self, machine):
        twin = MachineConfig(machine.name, machine.issue_width, machine.units)
        assert twin == machine
        assert hash(twin) == hash(machine)
        assert hash(machine) == hash((machine.name, machine.issue_width, machine.units))
        other = MachineConfig(machine.name + "-x", machine.issue_width, machine.units)
        assert other != machine

    def test_repr_is_the_fields(self, machine):
        assert repr(machine) == (
            f"MachineConfig(name={machine.name!r}, "
            f"issue_width={machine.issue_width!r}, units={machine.units!r})"
        )

    def test_pickle_carries_only_the_fields_and_rebuilds_the_table(self, machine):
        state = machine.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert state == {
            "name": machine.name,
            "issue_width": machine.issue_width,
            "units": machine.units,
        }
        again = pickle.loads(pickle.dumps(machine))
        assert again == machine
        assert hash(again) == hash(machine)
        assert repr(again) == repr(machine)
        for fu in FuClass:
            assert again.unit_for(fu) == scan_unit_for(machine, fu)


def test_enum_surface_unchanged_by_identity_hash():
    assert str(FuClass.SYNC) == "FuClass.SYNC"
    assert repr(FuClass.LOAD_STORE) == "<FuClass.LOAD_STORE: 'load/store'>"
    assert FuClass("float") is FuClass.FP_ALU
    assert {FuClass.SYNC: 1}[FuClass("sync")] == 1
    assert pickle.loads(pickle.dumps(FuClass.DIVIDER)) is FuClass.DIVIDER
