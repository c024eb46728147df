"""Robustness: degenerate machines, large bodies, stress shapes."""

import pytest

from repro.options import EvalOptions
from repro.pipeline import compile_loop, evaluate_loop
from repro.sched import MachineConfig, UnitSpec, assert_valid, paper_machine
from repro.sched import list_schedule, marker_schedule, sync_schedule
from repro.workloads import GeneratorConfig, PlantedDep, generate_loop


class TestDegenerateMachines:
    def test_single_issue_machine(self):
        compiled = compile_loop("DO I = 1, 20\n A(I) = A(I-1) + X(I)\nENDDO")
        machine = paper_machine(1, 1)
        for scheduler in (list_schedule, marker_schedule, sync_schedule):
            schedule = scheduler(compiled.lowered, compiled.graph, machine)
            assert_valid(schedule, compiled.graph)
            # one instruction per cycle, so length >= instruction count
            assert schedule.length >= len(compiled.lowered)

    def test_very_wide_machine(self):
        compiled = compile_loop(
            "DO I = 1, 20\n A(I) = X1(I) + X2(I) + X3(I) * X4(I)\nENDDO"
        )
        machine = paper_machine(16, 8)
        for scheduler in (list_schedule, sync_schedule):
            schedule = scheduler(compiled.lowered, compiled.graph, machine)
            assert_valid(schedule, compiled.graph)

    def test_all_classes_one_unit_spec(self):
        """A single universal unit serving every class is a legal config."""
        from repro.codegen.isa import FuClass

        machine = MachineConfig(
            name="universal",
            issue_width=2,
            units=(UnitSpec("alu", frozenset(FuClass), 2),),
        )
        compiled = compile_loop("DO I = 1, 10\n A(I) = A(I-1) * X(I)\nENDDO")
        schedule = sync_schedule(compiled.lowered, compiled.graph, machine)
        assert_valid(schedule, compiled.graph)


class TestStress:
    def test_large_body_compiles_and_schedules(self):
        config = GeneratorConfig(
            statements=40,
            deps=(
                PlantedDep(39, 0, 1),
                PlantedDep(20, 5, 2),
                PlantedDep(10, 10, 3),
                PlantedDep(30, 2, 1, chained=True),
            ),
            noise_reads=(2, 4),
            seed=99,
        )
        compiled = compile_loop(generate_loop(config))
        assert len(compiled.lowered) > 200  # CSE shrinks the address arithmetic
        result = evaluate_loop(compiled, paper_machine(4, 2), n=100)
        assert result.t_new <= result.t_list

    def test_many_pairs(self):
        """Ten planted dependences: scheduling stays legal and beneficial."""
        deps = tuple(PlantedDep(9, k, (k % 3) + 1) for k in range(9)) + (
            PlantedDep(9, 9, 1),
        )
        config = GeneratorConfig(statements=10, deps=deps, noise_reads=(1, 2), seed=5)
        compiled = compile_loop(generate_loop(config))
        assert len(compiled.synced.pairs) == 10
        result = evaluate_loop(compiled, paper_machine(4, 1), n=100)
        assert result.t_new <= result.t_list

    def test_deep_expression_tree(self):
        body = " + ".join(f"R{k}(I)" for k in range(1, 25))
        compiled = compile_loop(f"DO I = 1, 10\n A(I) = {body} + A(I-1)\nENDDO")
        result = evaluate_loop(compiled, paper_machine(2, 1), options=EvalOptions(check_semantics=True))
        assert result.t_new <= result.t_list

    def test_long_distance_and_short_trip(self):
        compiled = compile_loop("DO I = 1, 12\n A(I) = A(I-11) + X(I)\nENDDO")
        result = evaluate_loop(compiled, paper_machine(2, 1), options=EvalOptions(check_semantics=True))
        # only one hop in the whole execution
        assert result.t_new <= result.schedule_new.length + result.schedule_new.span(0)
