"""Guarded-statement (control dependence, taxonomy type 1) tests across
the whole stack: parsing, analysis, predicated lowering, scheduling,
semantics."""

import pytest

from repro.deps import DepKind, DoacrossType, analyze_loop, classify_doacross
from repro.ir import Comparison, format_loop, parse_loop
from repro.codegen import Opcode, format_listing
from repro.options import EvalOptions
from repro.pipeline import compile_loop, evaluate_loop
from repro.sched import paper_machine
from repro.sim import MemoryImage, execute_parallel, run_serial

MIN_LOOP = "DO I = 1, 100\n S1: IF (X(I) < M) M = X(I)\nENDDO"


class TestParsing:
    @pytest.mark.parametrize("op", ["<", ">", "<=", ">=", "==", "!="])
    def test_all_relational_operators(self, op):
        loop = parse_loop(f"DO I = 1, 10\n IF (A(I) {op} B(I)) C(I) = 1\nENDDO")
        guard = loop.body[0].guard
        assert isinstance(guard, Comparison) and guard.op == op

    def test_guard_with_label(self):
        loop = parse_loop("DO I = 1, 10\n S9: IF (X(I) > 0) A(I) = 1\nENDDO")
        assert loop.body[0].label == "S9"
        assert loop.body[0].guard is not None

    def test_roundtrip(self):
        loop = parse_loop(MIN_LOOP)
        assert format_loop(parse_loop(format_loop(loop))) == format_loop(loop)

    def test_bang_equals_not_a_comment(self):
        loop = parse_loop("DO I = 1, 10\n IF (X(I) != 0) A(I) = 1\nENDDO")
        assert loop.body[0].guard.op == "!="

    def test_plain_bang_still_comments(self):
        loop = parse_loop("DO I = 1, 10\n A(I) = 1 ! trailing\nENDDO")
        assert len(loop.body) == 1

    def test_invalid_comparison_op_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~", None, None)


class TestAnalysis:
    def test_guard_reads_create_dependences(self):
        loop = parse_loop("DO I = 1, 10\n A(I) = 1\n IF (A(I-1) > 0) B(I) = 1\nENDDO")
        carried = analyze_loop(loop).loop_carried()
        assert [(d.source, d.sink, d.distance) for d in carried] == [(0, 1, 1)]

    def test_guarded_scalar_write_does_not_cover(self):
        """A read after only guarded writes may still see the previous
        iteration's value: the d=1 flow must survive."""
        loop = parse_loop("DO I = 1, 10\n IF (X(I) > 0) T = X(I)\n A(I) = T\nENDDO")
        graph = analyze_loop(loop)
        flows = [
            d
            for d in graph.of_kind(DepKind.FLOW)
            if d.variable == "T" and d.loop_carried
        ]
        assert flows, "carried flow through the guarded scalar must exist"

    def test_unguarded_write_still_covers(self):
        loop = parse_loop("DO I = 1, 10\n T = X(I)\n A(I) = T\nENDDO")
        graph = analyze_loop(loop)
        carried_flow = [
            d
            for d in graph.of_kind(DepKind.FLOW)
            if d.variable == "T" and d.loop_carried
        ]
        assert carried_flow == []

    def test_guarded_scalar_not_expandable(self):
        from repro.transforms import expandable_scalars

        loop = parse_loop("DO I = 1, 10\n IF (X(I) > 0) T = X(I)\n A(I) = T\nENDDO")
        assert expandable_scalars(loop) == []

    def test_guarded_accumulation_not_a_reduction(self):
        from repro.transforms import find_reductions

        loop = parse_loop("DO I = 1, 10\n IF (X(I) > 0) S = S + X(I)\nENDDO")
        assert find_reductions(loop) == []

    def test_guarded_increment_not_induction(self):
        from repro.transforms import find_induction_variables

        loop = parse_loop("DO I = 1, 10\n IF (X(I) > 0) J = J + 1\n A(I) = J\nENDDO")
        assert find_induction_variables(loop) == []

    def test_taxonomy_type1(self):
        assert classify_doacross(parse_loop(MIN_LOOP)) is DoacrossType.CONTROL_DEPENDENCE

    def test_unrelated_guard_not_type1(self):
        # The guard touches no carried dependence: still simple subscript.
        loop = parse_loop(
            "DO I = 1, 10\n A(I) = A(I-1)\n IF (Y(I) > 0) B(I) = Y(I)\nENDDO"
        )
        assert classify_doacross(loop) is DoacrossType.SIMPLE_SUBSCRIPT


class TestLowering:
    def test_compare_and_predicated_store(self):
        compiled = compile_loop(MIN_LOOP)
        listing = format_listing(compiled.lowered, numbered=False)
        assert "t2 < t3" in listing or "<" in listing
        cmp_instr = next(
            i for i in compiled.lowered.instructions if i.opcode is Opcode.FCMP
        )
        store = next(
            i
            for i in compiled.lowered.instructions
            if i.opcode is Opcode.STORE and i.pred is not None
        )
        assert store.pred == cmp_instr.dest
        assert store.pred in store.uses()

    def test_int_guard_uses_icmp(self):
        compiled = compile_loop("DO I = 1, 10\n IF (I > 5) A(I) = A(I-1)\nENDDO")
        assert any(i.opcode is Opcode.ICMP for i in compiled.lowered.instructions)

    def test_predicate_edge_in_dfg(self):
        compiled = compile_loop(MIN_LOOP)
        cmp_instr = next(
            i for i in compiled.lowered.instructions if i.opcode is Opcode.FCMP
        )
        store = next(
            i for i in compiled.lowered.instructions if i.opcode is Opcode.STORE
        )
        assert compiled.graph.has_edge(cmp_instr.iid, store.iid)


class TestSemantics:
    def test_running_minimum_parallel_equals_serial(self):
        compiled = compile_loop(MIN_LOOP)
        for case in ((2, 1), (4, 1)):
            evaluate_loop(compiled, paper_machine(*case), options=EvalOptions(check_semantics=True))

    def test_guard_false_preserves_memory(self):
        compiled = compile_loop("DO I = 1, 20\n IF (X(I) < 0) A(I) = 1\nENDDO")
        # defaults are in [2, 6): the guard never fires
        result = evaluate_loop(compiled, paper_machine(2, 1), options=EvalOptions(check_semantics=True))
        reference = run_serial(compiled.synced.loop, MemoryImage())
        assert all(cell[0] != "A" for cell in reference.cells)
        del result

    def test_guard_true_writes(self):
        compiled = compile_loop("DO I = 1, 20\n IF (X(I) > 0) A(I) = 7\nENDDO")
        from repro.sched import sync_schedule

        schedule = sync_schedule(compiled.lowered, compiled.graph, paper_machine(2, 1))
        result = execute_parallel(schedule, MemoryImage())
        assert all(result.memory.read("A", i) == 7.0 for i in range(1, 21))

    def test_guarded_array_recurrence(self):
        compiled = compile_loop(
            "DO I = 1, 30\n IF (X(I) > 3) A(I) = A(I-1) + 1\nENDDO"
        )
        evaluate_loop(compiled, paper_machine(4, 1), options=EvalOptions(check_semantics=True))
