"""Loop unrolling tests."""

import pytest

from repro.deps import analyze_loop
from repro.ir import Const, format_loop, parse_loop
from repro.sim import MemoryImage, run_serial
from repro.transforms import unroll_loop


class TestMechanics:
    def test_factor_one_identity(self):
        loop = parse_loop("DO I = 1, 100\n A(I) = X(I)\nENDDO")
        assert unroll_loop(loop, 1) is loop

    def test_body_replicated(self):
        loop = parse_loop("DO I = 1, 100\n A(I) = X(I)\n B(I) = Y(I)\nENDDO")
        unrolled = unroll_loop(loop, 4)
        assert len(unrolled.body) == 8
        assert unrolled.upper == Const(25)

    def test_labels_uniquified(self):
        loop = parse_loop("DO I = 1, 100\n S1: A(I) = X(I)\nENDDO")
        unrolled = unroll_loop(loop, 2)
        labels = [s.label for s in unrolled.body]
        assert labels == ["S1u0", "S1u1"]

    def test_guards_rewritten(self):
        loop = parse_loop("DO I = 1, 100\n IF (X(I) > 0) A(I) = 1\nENDDO")
        unrolled = unroll_loop(loop, 2)
        assert all(s.guard is not None for s in unrolled.body)
        assert "2 * I" in format_loop(unrolled)

    def test_invalid_factor(self):
        loop = parse_loop("DO I = 1, 100\n A(I) = X(I)\nENDDO")
        with pytest.raises(ValueError):
            unroll_loop(loop, 0)

    def test_non_dividing_factor_rejected(self):
        loop = parse_loop("DO I = 1, 100\n A(I) = X(I)\nENDDO")
        with pytest.raises(ValueError, match="does not divide"):
            unroll_loop(loop, 3)

    def test_symbolic_bounds_rejected(self):
        loop = parse_loop("DO I = 1, N\n A(I) = X(I)\nENDDO")
        with pytest.raises(ValueError, match="constant"):
            unroll_loop(loop, 2)

    def test_synchronized_loop_rejected(self):
        from repro.sync import insert_synchronization

        synced = insert_synchronization(parse_loop("DO I = 1, 100\n A(I) = A(I-1)\nENDDO"))
        with pytest.raises(ValueError, match="before inserting"):
            unroll_loop(synced.loop, 2)


class TestDependenceStructure:
    def test_distance_one_becomes_intra_iteration(self):
        """d=1 unrolled by 4: three of four copies depend within the
        iteration; only the last->first crossing remains carried."""
        loop = parse_loop("DO I = 1, 100\n A(I) = A(I-1) + X(I)\nENDDO")
        unrolled = unroll_loop(loop, 4)
        graph = analyze_loop(unrolled)
        carried = graph.loop_carried()
        assert len(carried) == 1
        assert carried[0].distance == 1
        intra = [d for d in graph.loop_independent() if d.variable == "A"]
        assert len(intra) == 3

    def test_distance_scales_down(self):
        loop = parse_loop("DO I = 1, 100\n A(I) = A(I-4) + X(I)\nENDDO")
        unrolled = unroll_loop(loop, 2)
        carried = analyze_loop(unrolled).loop_carried()
        assert all(d.distance == 2 for d in carried)

    def test_nonoffset_lower_bound(self):
        loop = parse_loop("DO I = 3, 102\n A(I) = X(I)\nENDDO")
        unrolled = unroll_loop(loop, 2)
        memory_a = run_serial(loop, MemoryImage())
        memory_b = run_serial(unrolled, MemoryImage())
        assert memory_a == memory_b


class TestSemantics:
    @pytest.mark.parametrize("factor", [2, 4, 5, 10])
    def test_serial_equivalence(self, factor):
        loop = parse_loop(
            "DO I = 1, 100\n A(I) = A(I-2) + X(I) * Y(I)\n B(I) = A(I) - Z(I)\nENDDO"
        )
        assert run_serial(loop, MemoryImage()) == run_serial(
            unroll_loop(loop, factor), MemoryImage()
        )

    @pytest.mark.parametrize("factor", [2, 5])
    def test_parallel_semantics_after_unrolling(self, factor):
        from repro.options import EvalOptions
        from repro.pipeline import compile_loop, evaluate_loop
        from repro.sched import paper_machine

        loop = parse_loop("DO I = 1, 100\n A(I) = A(I-2) + X(I)\nENDDO")
        compiled = compile_loop(unroll_loop(loop, factor))
        evaluate_loop(
            compiled, paper_machine(4, 1), options=EvalOptions(check_semantics=True)
        )
