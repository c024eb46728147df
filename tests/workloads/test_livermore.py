"""Livermore kernel tests: classification, compilation, semantics."""

import pytest

from repro.deps import LoopClass
from repro.options import EvalOptions
from repro.pipeline import compile_loop, evaluate_loop
from repro.sched import paper_machine
from repro.sim import MemoryImage, run_serial
from repro.transforms import restructure
from repro.workloads import doacross_kernels, livermore_kernels, livermore_loops


class TestCatalogue:
    def test_eleven_kernels(self):
        assert len(livermore_kernels()) == 11

    def test_unique_names(self):
        names = [k.name for k in livermore_kernels()]
        assert len(set(names)) == len(names)

    def test_loops_are_fresh(self):
        a = livermore_loops()
        b = livermore_loops()
        assert a[0] is not b[0]

    def test_loop_names_assigned(self):
        for kernel, loop in zip(livermore_kernels(), livermore_loops()):
            assert loop.name == kernel.name


class TestClassification:
    @pytest.mark.parametrize("kernel", livermore_kernels(), ids=lambda k: k.name)
    def test_expected_class(self, kernel):
        result = restructure(kernel.loop())
        assert result.classification is kernel.expected_class, kernel.note

    def test_doacross_subset(self):
        assert {k.name for k in doacross_kernels()} == {
            "k5-tridiag",
            "k11-first-sum",
            "k19-general-recurrence",
            "k24-min-location-ish",
            "k24-min-location",
            "k2-iccg-slice",
        }


class TestPipeline:
    @pytest.mark.parametrize("kernel", doacross_kernels(), ids=lambda k: k.name)
    def test_compiles_and_schedules(self, kernel):
        compiled = compile_loop(kernel.loop())
        result = evaluate_loop(compiled, paper_machine(4, 1))
        assert result.t_new <= result.t_list

    @pytest.mark.parametrize("kernel", doacross_kernels(), ids=lambda k: k.name)
    def test_parallel_semantics(self, kernel):
        compiled = compile_loop(kernel.loop())
        evaluate_loop(
            compiled, paper_machine(2, 1), options=EvalOptions(check_semantics=True)
        )

    def test_scalar_recurrence_kernel_synchronized(self):
        """k19's recurrence runs through a memory-resident scalar."""
        kernel = next(k for k in livermore_kernels() if k.name == "k19-general-recurrence")
        compiled = compile_loop(kernel.loop())
        assert compiled.synced.pairs
        assert any(
            i.mem is not None and i.mem.is_scalar
            for i in compiled.lowered.instructions
        )

    def test_anti_dependence_kernel_synchronized(self):
        """k2's carried dependences are anti (read before write)."""
        from repro.deps import DepKind

        kernel = next(k for k in livermore_kernels() if k.name == "k2-iccg-slice")
        compiled = compile_loop(kernel.loop())
        carried = compiled.restructured.graph.loop_carried()
        assert carried and all(d.kind is DepKind.ANTI for d in carried)

    def test_prefix_sum_matches_reference(self):
        kernel = next(k for k in livermore_kernels() if k.name == "k11-first-sum")
        loop = kernel.loop()
        memory = MemoryImage()
        memory.set_array("X", [0.0], start=1)
        memory.set_array("Y", [float(i) for i in range(2, 101)], start=2)
        run_serial(loop, memory)
        assert memory.read("X", 100) == sum(range(2, 101))
