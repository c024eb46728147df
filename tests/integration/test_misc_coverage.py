"""Odds and ends: option pass-through, guarded modulo kernels, parser
error paths for guards."""

import pytest

from repro import EvalOptions, compile_loop, evaluate_loop, paper_machine
from repro.ir import ParseError, parse_loop
from repro.sched import Priority
from repro.sched.modulo import modulo_schedule, verify_modulo

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""


class TestOptionPassThrough:
    def test_list_priority_option(self):
        compiled = compile_loop(FIG1)
        prog = evaluate_loop(compiled, paper_machine(4, 1))
        cp = evaluate_loop(
            compiled,
            paper_machine(4, 1),
            options=EvalOptions(list_priority=Priority.CRITICAL_PATH),
        )
        assert prog.schedule_list.scheduler_name == "list/program_order"
        assert cp.schedule_list.scheduler_name == "list/critical_path"

    def test_sync_options_pass_through(self):
        from repro.sched import SyncSchedulerOptions

        compiled = compile_loop(FIG1)
        off = evaluate_loop(
            compiled,
            paper_machine(4, 1),
            options=EvalOptions(sync_options=SyncSchedulerOptions(contiguous_sp=False)),
        )
        on = evaluate_loop(compiled, paper_machine(4, 1))
        assert on.t_new <= off.t_new

    def test_fuse_option_reaches_lowering(self):
        from repro.codegen import FuseStore

        never = compile_loop(FIG1, EvalOptions(fuse=FuseStore.NEVER))
        paper = compile_loop(FIG1)
        assert len(never.lowered) == len(paper.lowered) + 1


class TestGuardedModulo:
    def test_guarded_kernel_schedules(self):
        loop = parse_loop("DO I = 1, 100\n IF (X(I) < M) M = X(I)\nENDDO")
        kernel = modulo_schedule(loop, paper_machine(4, 1))
        assert verify_modulo(kernel) == []
        # the guarded scalar recurrence bounds the pipeline
        assert kernel.mii_recurrence >= 3

    def test_guarded_doall_pipelines_freely(self):
        loop = parse_loop("DO I = 1, 100\n IF (X(I) > 3) A(I) = X(I) * 2\nENDDO")
        kernel = modulo_schedule(loop, paper_machine(4, 1))
        assert verify_modulo(kernel) == []
        assert kernel.mii_recurrence == 1


class TestGuardParserErrors:
    def test_if_without_comparison(self):
        with pytest.raises(ParseError, match="comparison"):
            parse_loop("DO I = 1, 10\n IF (X(I)) A(I) = 1\nENDDO")

    def test_if_without_parens(self):
        with pytest.raises(ParseError):
            parse_loop("DO I = 1, 10\n IF X(I) > 0 A(I) = 1\nENDDO")

    def test_guard_on_wait_is_not_grammar(self):
        with pytest.raises(ParseError):
            parse_loop("DO I = 1, 10\n IF (X(I) > 0) WAIT_SIGNAL(S1, I-1)\nENDDO")


class TestCompiledLoopSurface:
    def test_compiled_fields_consistent(self):
        compiled = compile_loop(FIG1)
        assert compiled.classification.value == "doacross"
        assert compiled.graph.nodes == [i.iid for i in compiled.lowered.instructions]
        assert compiled.restructured.original is compiled.source

    def test_evaluate_defaults_to_loop_trip_count(self):
        result = evaluate_loop(compile_loop(FIG1), paper_machine(2, 1))
        assert result.n == 100
