"""End-to-end pipeline tests on the paper's example and the corpora."""

import pytest

from repro import (
    EvalOptions,
    compile_loop,
    evaluate_corpus,
    evaluate_loop,
    figure4_machine,
    paper_machine,
)
from repro.deps import LoopClass
from repro.workloads import perfect_benchmark

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""


class TestCompileLoop:
    def test_accepts_source_text(self):
        compiled = compile_loop(FIG1)
        assert compiled.classification is LoopClass.DOACROSS
        assert len(compiled.lowered) == 27

    def test_serial_loop_rejected(self):
        with pytest.raises(ValueError, match="SERIAL"):
            compile_loop("DO I = 1, 10\n A(K) = 1\n B(I) = A(I)\nENDDO")

    def test_restructuring_applied_by_default(self):
        compiled = compile_loop("DO I = 1, 100\n T = X(I)\n A(I) = T + A(I-1)\nENDDO")
        assert compiled.restructured.expanded_scalars == ["T"]

    def test_restructuring_can_be_disabled(self):
        compiled = compile_loop(
            "DO I = 1, 100\n A(I) = A(I-1) + X(I)\nENDDO",
            EvalOptions(apply_restructuring=False),
        )
        assert compiled.restructured.expanded_scalars == []


class TestEvaluateLoop:
    def test_fig4_headline(self):
        result = evaluate_loop(
            compile_loop(FIG1), figure4_machine(), options=EvalOptions(check_semantics=True)
        )
        assert result.t_list == 1201
        assert result.t_new == 356
        assert result.improvement == pytest.approx(70.36, abs=0.05)

    def test_never_degrades_on_fig1_all_machines(self):
        compiled = compile_loop(FIG1)
        for issue in (2, 4):
            for fu in (1, 2):
                result = evaluate_loop(compiled, paper_machine(issue, fu))
                assert result.t_new <= result.t_list

    def test_semantics_checker_runs(self):
        result = evaluate_loop(
            compile_loop("DO I = 1, 30\n A(I) = A(I-1) * X(I)\nENDDO"),
            paper_machine(2, 1),
            options=EvalOptions(check_semantics=True),
        )
        assert result.t_new <= result.t_list


class TestEvaluateCorpus:
    def test_sums_loops(self):
        loops = perfect_benchmark("QCD")[:3]
        result = evaluate_corpus("QCD3", loops, figure4_machine(), n=50)
        assert result.t_list == sum(e.t_list for e in result.evaluations)
        assert result.t_new == sum(e.t_new for e in result.evaluations)
        assert len(result.evaluations) == 3

    def test_improvement_definition(self):
        loops = perfect_benchmark("ADM")[:2]
        result = evaluate_corpus("ADM2", loops, figure4_machine(), n=50)
        expected = (result.t_list - result.t_new) / result.t_list * 100
        assert result.improvement == pytest.approx(expected)
