"""ParallelEvaluator: determinism, fallback, chunking, program jobs."""

from __future__ import annotations

import pytest

from repro.options import EvalOptions
from repro.perf import ParallelEvaluator, chunked
from repro.pipeline import evaluate_corpus, evaluate_program
from repro.sched import paper_machine
from repro.workloads import perfect_suite

PROGRAM = """
DO I = 1, 30
  A(I) = A(I-1) + X(I)
ENDDO
DO I = 1, 30
  A(2*I) = A(I) + 1
ENDDO
DO I = 1, 30
  C(I) = X(I) + Y(I)
ENDDO
"""


@pytest.fixture(scope="module")
def corpus_jobs():
    suite = perfect_suite()
    return [
        (name, suite[name], paper_machine(*case))
        for name in ("FLQ52", "QCD")
        for case in ((2, 1), (4, 1))
    ]


def times(results):
    return [(ev.name, ev.machine.name, ev.t_list, ev.t_new) for ev in results]


class TestChunked:
    def test_splits_and_preserves_order(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_single_chunk(self):
        assert chunked([1, 2], 10) == [[1, 2]]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestCorpusFanOut:
    def test_serial_fallback_matches_direct_calls(self, corpus_jobs):
        evaluator = ParallelEvaluator(max_workers=1)
        results = evaluator.evaluate_corpora(corpus_jobs, n=100)
        assert not evaluator.used_pool
        expected = [
            evaluate_corpus(name, loops, machine, n=100)
            for name, loops, machine in corpus_jobs
        ]
        assert times(results) == times(expected)

    def test_pool_matches_serial_in_insertion_order(self, corpus_jobs):
        serial = ParallelEvaluator(max_workers=1).evaluate_corpora(corpus_jobs, n=100)
        pooled = ParallelEvaluator(max_workers=2, chunk_size=1).evaluate_corpora(
            corpus_jobs, n=100
        )
        # Whether or not the platform could fan out, results and their
        # order are identical.
        assert times(pooled) == times(serial)

    def test_kwargs_forwarded(self, corpus_jobs):
        exact = ParallelEvaluator(max_workers=1).evaluate_corpora(
            corpus_jobs[:1], n=100, options=EvalOptions(exact_simulation=True)
        )
        fast = ParallelEvaluator(max_workers=1).evaluate_corpora(corpus_jobs[:1], n=100)
        assert times(exact) == times(fast)

    def test_single_job_stays_serial(self, corpus_jobs):
        evaluator = ParallelEvaluator(max_workers=8)
        evaluator.evaluate_corpora(corpus_jobs[:1], n=10)
        assert not evaluator.used_pool
        assert evaluator.fallback_reason == "single job"


class TestProgramFanOut:
    def test_program_jobs_roundtrip(self):
        jobs = [(PROGRAM, paper_machine(2, 1)), (PROGRAM, paper_machine(4, 1))]
        results = ParallelEvaluator(max_workers=2, chunk_size=1).evaluate_programs(
            jobs, n=30
        )
        expected = [evaluate_program(src, machine, n=30) for src, machine in jobs]
        assert [(r.t_list, r.t_new, r.serial_loops) for r in results] == [
            (e.t_list, e.t_new, e.serial_loops) for e in expected
        ]
        assert results[0].serial_loops == [1]  # the reduction loop is SERIAL


class TestValidation:
    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(max_workers=0)
        with pytest.raises(ValueError):
            ParallelEvaluator(chunk_size=0)
