"""Min-work calibration: the break-even math and which source decides."""

from __future__ import annotations

import pytest

from repro.perf import ParallelEvaluator, calibrate_min_pool_work
from repro.perf.parallel import DEFAULT_MIN_POOL_WORK
from repro.sched import paper_machine
from repro.workloads import perfect_suite


@pytest.fixture(scope="module")
def corpus_jobs():
    suite = perfect_suite()
    return [
        (name, suite[name], paper_machine(*case))
        for name in ("FLQ52", "QCD")
        for case in ((2, 1), (4, 1))
    ]


class TestCalibrateMath:
    def test_break_even_scales_with_per_eval_cost(self):
        # 0.25s startup / (0.001s/eval) / 2× margin → 250 evals break-even
        assert calibrate_min_pool_work(0.001) == 250

    def test_slow_evals_hit_the_floor(self):
        assert calibrate_min_pool_work(1.0) == 32

    def test_instant_evals_hit_the_ceiling(self):
        assert calibrate_min_pool_work(1e-9) == 1_000_000

    def test_untimeable_evals_pin_the_ceiling(self):
        # too fast to measure ⇒ pooling can only lose
        assert calibrate_min_pool_work(0.0) == 1_000_000


class TestCalibrationPriority:
    def test_constructor_wins(self, corpus_jobs):
        evaluator = ParallelEvaluator(max_workers=1, min_pool_work=5)
        evaluator.evaluate_corpora(corpus_jobs[:1], n=100)
        assert evaluator.calibration == {
            "min_pool_work": 5,
            "source": "constructor",
            "per_eval_s": None,
            "probe_s": None,
        }

    def test_auto_mode_probes_one_real_eval(self, corpus_jobs):
        # the probe only runs when the pool is a candidate: several
        # jobs AND several workers (serial-certain runs skip it)
        evaluator = ParallelEvaluator(max_workers=2)
        evaluator.evaluate_corpora(corpus_jobs, n=100)
        calibration = evaluator.calibration
        assert calibration["source"] == "probe"
        assert calibration["per_eval_s"] > 0
        assert calibration["probe_s"] > 0
        assert 32 <= calibration["min_pool_work"] <= 1_000_000

    def test_serial_certain_runs_skip_the_probe(self, corpus_jobs):
        evaluator = ParallelEvaluator(max_workers=1)
        evaluator.evaluate_corpora(corpus_jobs[:1], n=100)
        assert evaluator.calibration["source"] == "default"

    def test_calibration_resets_per_run(self, corpus_jobs):
        evaluator = ParallelEvaluator(max_workers=1, min_pool_work=5)
        evaluator.evaluate_corpora(corpus_jobs[:1], n=100)
        assert evaluator.calibration["source"] == "constructor"
        evaluator.min_pool_work = None
        evaluator.evaluate_corpora(corpus_jobs[:1], n=100)
        assert evaluator.calibration["source"] == "default"

    def test_default_when_probe_unavailable(self):
        evaluator = ParallelEvaluator(max_workers=1)
        # no jobs → nothing to probe → static default
        evaluator.evaluate_corpora([], n=100)
        assert evaluator.calibration["source"] == "default"
        assert evaluator.calibration["min_pool_work"] == DEFAULT_MIN_POOL_WORK
