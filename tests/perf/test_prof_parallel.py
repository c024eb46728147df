"""Worker-side sampling: chunk plumbing and parent-profile merging.

The parent's armed sampler asks each pool worker to run its own
:class:`~repro.obs.prof.Profiler` and ship the folded stacks back for
:meth:`Profiler.merge_profile`.  Worker sample *counts* are wall-clock
draws (documented non-deterministic), so these tests assert plumbing
shape and result-determinism, never counts.
"""

from __future__ import annotations

from repro.obs.prof import Profile, active_sampler, start_sampler, stop_sampler
from repro.options import EvalOptions
from repro.perf import ParallelEvaluator
from repro.perf.parallel import _COLLECT_NONE, _run_chunk
from repro.pipeline import evaluate_corpus
from repro.sched import paper_machine
from repro.workloads import perfect_suite


def _jobs():
    suite = perfect_suite()
    return [
        (name, suite[name], paper_machine(*case))
        for name in ("FLQ52", "QCD")
        for case in ((2, 1), (4, 1))
    ]


def _times(results):
    return [(ev.name, ev.machine.name, ev.t_list, ev.t_new) for ev in results]


class TestChunkPlumbing:
    def test_collect_none_ships_no_profile(self):
        results, registry, events, samples = _run_chunk(
            evaluate_corpus, _jobs()[:1], 50, EvalOptions(), _COLLECT_NONE
        )
        assert results
        assert registry is None and events is None and samples is None

    def test_sample_hz_arms_a_worker_sampler(self):
        results, _registry, _events, samples = _run_chunk(
            evaluate_corpus, _jobs()[:1], 50, EvalOptions(), (False, False, 500.0)
        )
        assert results
        assert isinstance(samples, Profile)
        assert samples.hz == 500.0
        assert samples.duration_s >= 0.0
        # arming inside the chunk must not leak into the global slot
        assert active_sampler() is None


class TestSamplerMerge:
    def test_results_identical_with_and_without_sampler(self):
        jobs = _jobs()
        plain = ParallelEvaluator(max_workers=1).evaluate_corpora(jobs, n=100)
        sampler = start_sampler(hz=250.0)
        try:
            serial = ParallelEvaluator(max_workers=1).evaluate_corpora(
                jobs, n=100
            )
            pooled = ParallelEvaluator(
                max_workers=4, chunk_size=1, min_pool_work=0
            ).evaluate_corpora(jobs, n=100)
        finally:
            profile = stop_sampler()
        # Sampling must never perturb the deterministic results, pooled
        # or serial (jobs 1 vs 4).
        assert _times(serial) == _times(plain)
        assert _times(pooled) == _times(plain)
        assert active_sampler() is None
        # The parent profile absorbed worker durations (counts are
        # non-deterministic; merged duration only grows).
        assert profile is not None
        assert profile.hz == sampler.hz
        assert profile.duration_s > 0.0

    def test_merge_is_additive_across_worker_profiles(self):
        sampler = start_sampler(hz=500.0)
        try:
            before = sampler.snapshot().samples
            sampler.merge_profile(
                Profile(
                    timestamp=0.0,
                    hz=500.0,
                    duration_s=0.5,
                    samples=7,
                    folded={"worker:lane": 7},
                    stages={"schedule.list": 7},
                )
            )
            merged = sampler.snapshot()
        finally:
            stop_sampler()
        assert merged.samples >= before + 7
        assert merged.folded.get("worker:lane") == 7
        assert merged.stages.get("schedule.list") == 7
