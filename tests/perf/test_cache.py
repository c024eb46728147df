"""CompileCache: content addressing, schedule memo, hit identity, LRU."""

from __future__ import annotations

import pytest

from repro.codegen import FuseStore
from repro.ir.parser import parse_loop
from repro.options import EvalOptions
from repro.perf import CompileCache, compiled_fingerprint, loop_key
from repro.pipeline import compile_loop, evaluate_corpus, evaluate_loop
from repro.sched import paper_machine

CARRIED = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""

DOALL = "DO I = 1, 50\n A(I) = X(I) + Y(I)\nENDDO"

# Weak-SIV subscript: no constant dependence distance, SERIAL after
# restructuring.
SERIAL = "DO I = 1, 100\n A(2*I) = A(I) + 1\nENDDO"


class TestLoopKey:
    def test_source_and_ast_share_a_key(self):
        assert loop_key(CARRIED) == loop_key(parse_loop(CARRIED))

    def test_whitespace_variants_share_a_key(self):
        reformatted = CARRIED.replace("  S", "      S").replace("\n", "\n\n")
        assert loop_key(CARRIED) == loop_key(reformatted)

    def test_distinct_loops_differ(self):
        assert loop_key(CARRIED) != loop_key(DOALL)


class TestCompileLayer:
    def test_hit_returns_same_object(self):
        cache = CompileCache()
        first = cache.compile(CARRIED)
        second = cache.compile(CARRIED)
        assert second is first
        assert cache.stats.compile_hits == 1
        assert cache.stats.compile_misses == 1

    def test_flags_are_part_of_the_key(self):
        cache = CompileCache()
        default = cache.compile(CARRIED)
        unrestructured = cache.compile(CARRIED, apply_restructuring=False)
        unfused = cache.compile(CARRIED, fuse=FuseStore.NEVER)
        assert default is not unrestructured
        assert default is not unfused
        assert cache.stats.compile_misses == 3

    def test_serial_loop_negatively_cached(self):
        cache = CompileCache()
        with pytest.raises(ValueError):
            cache.compile(SERIAL)
        with pytest.raises(ValueError):
            cache.compile(SERIAL)
        assert cache.stats.compile_hits == 1
        assert cache.stats.compile_misses == 1

    def test_lru_eviction(self):
        cache = CompileCache(max_entries=1)
        first = cache.compile(CARRIED)
        cache.compile(DOALL)  # evicts CARRIED
        again = cache.compile(CARRIED)
        assert again is not first
        assert cache.stats.compile_misses == 3


class TestScheduleMemo:
    def test_hit_returns_identical_schedules_and_times(self):
        cache = CompileCache()
        machine = paper_machine(4, 1)
        compiled = cache.compile(CARRIED)
        cold = evaluate_loop(compiled, machine, n=100, options=EvalOptions(cache=cache))
        warm = evaluate_loop(compiled, machine, n=100, options=EvalOptions(cache=cache))
        assert warm.schedule_list is cold.schedule_list
        assert warm.schedule_new is cold.schedule_new
        assert (warm.t_list, warm.t_new) == (cold.t_list, cold.t_new)
        assert cache.stats.schedule_hits == 1

    def test_machines_do_not_collide(self):
        cache = CompileCache()
        compiled = cache.compile(CARRIED)
        two = evaluate_loop(compiled, paper_machine(2, 1), n=100, options=EvalOptions(cache=cache))
        four = evaluate_loop(compiled, paper_machine(4, 1), n=100, options=EvalOptions(cache=cache))
        assert cache.stats.schedule_hits == 0
        assert two.t_list != four.t_list

    def test_equivalent_compilations_share_schedules(self):
        # Content addressing: an out-of-cache compilation of the same
        # source hits the memo through its lowered-code fingerprint.
        cache = CompileCache()
        cached = cache.compile(CARRIED)
        foreign = compile_loop(CARRIED)
        assert compiled_fingerprint(cached) == compiled_fingerprint(foreign)
        machine = paper_machine(4, 1)
        evaluate_loop(cached, machine, n=100, options=EvalOptions(cache=cache))
        warm = evaluate_loop(foreign, machine, n=100, options=EvalOptions(cache=cache))
        assert cache.stats.schedule_hits == 1
        assert warm.schedule_list.cycle_of

    def test_matches_uncached_results(self):
        cache = CompileCache()
        machine = paper_machine(2, 2)
        cached = evaluate_loop(cache.compile(CARRIED), machine, n=100, options=EvalOptions(cache=cache))
        plain = evaluate_loop(compile_loop(CARRIED), machine, n=100)
        assert (cached.t_list, cached.t_new) == (plain.t_list, plain.t_new)
        assert cached.schedule_list.cycle_of == plain.schedule_list.cycle_of
        assert cached.schedule_new.cycle_of == plain.schedule_new.cycle_of


class TestCorpusDriver:
    def test_corpus_sweep_compiles_once_per_loop(self):
        cache = CompileCache()
        loops = [parse_loop(CARRIED), parse_loop(DOALL)]
        results = [
            evaluate_corpus("demo", loops, paper_machine(*case), n=50, options=EvalOptions(cache=cache))
            for case in ((2, 1), (2, 2), (4, 1), (4, 2))
        ]
        assert cache.stats.compile_misses == len(loops)
        assert cache.stats.compile_hits == len(loops) * 3
        baseline = evaluate_corpus("demo", loops, paper_machine(2, 1), n=50)
        assert (results[0].t_list, results[0].t_new) == (
            baseline.t_list,
            baseline.t_new,
        )

    def test_compile_options_forwarded(self):
        loops = [parse_loop(CARRIED)]
        fused = evaluate_corpus("demo", loops, paper_machine(4, 1), n=50)
        unfused = evaluate_corpus(
            "demo", loops, paper_machine(4, 1), n=50, options=EvalOptions(fuse=FuseStore.NEVER)
        )
        # FuseStore.NEVER keeps the final-op/store split, so the lowered
        # stream is strictly longer than the paper's fused default.
        assert len(unfused.evaluations[0].compiled.lowered.instructions) > len(
            fused.evaluations[0].compiled.lowered.instructions
        )
