"""The removed deprecated shims stay removed, and the stable spelling holds.

The 1.x keyword arguments on the pipeline entry points were removed in
2.0.0 (docs/api.md). For every keyword that ever shipped, each entry
point must (a) reject it with Python's own ``TypeError`` naming the
keyword, and (b) give the same results through ``options=`` without
emitting a ``DeprecationWarning``.
"""

import warnings

import pytest

from repro import (
    CompileCache,
    EvalOptions,
    ParallelEvaluator,
    compile_loop,
    evaluate_corpus,
    evaluate_loop,
    paper_machine,
)
from repro.codegen import FuseStore
from repro.ir import parse_loop
from repro.sched import Priority, SyncSchedulerOptions

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""

# (removed kwarg, a non-default value) — one entry per EvalOptions field
# that ever shipped as a keyword argument.
LEGACY_KWARGS = [
    ("apply_restructuring", False),
    ("fuse", FuseStore.NEVER),
    ("cache", CompileCache()),
    ("exact_simulation", True),
    ("verify", False),
    ("check_semantics", True),
    ("list_priority", Priority.CRITICAL_PATH),
    ("sync_options", SyncSchedulerOptions(contiguous_sp=False)),
]


def _rejects_every_legacy_kwarg(call):
    for name, value in LEGACY_KWARGS:
        with pytest.raises(TypeError, match=name):
            call(**{name: value})


def _no_deprecation(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    return result


class TestEntryPointsWarnOnceAndAgree:
    """Names kept from 1.x, when each entry point warned once and agreed;
    now each rejects every removed keyword and agrees through ``options=``."""

    def test_compile_loop(self):
        _rejects_every_legacy_kwarg(lambda **kw: compile_loop(FIG1, **kw))
        options = EvalOptions(apply_restructuring=False)
        positional = _no_deprecation(lambda: compile_loop(FIG1, options))
        keyword = _no_deprecation(lambda: compile_loop(FIG1, options=options))
        assert positional.lowered.instructions == keyword.lowered.instructions

    def test_evaluate_loop(self):
        compiled = compile_loop(FIG1)
        machine = paper_machine(4, 1)
        _rejects_every_legacy_kwarg(
            lambda **kw: evaluate_loop(compiled, machine, n=50, **kw)
        )
        exact = _no_deprecation(
            lambda: evaluate_loop(
                compiled, machine, n=50, options=EvalOptions(exact_simulation=True)
            )
        )
        again = evaluate_loop(
            compiled, machine, 50, EvalOptions(exact_simulation=True)
        )
        assert (exact.t_list, exact.t_new) == (again.t_list, again.t_new)

    def test_evaluate_corpus(self):
        loops = [parse_loop(FIG1)]
        machine = paper_machine(2, 1)
        _rejects_every_legacy_kwarg(
            lambda **kw: evaluate_corpus("fig1", loops, machine, 50, **kw)
        )
        unverified = _no_deprecation(
            lambda: evaluate_corpus(
                "fig1", loops, machine, 50, options=EvalOptions(verify=False)
            )
        )
        verified = evaluate_corpus("fig1", loops, machine, 50, options=EvalOptions())
        assert (unverified.t_list, unverified.t_new) == (
            verified.t_list,
            verified.t_new,
        )

    def test_parallel_evaluator(self):
        loops = [parse_loop(FIG1)]
        machine = paper_machine(2, 1)
        jobs = [("fig1", loops, machine)]
        evaluator = ParallelEvaluator(max_workers=1)
        _rejects_every_legacy_kwarg(
            lambda **kw: evaluator.evaluate_corpora(jobs, n=50, **kw)
        )
        options = EvalOptions(exact_simulation=True)
        pooled = _no_deprecation(
            lambda: evaluator.evaluate_corpora(jobs, n=50, options=options)
        )
        serial = evaluate_corpus("fig1", loops, machine, 50, options=options)
        assert [(r.t_list, r.t_new) for r in pooled] == [
            (serial.t_list, serial.t_new)
        ]


class TestInternalSurfaceClean:
    def test_internal_surface_clean_under_error_filter(self):
        # the package never calls a deprecated surface of its own
        compiled = compile_loop(FIG1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            evaluate_loop(
                compiled,
                paper_machine(4, 1),
                n=50,
                options=EvalOptions(exact_simulation=True),
            )
