"""EvalOptions facade: round-trips, removed shims, equivalence.

The stable API contract (docs/api.md): every pipeline entry point takes
``options=EvalOptions(...)``; the 1.x keyword arguments were removed in
2.0.0 and are now a ``TypeError``.
"""

import dataclasses

import pytest

from repro import EvalOptions, compile_loop, evaluate_corpus, evaluate_loop
from repro.codegen import FuseStore
from repro.options import resolve_options
from repro.perf import CompileCache, ParallelEvaluator
from repro.sched import Priority, paper_machine

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""


class TestValueObject:
    def test_defaults(self):
        options = EvalOptions()
        assert options.apply_restructuring is True
        assert options.fuse is FuseStore.BEFORE_SEND
        assert options.exact_simulation is False
        assert options.jobs == 1
        assert options.verify is True
        assert options.tracer is None and options.metrics is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EvalOptions().jobs = 2

    def test_replace(self):
        base = EvalOptions()
        changed = base.replace(exact_simulation=True)
        assert changed.exact_simulation is True
        assert base.exact_simulation is False  # original untouched

    def test_kwargs_round_trip(self):
        options = EvalOptions(exact_simulation=True, jobs=3, verify=False)
        assert EvalOptions(**options.as_kwargs()) == options

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            EvalOptions(jobs=0)

    def test_exported_from_package_root(self):
        import repro

        assert repro.EvalOptions is EvalOptions


class TestStableHash:
    def test_collector_fields_enumerated(self):
        assert EvalOptions.COLLECTOR_FIELDS == (
            "cache",
            "jobs",
            "batch",
            "robust",
            "tracer",
            "metrics",
            "journal",
            "ledger",
            "progress",
        )
        field_names = {f.name for f in dataclasses.fields(EvalOptions)}
        assert set(EvalOptions.COLLECTOR_FIELDS) <= field_names

    def test_collectors_do_not_change_the_hash(self):
        from repro.obs import DecisionJournal, MetricsRegistry, RecordingTracer

        plain = EvalOptions().stable_hash()
        instrumented = EvalOptions(
            cache=CompileCache(),
            jobs=4,
            tracer=RecordingTracer(),
            metrics=MetricsRegistry(),
            journal=DecisionJournal(),
        ).stable_hash()
        assert instrumented == plain

    def test_result_determining_fields_change_the_hash(self):
        base = EvalOptions().stable_hash()
        assert EvalOptions(exact_simulation=True).stable_hash() != base
        assert EvalOptions(fuse=FuseStore.NEVER).stable_hash() != base
        assert (
            EvalOptions(list_priority=Priority.CRITICAL_PATH).stable_hash() != base
        )

    def test_hash_is_stable_across_instances(self):
        assert (
            EvalOptions(verify=False).stable_hash()
            == EvalOptions(verify=False).stable_hash()
        )


class TestResolveOptions:
    def test_none_means_defaults(self):
        assert resolve_options(None) == EvalOptions()

    def test_passthrough_is_identity(self):
        options = EvalOptions(exact_simulation=True)
        assert resolve_options(options) is options

    def test_non_options_rejected(self):
        with pytest.raises(TypeError, match="EvalOptions"):
            resolve_options("not options")


class TestDeprecatedShims:
    """The 1.x keyword shims were removed in 2.0.0: every legacy
    spelling is now a ``TypeError`` (docs/api.md has the migration)."""

    def test_compile_loop_legacy_kwargs(self):
        with pytest.raises(TypeError, match="apply_restructuring"):
            compile_loop(FIG1, apply_restructuring=False)

    def test_compile_loop_legacy_fuse(self):
        with pytest.raises(TypeError, match="fuse"):
            compile_loop(FIG1, fuse=FuseStore.NEVER)
        # ... and the bool-positional compile_loop(loop, apply_restructuring)
        with pytest.raises(TypeError, match="EvalOptions"):
            compile_loop(FIG1, False)

    def test_evaluate_loop_legacy_kwargs(self):
        compiled = compile_loop(FIG1)
        with pytest.raises(TypeError, match="exact_simulation"):
            evaluate_loop(compiled, paper_machine(4, 1), n=50, exact_simulation=True)

    def test_evaluate_corpus_legacy_kwargs(self):
        with pytest.raises(TypeError, match="cache"):
            evaluate_corpus("demo", [FIG1], paper_machine(2, 1), n=50, cache=CompileCache())

    def test_parallel_evaluator_legacy_kwargs(self):
        evaluator = ParallelEvaluator(max_workers=1)
        with pytest.raises(TypeError, match="exact_simulation"):
            evaluator.evaluate_corpora(
                [("demo", [FIG1], paper_machine(4, 1))], n=50, exact_simulation=True
            )

    def test_moved_cli_names_are_gone(self):
        import repro.cli as cli

        for name in ("cmd_sweep", "_sweep_results", "SCHEDULERS"):
            assert not hasattr(cli, name), name

    def test_modern_api_emits_no_warning(self, recwarn):
        compiled = compile_loop(FIG1, EvalOptions())
        evaluate_loop(compiled, paper_machine(4, 1), n=50, options=EvalOptions())
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestOptionsThreading:
    def test_list_priority_option(self):
        compiled = compile_loop(FIG1)
        machine = paper_machine(4, 1)
        default = evaluate_loop(compiled, machine, n=50, options=EvalOptions())
        critical = evaluate_loop(
            compiled,
            machine,
            n=50,
            options=EvalOptions(list_priority=Priority.CRITICAL_PATH),
        )
        assert "critical_path" in critical.schedule_list.scheduler_name
        assert "program_order" in default.schedule_list.scheduler_name

    def test_exact_simulation_agrees_with_fast_path(self):
        compiled = compile_loop(FIG1)
        machine = paper_machine(4, 1)
        fast = evaluate_loop(compiled, machine, n=50, options=EvalOptions())
        exact = evaluate_loop(
            compiled, machine, n=50, options=EvalOptions(exact_simulation=True)
        )
        assert (fast.t_list, fast.t_new) == (exact.t_list, exact.t_new)
        assert fast.sim_new.dispatch == "fast_path"
        assert exact.sim_new.dispatch == "event_walk"
