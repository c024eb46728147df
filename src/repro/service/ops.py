"""The service-op layer: every CLI subcommand as a typed entrypoint.

PR 7's api_redesign splits the monolithic ``cli.py`` driver into this
reusable registry of **operations**.  Each op is a plain function taking
typed arguments (never an ``argparse.Namespace``) and returning an
:class:`OpResult` — the exact text the one-shot CLI prints plus an
optional structured payload — so the command line
(:mod:`repro.cli`) and the long-lived HTTP service
(:mod:`repro.service.server`) are two thin clients of the same layer.

The :data:`OP_REGISTRY` is the single source of truth for the supported
operations: the CLI's subparsers *and* ``--help`` epilogue are generated
from it, and the server's error bodies list it, so the two surfaces can
never drift.

Output discipline: ops accumulate their stdout/stderr into buffers and
never touch ``sys.stdout``/``sys.stderr`` directly (live progress still
streams through the :class:`~repro.obs.trace.ProgressSink` seam).  That
keeps ops thread-safe for the service and keeps the CLI's output
byte-identical to the pre-split driver — enforced by
``tests/integration/test_cli_parity.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.codegen import format_listing
from repro.dfg import find_sync_paths, partition, to_dot
from repro.ir import format_loop
from repro.obs.trace import span
from repro.pipeline import compile_loop
from repro.sched import (
    Schedule,
    assert_valid,
    list_schedule,
    marker_schedule,
    paper_machine,
    schedule_stats,
    sync_schedule,
)
from repro.sim import simulate_doacross
from repro.sim.metrics import improvement_percent
from repro.workloads import PERFECT_BENCHMARKS, perfect_suite

__all__ = [
    "OP_REGISTRY",
    "OpResult",
    "OpSpec",
    "SCHEDULERS",
    "bench_check_op",
    "bench_diff_op",
    "bench_list_op",
    "bench_record_op",
    "compile_op",
    "dash_op",
    "dot_op",
    "evaluate_op",
    "explain_op",
    "fuzz_op",
    "metrics_op",
    "modulo_op",
    "op_epilog",
    "prof_diff_op",
    "prof_record_op",
    "prof_top_op",
    "read_source",
    "runs_diff_op",
    "runs_list_op",
    "runs_show_op",
    "schedule_op",
    "simulate_op",
    "sweep_op",
    "sweep_results",
]

SCHEDULERS = {
    "list": list_schedule,
    "marker": marker_schedule,
    "sync": sync_schedule,
}


@dataclass
class OpResult:
    """One operation's outcome: exit code, exact CLI text, structured data.

    ``stdout``/``stderr`` hold exactly what the one-shot CLI prints (the
    CLI writes them verbatim; the HTTP service returns them in the
    response body).  ``data`` is the optional machine-readable payload
    (schema-stamped records for ops that build one).
    """

    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    data: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


class _Buffers:
    """The op-local print targets (thread-safe, unlike redirect_stdout)."""

    def __init__(self) -> None:
        self._out = io.StringIO()
        self._err = io.StringIO()

    def out(self, *args: Any, **kwargs: Any) -> None:
        print(*args, file=self._out, **kwargs)

    def err(self, *args: Any, **kwargs: Any) -> None:
        print(*args, file=self._err, **kwargs)

    def warn_torn(self, store: Any) -> None:
        """Say so when the store's last ``load`` skipped a torn final line."""
        if store.torn_tail:
            self.err(
                f"warning: the final line of {store.path} was torn (a process "
                "died mid-append); skipped"
            )

    def result(
        self, exit_code: int = 0, data: dict[str, Any] | None = None
    ) -> OpResult:
        return OpResult(
            exit_code=exit_code,
            stdout=self._out.getvalue(),
            stderr=self._err.getvalue(),
            data=data,
        )


def read_source(path: str) -> str:
    """Read a loop source file (``-`` = stdin) — the CLI's file argument."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# -- the operations ------------------------------------------------------------


def compile_op(source: str) -> OpResult:
    """Parse + analyze + synchronize + lower a loop; print the artifacts."""
    b = _Buffers()
    compiled = compile_loop(source)
    b.out("== synchronized loop ==")
    b.out(format_loop(compiled.synced.loop))
    b.out("\n== three-address code ==")
    b.out(format_listing(compiled.lowered))
    b.out("\n== synchronization pairs ==")
    for pair in compiled.synced.pairs:
        b.out(f"  {pair}")
    components = partition(compiled.graph, compiled.lowered)
    b.out("\n== DFG partition ==")
    for component in components:
        b.out(f"  {component.kind.value:7s}: {sorted(component.nodes)}")
    for path in find_sync_paths(compiled.graph, compiled.lowered, components):
        b.out(f"  SP(pair {path.pair_id}) = {list(path.nodes)}")
    return b.result()


def schedule_op(
    source: str,
    scheduler: str = "all",
    issue: int = 4,
    fu: int = 1,
    n: int = 100,
    gantt: bool = False,
    pressure: bool = False,
) -> OpResult:
    """Run one or all schedulers on a machine; print tables and times."""
    b = _Buffers()
    compiled = compile_loop(source)
    machine = paper_machine(issue, fu)
    names = list(SCHEDULERS) if scheduler == "all" else [scheduler]
    results: list[tuple[str, Schedule, int]] = []
    for name in names:
        with span("schedule"):
            schedule = SCHEDULERS[name](compiled.lowered, compiled.graph, machine)
        with span("verify"):
            assert_valid(schedule, compiled.graph)
        with span("simulate"):
            sim = simulate_doacross(schedule, n)
        results.append((name, schedule, sim.parallel_time))
        b.out(f"== {name} scheduling on {machine.name} ==")
        b.out(schedule.format())
        spans = {p.pair_id: schedule.span(p.pair_id) for p in compiled.synced.pairs}
        b.out(f"length = {schedule.length}  spans = {spans}")
        b.out(schedule_stats(schedule).format())
        if gantt:
            from repro.sched.gantt import gantt as render_gantt

            b.out(render_gantt(schedule))
        if pressure:
            from repro.sched import register_pressure

            profile = register_pressure(schedule)
            b.out(
                f"register pressure: peak {profile.max_pressure} at cycle "
                f"{profile.cycle_of_peak()} ({profile.temporaries} temporaries)"
            )
        b.out(f"parallel time (n={n}) = {sim.parallel_time}\n")
    if len(results) > 1:
        base = results[0][2]
        for name, _, t in results[1:]:
            b.out(
                f"{name} vs {results[0][0]}: {improvement_percent(base, t):+.1f}% improvement"
            )
    return b.result()


def modulo_op(source: str, issue: int = 4, fu: int = 1, n: int = 100) -> OpResult:
    """Software-pipeline the loop (extension): kernel, II, times."""
    from repro.ir.parser import parse_loop
    from repro.sched.modulo import modulo_schedule, verify_modulo

    b = _Buffers()
    loop = parse_loop(source)
    machine = paper_machine(issue, fu)
    kernel = modulo_schedule(loop, machine)
    violations = verify_modulo(kernel)
    b.out(
        f"II = {kernel.ii} (ResMII {kernel.mii_resource}, RecMII "
        f"{kernel.mii_recurrence}), makespan {kernel.makespan}"
    )
    for iid, cycle in sorted(kernel.cycle_of.items(), key=lambda kv: (kv[1], kv[0])):
        instr = kernel.lowered.instruction(iid)
        b.out(f"  cycle {cycle:>3} (slot {cycle % kernel.ii}): {iid:>3}: {instr}")
    b.out(f"pipelined time (1 processor, n={n}) = {kernel.parallel_time(n)}")
    if violations:
        b.out("VIOLATIONS:", *violations, sep="\n  ")
        return b.result(exit_code=1)
    return b.result()


def simulate_op(
    source: str,
    scheduler: str = "sync",
    issue: int = 4,
    fu: int = 1,
    n: int = 100,
    inject: Sequence[str] | None = None,
    exact_sim: bool = False,
    executor: bool = False,
    max_cycles: int | None = None,
) -> OpResult:
    """Simulate one scheduled loop, optionally under an injected fault plan."""
    from repro.robust import DeadlockError, FaultPlan
    from repro.sim import MemoryImage, execute_parallel

    b = _Buffers()
    compiled = compile_loop(source)
    machine = paper_machine(issue, fu)
    schedule = SCHEDULERS[scheduler](compiled.lowered, compiled.graph, machine)
    assert_valid(schedule, compiled.graph)
    try:
        plan = FaultPlan.parse(inject) if inject else None
    except ValueError as err:
        b.err(f"bad --inject spec: {err}")
        return b.result(exit_code=1)
    if plan:
        b.out(f"fault plan: {plan.describe()}")
    from repro.obs.ledger import active_recorder

    run_recorder = active_recorder()
    try:
        sim = simulate_doacross(schedule, n, exact_simulation=exact_sim, faults=plan)
    except DeadlockError as err:
        if run_recorder is not None:
            run_recorder.note_error("deadlock", f"DeadlockError: {err}")
            from repro.sched.gantt import sync_timeline

            run_recorder.add_timeline("sync", sync_timeline(schedule))
        b.out(err.render(schedule))
        return b.result(exit_code=2)
    if run_recorder is not None:
        from repro.sched.gantt import sync_timeline

        run_recorder.add_timeline("sync", sync_timeline(schedule))
    b.out(f"== {scheduler} scheduling on {machine.name} ==")
    b.out(f"schedule length = {schedule.length}, dispatch = {sim.dispatch}")
    if sim.fallback_reason:
        b.out(f"fast path declined: {sim.fallback_reason}")
    b.out(f"parallel time (n={n}) = {sim.parallel_time}")
    if sim.stall_by_pair:
        for pair_id, stall in sorted(sim.stall_by_pair.items()):
            b.out(f"  pair {pair_id}: total stall {stall} cycle(s)")
    if executor:
        try:
            result = execute_parallel(
                schedule,
                MemoryImage(),
                n,
                max_cycles=max_cycles,
                faults=plan,
                graph=compiled.graph,
            )
        except DeadlockError as err:
            b.out(err.render(schedule))
            return b.result(exit_code=2)
        agree = "agrees" if result.parallel_time == sim.parallel_time else "DISAGREES"
        b.out(f"semantic executor: {result.parallel_time} cycles ({agree})")
    return b.result()


def fuzz_op(cases: int = 200, seed: int = 0, executor_every: int = 1) -> OpResult:
    """The seeded differential fuzz harness (:mod:`repro.robust.fuzz`)."""
    from repro.robust.fuzz import run_fuzz

    b = _Buffers()
    report = run_fuzz(cases=cases, seed=seed, executor_every=executor_every)
    b.out(report.summary())
    return b.result(exit_code=0 if report.ok else 1)


def sweep_results(
    names,
    n,
    workers,
    exact_sim,
    no_cache=False,
    cache_file=None,
    progress=False,
    batch=False,
):
    """Run the Perfect sweep and return evaluations, one per sweep point."""
    from repro.obs.ledger import active_recorder
    from repro.options import EvalOptions

    suite = perfect_suite()
    cases = [(2, 1), (2, 2), (4, 1), (4, 2)]
    jobs = [
        (name, suite[name], paper_machine(*case)) for name in names for case in cases
    ]
    options = EvalOptions(exact_simulation=exact_sim, progress=progress, batch=batch)
    run_recorder = active_recorder()
    if run_recorder is not None:
        run_recorder.note_options(options)
    notes: list[str] = []
    if workers > 1:
        from repro.perf import ParallelEvaluator

        evaluator = ParallelEvaluator(max_workers=workers)
        results = evaluator.evaluate_corpora(jobs, n=n, options=options)
        benign = evaluator.fallback_reason in (None, "max_workers=1", "single job") or (
            evaluator.fallback_reason or ""
        ).startswith("below min-work threshold")
        if not evaluator.used_pool and not benign:
            notes.append(
                f"note: process pool unavailable, ran serially "
                f"({evaluator.fallback_reason})"
            )
    else:
        from repro.perf import CompileCache
        from repro.pipeline import evaluate_corpus

        if run_recorder is not None:
            run_recorder.note_mode(
                "batch (whole-grid vectorized, no pool requested)"
                if batch
                else "serial (no pool requested)"
            )
        cache = None
        if cache_file:
            cache = CompileCache.load(cache_file)
        elif not no_cache:
            cache = CompileCache()
        if cache is not None:
            options = options.replace(cache=cache)
        if batch:
            # The whole grid goes through one vectorized dispatch instead
            # of a per-corpus loop (CLI sweeps never carry the options the
            # batch engine declines, so there is no fallback leg here).
            from repro.perf import BatchEvaluator, shared_batch_evaluator

            engine = BatchEvaluator() if no_cache else shared_batch_evaluator()
            results = engine.evaluate_corpora(jobs, n=n, options=options)
        else:
            results = [
                evaluate_corpus(name, loops, machine, n, options)
                for name, loops, machine in jobs
            ]
        if cache_file and cache is not None:
            cache.save(cache_file)
    if run_recorder is not None:
        for corpus in results:
            run_recorder.note_failures(corpus.failures)
    return results, cases, notes


def sweep_op(
    benchmarks: Sequence[str] = (),
    n: int = 100,
    jobs: int = 1,
    no_cache: bool = False,
    cache_file: str | None = None,
    exact_sim: bool = False,
    batch: bool = False,
    progress: bool = False,
    structured: bool = False,
) -> OpResult:
    """Regenerate Tables 2/3 over the Perfect corpora.

    With ``structured=True`` the result carries the per-corpus records
    (:func:`repro.report.corpus_record`) the HTTP service returns.
    """
    b = _Buffers()
    names = list(benchmarks) or list(PERFECT_BENCHMARKS)
    if no_cache and jobs > 1:
        b.err(
            "note: --no-cache has no effect with --jobs > 1 "
            "(workers keep their own caches)"
        )
    if cache_file and jobs > 1:
        b.err(
            "note: --cache-file has no effect with --jobs > 1 "
            "(workers keep their own caches)"
        )
    results, cases, notes = sweep_results(
        names, n, jobs, exact_sim, no_cache, cache_file,
        progress=progress, batch=batch,
    )
    for note in notes:
        b.err(note)
    by_point = {(ev.name, ev.machine.name): ev for ev in results}
    b.out(f"{'bench':8s}" + "".join(f"{f'{w}i/{f}fu':>16s}" for w, f in cases))
    for name in names:
        cells = []
        for case in cases:
            ev = by_point[(name, paper_machine(*case).name)]
            cells.append(f"{ev.t_list}/{ev.t_new} {ev.improvement:4.0f}%")
        b.out(f"{name:8s}" + "".join(f"{c:>16s}" for c in cells))
    data = None
    if structured:
        from repro.report import corpus_record

        data = {
            "benchmarks": names,
            "cases": [list(case) for case in cases],
            "corpora": [corpus_record(ev) for ev in results],
        }
    return b.result(data=data)


def metrics_op(
    benchmarks: Sequence[str] = (),
    n: int = 100,
    jobs: int = 1,
    exact_sim: bool = False,
    as_json: bool = False,
) -> OpResult:
    """Run the Perfect sweep with the metrics registry enabled."""
    import json as _json

    from repro.obs import enable_metrics, disable_metrics, metrics_snapshot

    b = _Buffers()
    names = list(benchmarks) or list(PERFECT_BENCHMARKS)
    registry = enable_metrics()
    notes: Sequence[str] = ()
    try:
        _, _, notes = sweep_results(names, n, jobs, exact_sim)
    finally:
        disable_metrics()
        for note in notes:
            b.err(note)
    if as_json:
        b.out(_json.dumps(metrics_snapshot(registry), indent=2, sort_keys=True))
    else:
        b.out(registry.format())
    return b.result()


def explain_op(
    source: str,
    scheduler: str = "sync",
    issue: int = 4,
    fu: int = 1,
    fig4: bool = False,
    n: int = 100,
    op: int | None = None,
    pair: int | None = None,
    timeline: bool = False,
    timeline_n: int = 6,
    html: str | None = None,
) -> OpResult:
    """Why is op X at cycle c / why is pair S's span k (decision journal)."""
    from repro.obs.explain import (
        DecisionJournal,
        explain_op as _explain_op,
        explain_pair as _explain_pair,
        explain_summary as _explain_summary,
        journal_scope,
    )
    from repro.sched import figure4_machine

    b = _Buffers()
    compiled = compile_loop(source)
    machine = figure4_machine() if fig4 else paper_machine(issue, fu)
    scheduler_fn = SCHEDULERS[scheduler]
    journal = DecisionJournal()
    with journal_scope(journal):
        schedule = scheduler_fn(compiled.lowered, compiled.graph, machine)
        assert_valid(schedule, compiled.graph)
        sim = simulate_doacross(schedule, n)
    printed = False
    if op is not None:
        b.out(_explain_op(schedule, journal, op))
        printed = True
    if pair is not None:
        if printed:
            b.out()
        b.out(_explain_pair(schedule, journal, compiled.graph, pair, sim=sim))
        printed = True
    if not printed:
        b.out(_explain_summary(schedule, journal, compiled.graph, sim=sim))
    from repro.obs.ledger import active_recorder

    run_recorder = active_recorder()
    if run_recorder is not None:
        from repro.sched.gantt import sync_timeline

        run_recorder.add_timeline("sync", sync_timeline(schedule))
    if timeline:
        from repro.sched.gantt import execution_timeline, sync_timeline

        b.out()
        b.out(sync_timeline(schedule))
        b.out()
        b.out(execution_timeline(schedule, n=min(n, timeline_n)))
    if html:
        from repro.sched.gantt import timeline_html

        with open(html, "w", encoding="utf-8") as handle:
            handle.write(timeline_html(schedule, n=min(n, timeline_n)))
        b.err(f"wrote timeline to {html}")
        if run_recorder is not None:
            run_recorder.add_artifact(html)
    return b.result()


def evaluate_op(
    source: str,
    issue: int = 4,
    fu: int = 1,
    n: int = 100,
    exact_sim: bool = False,
    as_json: bool = False,
) -> OpResult:
    """Evaluate one loop with both schedulers; structured v7 record.

    The service-first entrypoint behind ``POST /v1/evaluate``: compile,
    schedule with both algorithms, simulate, and return the
    :func:`repro.report.evaluation_record` as ``data`` (printed as JSON
    with ``as_json``, as a one-line summary otherwise).
    """
    from repro.options import EvalOptions
    from repro.pipeline import evaluate_loop
    from repro.report import evaluation_record, to_json

    b = _Buffers()
    compiled = compile_loop(source)
    machine = paper_machine(issue, fu)
    evaluation = evaluate_loop(
        compiled, machine, n, options=EvalOptions(exact_simulation=exact_sim)
    )
    record = evaluation_record(evaluation)
    if as_json:
        b.out(to_json(record))
    else:
        b.out(
            f"{machine.name}: t_list={evaluation.t_list} t_new={evaluation.t_new} "
            f"({evaluation.improvement:+.1f}% improvement, n={evaluation.n})"
        )
    return b.result(data=record)


def _bench_history(history: str):
    from repro.obs.regress import BenchHistory

    return BenchHistory(history)


def bench_record_op(history: str, suite: str = "all", n: int = 100) -> OpResult:
    """Run bench suites and append them to the JSONL history."""
    from repro.obs.regress import collect_run, suites

    b = _Buffers()
    store = _bench_history(history)
    from repro.obs.ledger import active_recorder

    run_recorder = active_recorder()
    for name in suites(suite):
        run = collect_run(name, n=n)
        store.append(run)
        b.out(f"recorded {run.summary()}")
    if run_recorder is not None:
        run_recorder.add_artifact(store.path)
    b.err(f"history: {store.path}")
    return b.result()


def bench_list_op(history: str) -> OpResult:
    """Show recorded bench runs."""
    b = _Buffers()
    store = _bench_history(history)
    runs = store.load()
    b.warn_torn(store)
    if not runs:
        b.out(f"no runs recorded in {store.path}")
        return b.result()
    for run in runs:
        b.out(run.summary())
    return b.result()


def bench_diff_op(history: str, run_a: str, run_b: str) -> OpResult:
    """Compare two recorded bench runs."""
    from repro.obs.regress import diff_runs, format_diff

    b = _Buffers()
    store = _bench_history(history)
    diff = diff_runs(store.get(run_a), store.get(run_b))
    b.out(format_diff(diff))
    return b.result(exit_code=1 if diff.cycle_drift else 0)


#: Timed repeats per suite in ``repro bench check`` — the wall gate takes
#: the median, so one scheduler hiccup on a loaded CI host is not a
#: regression (the repeat count lands on the candidate's bench record).
DEFAULT_CHECK_REPEATS = 3


def bench_check_op(
    history: str,
    suite: str = "all",
    baseline: str | None = None,
    wall_tolerance: float | None = None,
    repeats: int = DEFAULT_CHECK_REPEATS,
    profiles: str | None = None,
) -> OpResult:
    """Re-run bench suites and fail on drift vs the recorded baseline.

    The candidate's wall clock is the **median of** ``repeats`` timed
    executions.  When the wall-clock gate trips, the regressed suite is
    re-run once more under the sampling profiler and diffed against the
    most recent profile recorded for that suite (``profiles`` store, see
    ``repro prof``), so the report names the regressed frame, not just
    the regressed second.
    """
    from repro.obs.regress import (
        DEFAULT_WALL_TOLERANCE,
        BenchHistory,
        check_run,
        collect_run,
        suites,
    )

    b = _Buffers()
    if wall_tolerance is None:
        wall_tolerance = DEFAULT_WALL_TOLERANCE
    baseline_store = BenchHistory(baseline) if baseline else _bench_history(history)
    failed = False
    checked = 0
    for name in suites(suite):
        base = baseline_store.latest(name)
        if base is None:
            b.err(
                f"{name}: no baseline recorded in {baseline_store.path} "
                "(run `repro bench record` first)"
            )
            failed = True
            continue
        candidate = collect_run(name, n=base.n, repeats=repeats)
        violations = check_run(base, candidate, wall_tolerance=wall_tolerance)
        checked += 1
        if violations:
            failed = True
            b.out(f"{name}: REGRESSION vs baseline {base.run_id}:")
            for violation in violations:
                b.out(f"  {violation}")
            if any(v.startswith("wall-clock regressed") for v in violations):
                b.out(
                    f"  profile attribution (median of {repeats} repeat(s) "
                    "regressed; re-running under the sampler):"
                )
                for line in _bench_wall_attribution(name, base.n, profiles):
                    b.out(f"    {line}")
        else:
            b.out(
                f"{name}: OK — {len(candidate.points)} point(s) match baseline "
                f"{base.run_id} exactly"
            )
    return b.result(exit_code=1 if failed or checked == 0 else 0)


def _profile_suite(
    suite: str,
    n: int,
    hz: float,
    min_seconds: float,
    label: str = "",
) -> tuple["Any", int]:
    """Run a bench suite under a local sampling profiler.

    Loops the suite until ``min_seconds`` of wall clock have accrued so
    even a millisecond-fast suite yields a meaningful sample count.
    Returns ``(profile, rounds)``.
    """
    from repro.obs.prof import Profiler
    from repro.obs.regress import _suite_points
    from repro.obs.trace import add_tracer, remove_tracer
    from repro.options import EvalOptions

    options = EvalOptions()
    profiler = Profiler(hz)
    add_tracer(profiler)  # stage attribution via the span seam
    profiler.start_sampling()
    rounds = 0
    started = time.perf_counter()
    try:
        # Loop the suite body itself (not collect_run, whose per-call git
        # fingerprint subprocess would drown a fast suite in spawn frames).
        while True:
            _suite_points(suite, n, options)
            rounds += 1
            if time.perf_counter() - started >= min_seconds:
                break
    finally:
        remove_tracer(profiler)
        profiler.stop_sampling()
    return profiler.snapshot(label=label, suite=suite), rounds


def _bench_wall_attribution(
    suite: str, n: int, profiles: str | None
) -> list[str]:
    """Differential-profile lines for one wall-regressed suite.

    Profiles a fresh run, appends it to the profile store, and diffs it
    against the store's previous profile for the suite.  Attribution is
    best-effort: a sampling failure reports itself instead of masking
    the wall-clock violation it annotates.
    """
    from repro.obs.prof import (
        DEFAULT_HZ,
        DEFAULT_PROFILES,
        ProfileStore,
        format_profile_diff,
        frame_stats,
    )

    try:
        store = ProfileStore(profiles or DEFAULT_PROFILES)
        previous = store.latest(suite)
        profile, _rounds = _profile_suite(
            suite, n, hz=DEFAULT_HZ, min_seconds=1.0, label="bench-check"
        )
        store.append(profile)
        if previous is None:
            lines = [
                f"no earlier profile for suite {suite!r} in {store.path}; "
                "hottest frames of the regressed run:"
            ]
            stats = sorted(
                frame_stats(profile).values(),
                key=lambda s: (-s.self_samples, s.name),
            )[:5]
            total = max(profile.samples, 1)
            lines.extend(
                f"{stat.name}: {stat.self_samples} self sample(s) "
                f"({100.0 * stat.self_samples / total:.1f}%)"
                for stat in stats
            )
        else:
            lines = format_profile_diff(previous, profile, limit=5)
        lines.append(f"recorded profile {profile.profile_id} in {store.path}")
        return lines
    except Exception as err:  # noqa: BLE001 — annotate, never mask
        return [f"profile attribution unavailable: {type(err).__name__}: {err}"]


def prof_record_op(
    profiles: str,
    suite: str = "fig",
    n: int = 100,
    hz: float | None = None,
    min_seconds: float = 1.0,
    svg: str | None = None,
    label: str = "",
) -> OpResult:
    """``repro prof record``: profile a bench suite, append the record."""
    from repro.obs.ledger import active_recorder
    from repro.obs.prof import (
        DEFAULT_HZ,
        ProfileStore,
        flamegraph_svg,
        profile_top_table,
    )

    b = _Buffers()
    store = ProfileStore(profiles)
    profile, rounds = _profile_suite(
        suite, n, hz=hz or DEFAULT_HZ, min_seconds=min_seconds, label=label
    )
    store.append(profile)
    b.out(
        f"recorded profile {profile.profile_id} suite={suite} "
        f"samples={profile.samples} rounds={rounds} "
        f"wall={profile.duration_s:.2f}s hz={profile.hz:g}"
    )
    b.out(profile_top_table(profile, limit=5))
    run_recorder = active_recorder()
    if run_recorder is not None:
        run_recorder.add_artifact(store.path)
    if svg:
        with open(svg, "w", encoding="utf-8") as handle:
            handle.write(flamegraph_svg(profile))
        b.err(f"wrote flame graph to {svg}")
        if run_recorder is not None:
            run_recorder.add_artifact(svg)
    b.err(f"profiles: {store.path}")
    return b.result(data=profile.as_dict())


def prof_top_op(
    profiles: str, profile_id: str | None = None, limit: int = 15
) -> OpResult:
    """``repro prof top``: hottest frames of one recorded profile."""
    from repro.obs.prof import ProfileStore, profile_top_table

    b = _Buffers()
    store = ProfileStore(profiles)
    try:
        if profile_id is None:
            profile = store.latest()
            if profile is None:
                raise KeyError(
                    f"no profiles recorded in {store.path} "
                    "(run `repro prof record` first)"
                )
        else:
            profile = store.get(profile_id)
    except KeyError as err:
        b.err(str(err.args[0]) if err.args else str(err))
        return b.result(exit_code=1)
    b.warn_torn(store)
    b.out(profile_top_table(profile, limit=limit))
    return b.result()


def prof_diff_op(
    profiles: str, profile_a: str, profile_b: str, limit: int = 10
) -> OpResult:
    """``repro prof diff``: per-frame deltas between two profiles,
    naming the top regressed frames."""
    from repro.obs.prof import ProfileStore, format_profile_diff

    b = _Buffers()
    store = ProfileStore(profiles)
    try:
        old = store.get(profile_a)
        new = store.get(profile_b)
    except KeyError as err:
        b.err(str(err.args[0]) if err.args else str(err))
        return b.result(exit_code=1)
    for line in format_profile_diff(old, new, limit=limit):
        b.out(line)
    return b.result()


def dot_op(source: str, title: str | None = None) -> OpResult:
    """Emit the DFG as Graphviz DOT."""
    b = _Buffers()
    compiled = compile_loop(source)
    b.out(to_dot(compiled.graph, compiled.lowered, title=title))
    return b.result()


def _run_ledger(ledger: str):
    from repro.obs.ledger import RunLedger

    return RunLedger(ledger)


def runs_list_op(ledger: str, inflight: bool = False) -> OpResult:
    """Show runs recorded in the ledger.

    ``inflight=True`` shows only unfinished in-flight service records —
    requests a (possibly killed) process admitted but never finalized.
    """
    from repro.obs.ledger import unfinished_inflight

    b = _Buffers()
    store = _run_ledger(ledger)
    records = store.load()
    b.warn_torn(store)
    if inflight:
        records = unfinished_inflight(records)
        if not records:
            b.out(f"no unfinished in-flight requests in {store.path}")
            return b.result()
        for record in records:
            request_id = record.argv[-1] if record.argv else "?"
            b.out(f"{record.summary()}  request_id={request_id}")
        b.out(
            f"{len(records)} in-flight request(s) were never finalized; "
            "run `repro serve --recover` to mark them lost"
        )
        return b.result()
    if not records:
        b.out(f"no runs recorded in {store.path}")
        return b.result()
    for record in records:
        b.out(record.summary())
    return b.result()


def runs_show_op(ledger: str, run_id: str) -> OpResult:
    """Full detail for one recorded run."""
    b = _Buffers()
    store = _run_ledger(ledger)
    try:
        record = store.get(run_id)
    except KeyError as err:
        b.err(err.args[0])
        return b.result(exit_code=1)
    b.out(record.describe())
    return b.result(data=record.as_dict())


def runs_diff_op(
    ledger: str, run_a: str, run_b: str, all_metrics: bool = False
) -> OpResult:
    """Compare two runs' final metrics snapshots."""
    from repro.obs.ledger import diff_run_metrics, format_run_diff

    b = _Buffers()
    store = _run_ledger(ledger)
    try:
        old, new = store.get(run_a), store.get(run_b)
    except KeyError as err:
        b.err(err.args[0])
        return b.result(exit_code=1)
    diff = diff_run_metrics(old, new, deterministic_only=not all_metrics)
    b.out(format_run_diff(diff))
    return b.result(exit_code=1 if diff.comparable and not diff.identical else 0)


def dash_op(
    out: str = "dashboard.html",
    history: str | None = None,
    no_walkthrough: bool = False,
    ledger: str | None = None,
    live: str | None = None,
    refresh: float = 2.0,
    profiles: str | None = None,
) -> OpResult:
    """Build the self-contained HTML dashboard.

    With ``live=URL`` the dashboard is built from one ``GET /v1/metrics``
    snapshot of a running service instead of the ledger/history stores,
    and carries a polling script that repaints itself every ``refresh``
    seconds (stat tiles, latency sparkline, flight-recorder table).

    Either way the dashboard embeds a CPU flame graph when one is
    available: the latest record of the ``profiles`` store (static), or
    a ``GET /v1/profile?format=svg`` snapshot when the live service has
    profiling armed.
    """
    from repro.obs.ledger import DEFAULT_LEDGER, RunLedger, active_recorder
    from repro.obs.prof import DEFAULT_PROFILES, ProfileStore
    from repro.obs.regress import DEFAULT_HISTORY, BenchHistory

    b = _Buffers()
    if live is not None:
        from repro.obs.dash import build_live_dashboard

        snapshot = _service_snapshot(live, "/v1/metrics")
        try:
            profile_svg = _service_text(live, "/v1/profile?format=svg")
        except (OSError, RuntimeError, ValueError):
            profile_svg = None  # profiling off: the section says so
        html = build_live_dashboard(
            snapshot, source=live, refresh_s=refresh, profile_svg=profile_svg
        )
        detail = (
            f"live dashboard ({snapshot.get('latency', {}).get('count', 0)} "
            f"workload request(s) observed at {live})"
        )
    else:
        from repro.obs.dash import build_dashboard, walkthrough_timelines

        runs = RunLedger(ledger if ledger is not None else DEFAULT_LEDGER).load()
        bench_runs = BenchHistory(
            history if history is not None else DEFAULT_HISTORY
        ).load()
        profile_records = ProfileStore(
            profiles if profiles is not None else DEFAULT_PROFILES
        ).load()
        walkthrough = None if no_walkthrough else walkthrough_timelines()
        html = build_dashboard(
            runs, bench_runs, walkthrough=walkthrough, profiles=profile_records
        )
        detail = (
            f"dashboard ({len(runs)} ledger run(s), {len(bench_runs)} bench "
            "run(s))"
        )
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(html)
    run_recorder = active_recorder()
    if run_recorder is not None:
        run_recorder.add_artifact(out)
    b.err(f"wrote {detail} to {out}")
    return b.result()


def _service_text(url: str, path: str) -> str:
    """One GET against a running service, returned as raw text (the SVG
    flame graph of ``/v1/profile?format=svg``).  Raises on non-200."""
    from http.client import HTTPConnection
    from urllib.parse import urlsplit

    parts = urlsplit(url if "//" in url else f"http://{url}")
    connection = HTTPConnection(
        parts.hostname or "127.0.0.1", parts.port or 8757, timeout=10
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read().decode("utf-8")
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"GET {url}{path} returned {response.status}")
    return body


def _service_snapshot(url: str, path: str) -> dict[str, Any]:
    """One GET against a running service, parsed as JSON (stdlib only)."""
    from http.client import HTTPConnection
    from urllib.parse import urlsplit

    parts = urlsplit(url if "//" in url else f"http://{url}")
    connection = HTTPConnection(
        parts.hostname or "127.0.0.1", parts.port or 8757, timeout=10
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(
            f"GET {url}{path} returned {response.status}: "
            f"{payload.get('error', payload)}"
        )
    return payload


def top_op(url: str, interval: float = 2.0, count: int = 0) -> OpResult:
    """``repro top``: a one-line live view of a running service.

    Polls ``GET /v1/metrics`` every ``interval`` seconds and renders one
    status line — on a TTY it repaints in place (the
    :class:`~repro.obs.trace.TTYProgressSink` convention: ``\\r``, no
    newline until done); otherwise one line per poll.  ``count`` bounds
    the number of polls (0 = until Ctrl-C).
    """
    import sys

    from repro.obs.prof import busy_samples

    stream = sys.stderr
    is_tty = getattr(stream, "isatty", lambda: False)()
    polls = 0
    # CPU% comes from GET /v1/profile when the server has profiling
    # armed (`repro serve --profile-hz N`): the *busy* sample-count
    # delta between two polls divided by hz x elapsed.  The sampler is
    # wall-clock — it sees parked handler threads too — so samples whose
    # leaf is a blocking primitive (IDLE_LEAVES) are excluded here; an
    # idle service reads ~0%, not thread-count x 100%.  A dash when
    # profiling is off, unreachable, or on the first poll (no delta).
    prev_cpu: tuple[int, float] | None = None
    try:
        while True:
            cpu = "-"
            try:
                snapshot = _service_snapshot(url, "/v1/metrics")
            except (OSError, RuntimeError, ValueError) as err:
                line = f"repro top: {url} unreachable ({err})"
            else:
                try:
                    prof = _service_snapshot(url, "/v1/profile")
                except (OSError, RuntimeError, ValueError):
                    prev_cpu = None
                else:
                    record = prof.get("profile", {})
                    folded = record.get("folded")
                    samples = (
                        busy_samples(folded)
                        if folded is not None
                        else record.get("samples", 0)
                    )
                    hz = prof.get("hz", 0) or 0
                    now = time.monotonic()
                    if prev_cpu is not None and hz > 0:
                        delta_s, delta_t = samples - prev_cpu[0], now - prev_cpu[1]
                        if delta_t > 0:
                            cpu = f"{100.0 * delta_s / (hz * delta_t):.0f}%"
                    prev_cpu = (samples, now)
                counters = snapshot.get("metrics", {}).get("counters", {})
                gauges = snapshot.get("metrics", {}).get("gauges", {})
                latency = snapshot.get("latency", {})
                uptime = snapshot.get("uptime_s", 0.0)
                requests = counters.get("service.request.count", 0)
                rate = requests / uptime if uptime > 0 else 0.0
                occupancy = (
                    snapshot.get("metrics", {})
                    .get("distributions", {})
                    .get("service.batch.coalesce_window_occupancy", {})
                )
                line = (
                    f"up {uptime:.0f}s · req {requests} ({rate:.1f}/s) · "
                    f"err {counters.get('service.request.errors', 0)} · "
                    f"p50 {latency.get('p50', 0.0) * 1e3:.1f}ms "
                    f"p95 {latency.get('p95', 0.0) * 1e3:.1f}ms "
                    f"p99 {latency.get('p99', 0.0) * 1e3:.1f}ms · "
                    f"inflight {snapshot.get('inflight', 0)} · "
                    f"queue {gauges.get('service.queue.depth', {}).get('value', 0)} · "
                    f"coalesce≤{occupancy.get('max', 0) or 0:g} · "
                    f"cpu {cpu}"
                )
            if is_tty:
                stream.write("\r\x1b[2K" + line)
            else:
                stream.write(line + "\n")
            stream.flush()
            polls += 1
            if count and polls >= count:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    finally:
        if is_tty:
            stream.write("\n")
            stream.flush()
    return OpResult()


# -- the registry --------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """One operation: its CLI wiring and its service exposure.

    ``configure`` adds the subparser (and sets ``spec`` on its defaults);
    ``run`` adapts a parsed ``argparse.Namespace`` onto the typed op;
    ``call`` is the typed op itself, exposed by the HTTP service at
    ``POST /v1/op/<name>`` when ``http`` is true.  ``records`` marks ops
    whose invocation lands in the run ledger when ``--ledger`` is armed
    (query ops read the ledger instead of writing it).
    """

    name: str
    help: str
    configure: Callable[[Any, Callable[[Any], None]], None]
    run: Callable[[argparse.Namespace], OpResult]
    call: Callable[..., OpResult] | None = None
    http: bool = True
    records: bool = True


def _cfg_compile(sub, ledger_flag) -> None:
    p = sub.add_parser("compile", help="compile a loop and print artifacts")
    p.add_argument("loop", help="loop source file, or - for stdin")
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["compile"])


def _cfg_schedule(sub, ledger_flag) -> None:
    p = sub.add_parser("schedule", help="schedule a loop and simulate")
    p.add_argument("loop", help="loop source file, or - for stdin")
    p.add_argument("--scheduler", choices=[*SCHEDULERS, "all"], default="all")
    p.add_argument("--issue", type=int, default=4, help="issue width")
    p.add_argument("--fu", type=int, default=1, help="units per class")
    p.add_argument("--n", type=int, default=100, help="iterations")
    p.add_argument("--gantt", action="store_true", help="occupancy chart")
    p.add_argument("--pressure", action="store_true", help="register pressure")
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["schedule"])


def _cfg_modulo(sub, ledger_flag) -> None:
    p = sub.add_parser("modulo", help="software-pipeline a loop (extension)")
    p.add_argument("loop", help="loop source file, or - for stdin")
    p.add_argument("--issue", type=int, default=4)
    p.add_argument("--fu", type=int, default=1)
    p.add_argument("--n", type=int, default=100)
    p.set_defaults(spec=OP_REGISTRY["modulo"])


def _cfg_simulate(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "simulate", help="simulate one loop, optionally under injected faults"
    )
    p.add_argument("loop", help="loop source file, or - for stdin")
    p.add_argument("--scheduler", choices=list(SCHEDULERS), default="sync")
    p.add_argument("--issue", type=int, default=4, help="issue width")
    p.add_argument("--fu", type=int, default=1, help="units per class")
    p.add_argument("--n", type=int, default=100, help="iterations")
    p.add_argument(
        "--inject",
        action="append",
        metavar="SPEC",
        default=None,
        help="fault spec, repeatable: drop[:pair=P][,iter=K] | "
        "delay:extra=E[,pair=P][,iter=K] | stall:iter=K,at=C,cycles=S | "
        "jitter:seed=S[,max=M][,prob=F]",
    )
    p.add_argument(
        "--exact-sim",
        action="store_true",
        help="force the full event walk (skip the analytic fast path)",
    )
    p.add_argument(
        "--executor",
        action="store_true",
        help="also run the semantic executor and cross-check the timing",
    )
    p.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        help="executor cycle budget (default: derived from the schedule)",
    )
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["simulate"])


def _cfg_evaluate(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "evaluate", help="evaluate one loop with both schedulers (v7 record)"
    )
    p.add_argument("loop", help="loop source file, or - for stdin")
    p.add_argument("--issue", type=int, default=4, help="issue width")
    p.add_argument("--fu", type=int, default=1, help="units per class")
    p.add_argument("--n", type=int, default=100, help="iterations")
    p.add_argument(
        "--exact-sim",
        action="store_true",
        help="force the full event walk (skip the analytic fast path)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the full evaluation record"
    )
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["evaluate"])


def _cfg_fuzz(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "fuzz", help="seeded differential fuzz: random loops x random fault plans"
    )
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--executor-every",
        type=int,
        default=1,
        help="run the semantic-executor oracle on every k-th case",
    )
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["fuzz"])


def _cfg_sweep(sub, ledger_flag) -> None:
    p = sub.add_parser("sweep", help="Tables 2/3 over the Perfect corpora")
    p.add_argument("benchmarks", nargs="*", help="subset of corpora")
    p.add_argument("--n", type=int, default=100)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the compile/schedule cache"
    )
    p.add_argument(
        "--cache-file",
        metavar="FILE",
        default=None,
        help="persist the compile/schedule cache to FILE across runs "
        "(corrupt or stale files are discarded, counted in robust.cache.corrupt)",
    )
    p.add_argument(
        "--exact-sim",
        action="store_true",
        help="force the full event simulation (skip the analytic fast path)",
    )
    p.add_argument(
        "--batch",
        action="store_true",
        help="answer the whole grid through the vectorized batch engine "
        "(one closed-form pass; results identical to the per-loop path)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="render live progress (an in-place status line on a TTY, "
        "plain log lines otherwise)",
    )
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["sweep"])


def _cfg_metrics(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "metrics", help="run the Perfect sweep and print collected metrics"
    )
    p.add_argument("benchmarks", nargs="*", help="subset of corpora")
    p.add_argument("--n", type=int, default=100)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    p.add_argument(
        "--exact-sim",
        action="store_true",
        help="force the full event simulation (skip the analytic fast path)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the metrics snapshot as JSON"
    )
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["metrics"])


def _cfg_explain(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "explain", help="why is op X at cycle c / why is pair S's span k"
    )
    p.add_argument("loop", help="loop source file, or - for stdin")
    p.add_argument(
        "--scheduler",
        choices=["list", "sync"],
        default="sync",
        help="which scheduler's decisions to journal and explain",
    )
    p.add_argument("--issue", type=int, default=4, help="issue width")
    p.add_argument("--fu", type=int, default=1, help="units per class")
    p.add_argument(
        "--fig4",
        action="store_true",
        help="use the paper's Fig. 4 walkthrough machine instead of --issue/--fu",
    )
    p.add_argument("--n", type=int, default=100, help="iterations")
    p.add_argument(
        "--op", type=int, default=None, help="explain this instruction's placement"
    )
    p.add_argument(
        "--pair", type=int, default=None, help="explain this sync pair's span"
    )
    p.add_argument(
        "--timeline",
        action="store_true",
        help="also print the sync and cross-iteration ASCII timelines",
    )
    p.add_argument(
        "--timeline-n",
        type=int,
        default=6,
        help="iterations shown by the cross-iteration timeline views",
    )
    p.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="write a self-contained HTML timeline to FILE",
    )
    ledger_flag(p)
    p.set_defaults(spec=OP_REGISTRY["explain"])


def _cfg_bench(sub, ledger_flag) -> None:
    from repro.obs.regress import DEFAULT_HISTORY, DEFAULT_WALL_TOLERANCE

    p = sub.add_parser(
        "bench", help="record / diff / check benchmark-regression history"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def _bench_common(q) -> None:
        q.add_argument(
            "--history",
            metavar="FILE",
            default=DEFAULT_HISTORY,
            help=f"JSONL history file (default: {DEFAULT_HISTORY})",
        )

    p_record = bench_sub.add_parser("record", help="run suites and append to history")
    p_record.add_argument(
        "--suite", choices=["fig", "perfect", "batch", "all"], default="all"
    )
    p_record.add_argument("--n", type=int, default=100)
    _bench_common(p_record)
    ledger_flag(p_record)
    p_record.set_defaults(spec=OP_REGISTRY["bench"], bench_command="record")

    p_list = bench_sub.add_parser("list", help="show recorded runs")
    _bench_common(p_list)
    p_list.set_defaults(spec=OP_REGISTRY["bench"], bench_command="list")

    p_diff = bench_sub.add_parser("diff", help="compare two recorded runs")
    p_diff.add_argument("run_a", help="baseline run id (prefix ok)")
    p_diff.add_argument("run_b", help="candidate run id (prefix ok)")
    _bench_common(p_diff)
    p_diff.set_defaults(spec=OP_REGISTRY["bench"], bench_command="diff")

    p_check = bench_sub.add_parser(
        "check", help="re-run suites and fail on drift vs the baseline"
    )
    p_check.add_argument(
        "--suite", choices=["fig", "perfect", "batch", "all"], default="all"
    )
    p_check.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline history file (default: --history)",
    )
    p_check.add_argument(
        "--wall-tolerance",
        type=float,
        default=DEFAULT_WALL_TOLERANCE,
        help="allowed relative wall-clock slowdown on the same machine",
    )
    p_check.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_CHECK_REPEATS,
        metavar="N",
        help="timed repeats per suite; the wall gate takes the median "
        f"(default: {DEFAULT_CHECK_REPEATS})",
    )
    p_check.add_argument(
        "--profiles",
        metavar="FILE",
        default=None,
        help="profile store for the differential attribution a tripped "
        "wall gate records (default: .repro/profiles.jsonl)",
    )
    _bench_common(p_check)
    ledger_flag(p_check)
    p_check.set_defaults(spec=OP_REGISTRY["bench"], bench_command="check")


def _cfg_prof(sub, ledger_flag) -> None:
    from repro.obs.prof import DEFAULT_HZ, DEFAULT_PROFILES

    p = sub.add_parser(
        "prof", help="record / compare sampled CPU profiles of bench suites"
    )
    prof_sub = p.add_subparsers(dest="prof_command", required=True)

    def _prof_common(q) -> None:
        q.add_argument(
            "--profiles",
            metavar="FILE",
            default=DEFAULT_PROFILES,
            help=f"JSONL profile store (default: {DEFAULT_PROFILES})",
        )

    p_record = prof_sub.add_parser(
        "record", help="profile a bench suite and append to the store"
    )
    p_record.add_argument(
        "--suite", choices=["fig", "perfect", "batch"], default="fig"
    )
    p_record.add_argument("--n", type=int, default=100)
    p_record.add_argument(
        "--hz",
        type=float,
        default=None,
        metavar="HZ",
        help=f"sampling rate (default: {DEFAULT_HZ:g})",
    )
    p_record.add_argument(
        "--min-seconds",
        type=float,
        default=1.0,
        metavar="S",
        help="loop the suite until this much wall clock accrued (default: 1.0)",
    )
    p_record.add_argument(
        "--svg",
        metavar="FILE",
        default=None,
        help="also write a self-contained SVG flame graph",
    )
    p_record.add_argument(
        "--label", default="", help="free-form label on the profile record"
    )
    _prof_common(p_record)
    ledger_flag(p_record)
    p_record.set_defaults(spec=OP_REGISTRY["prof"], prof_command="record")

    p_top = prof_sub.add_parser("top", help="hottest frames of one profile")
    p_top.add_argument(
        "profile_id",
        nargs="?",
        default=None,
        help="profile id (prefix ok; default: latest recorded)",
    )
    p_top.add_argument("--limit", type=int, default=15)
    _prof_common(p_top)
    p_top.set_defaults(spec=OP_REGISTRY["prof"], prof_command="top")

    p_diff = prof_sub.add_parser(
        "diff", help="per-frame deltas between two profiles"
    )
    p_diff.add_argument("profile_a", help="old profile id (prefix ok)")
    p_diff.add_argument("profile_b", help="new profile id (prefix ok)")
    p_diff.add_argument("--limit", type=int, default=10)
    _prof_common(p_diff)
    p_diff.set_defaults(spec=OP_REGISTRY["prof"], prof_command="diff")


def _cfg_dot(sub, ledger_flag) -> None:
    p = sub.add_parser("dot", help="emit the DFG as Graphviz DOT")
    p.add_argument("loop", help="loop source file, or - for stdin")
    p.add_argument("--title", default=None)
    p.set_defaults(spec=OP_REGISTRY["dot"])


def _cfg_runs(sub, ledger_flag) -> None:
    from repro.obs.ledger import DEFAULT_LEDGER

    p = sub.add_parser(
        "runs", help="list / show / diff runs recorded in the ledger"
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    def _runs_common(q) -> None:
        q.add_argument(
            "--ledger",
            metavar="FILE",
            default=DEFAULT_LEDGER,
            help=f"JSONL run ledger to read (default: {DEFAULT_LEDGER})",
        )

    p_list = runs_sub.add_parser("list", help="show recorded runs")
    p_list.add_argument(
        "--inflight",
        action="store_true",
        help="show only unfinished in-flight service requests (admitted "
        "but never finalized — what a killed process lost)",
    )
    _runs_common(p_list)
    p_list.set_defaults(spec=OP_REGISTRY["runs"], runs_command="list")

    p_show = runs_sub.add_parser("show", help="full detail for one run")
    p_show.add_argument("run_id", help="run id (prefix ok)")
    _runs_common(p_show)
    p_show.set_defaults(spec=OP_REGISTRY["runs"], runs_command="show")

    p_diff = runs_sub.add_parser(
        "diff", help="compare two runs' final metrics snapshots"
    )
    p_diff.add_argument("run_a", help="old run id (prefix ok)")
    p_diff.add_argument("run_b", help="new run id (prefix ok)")
    p_diff.add_argument(
        "--all-metrics",
        action="store_true",
        help="compare every metrics namespace, not just the deterministic "
        "sim.*/sched.* subset",
    )
    _runs_common(p_diff)
    p_diff.set_defaults(spec=OP_REGISTRY["runs"], runs_command="diff")


def _cfg_dash(sub, ledger_flag) -> None:
    from repro.obs.ledger import DEFAULT_LEDGER
    from repro.obs.regress import DEFAULT_HISTORY

    p = sub.add_parser("dash", help="build the self-contained HTML dashboard")
    p.add_argument(
        "--out",
        metavar="FILE",
        default="dashboard.html",
        help="output HTML file (default: dashboard.html)",
    )
    p.add_argument(
        "--history",
        metavar="FILE",
        default=DEFAULT_HISTORY,
        help=f"bench history to chart (default: {DEFAULT_HISTORY})",
    )
    p.add_argument(
        "--no-walkthrough",
        action="store_true",
        help="skip the generated Fig. 4 walkthrough timelines",
    )
    p.add_argument(
        "--ledger",
        metavar="FILE",
        default=DEFAULT_LEDGER,
        help=f"JSONL run ledger to aggregate (default: {DEFAULT_LEDGER})",
    )
    p.add_argument(
        "--live",
        metavar="URL",
        default=None,
        help="build the live service dashboard from GET /v1/metrics of a "
        "running service instead of the ledger/history stores",
    )
    p.add_argument(
        "--refresh",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll cadence of the live dashboard (default: 2.0)",
    )
    p.add_argument(
        "--profiles",
        metavar="FILE",
        default=None,
        help="profile store whose latest flame graph the dashboard embeds "
        "(default: .repro/profiles.jsonl)",
    )
    p.set_defaults(spec=OP_REGISTRY["dash"])


def _cfg_serve(sub, ledger_flag) -> None:
    from repro.obs.ledger import DEFAULT_LEDGER

    p = sub.add_parser(
        "serve", help="run the compilation service (HTTP, long-lived)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8757, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--ledger",
        metavar="FILE",
        default=DEFAULT_LEDGER,
        help=f"run ledger every request is recorded in (default: {DEFAULT_LEDGER})",
    )
    p.add_argument(
        "--coalesce-window",
        type=float,
        default=0.02,
        metavar="SECONDS",
        help="how long the batcher waits to coalesce concurrent submissions "
        "into one grid (default: 0.02)",
    )
    p.add_argument(
        "--access-log",
        metavar="FILE",
        default=None,
        help="write one schema-stamped JSONL line per request (request_id, "
        "method, path, status, latency); off by default",
    )
    p.add_argument(
        "--flight",
        type=int,
        default=256,
        metavar="N",
        help="flight-recorder capacity: retain the last N request traces "
        "for GET /v1/trace/<request_id> (default: 256)",
    )
    resilience = p.add_argument_group(
        "resilience",
        "passing any of these arms a ServicePolicy (docs/robustness.md, "
        '"Operating under failure"); with none the server runs the '
        "pre-resilience configuration",
    )
    resilience.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="shed submissions (429 + Retry-After) once N are queued",
    )
    resilience.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="shed submissions once N are admitted but unfinished",
    )
    resilience.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (requests may override with "
        "deadline_s in the body); expired submissions get a 504 with a "
        "hint naming where the budget went",
    )
    resilience.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="how long a handler waits on a possibly-wedged grid before "
        "answering 504",
    )
    resilience.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        metavar="N",
        help="consecutive batch-grid failures before the circuit opens "
        "and the service answers from the degraded per-loop path "
        "(default when armed: 5)",
    )
    resilience.add_argument(
        "--breaker-cooldown",
        type=float,
        default=None,
        metavar="SECONDS",
        help="how long an open circuit waits before half-opening with one "
        "probe grid (default when armed: 30)",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help="before serving, finalize in-flight ledger records a killed "
        "predecessor never finished (outcome: lost)",
    )
    p.add_argument(
        "--ledger-durable",
        action="store_true",
        help="fsync the ledger on every append (crash-safe at the cost of "
        "a disk flush per record)",
    )
    p.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="arm the continuous sampling profiler at HZ samples/s and "
        "serve GET /v1/profile (off by default; ~97 is a good rate)",
    )
    p.set_defaults(spec=OP_REGISTRY["serve"])


def _cfg_loadtest(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "loadtest", help="fire concurrent submissions at a service and measure"
    )
    p.add_argument(
        "--requests", type=int, default=1000, help="total submissions to fire"
    )
    p.add_argument(
        "--concurrency", type=int, default=16, help="concurrent client threads"
    )
    p.add_argument(
        "--url",
        default=None,
        help="service base URL (default: start an in-process server)",
    )
    p.add_argument("--n", type=int, default=100, help="iterations per loop")
    p.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_perf.json",
        help="merge the service block into this JSON file (default: BENCH_perf.json)",
    )
    p.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject failure (repeatable): kill:every=K | "
        "slow:delay=D,every=K | corrupt:every=K | malformed:prob=F | "
        "oversize:prob=F | disconnect:prob=F.  Chaos mode boots its own "
        "resilient server and gates on zero malformed responses",
    )
    p.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the chaos plan's client-fault draws (default: 0)",
    )
    p.set_defaults(spec=OP_REGISTRY["loadtest"])


def _cfg_top(sub, ledger_flag) -> None:
    p = sub.add_parser(
        "top", help="one-line live view of a running service (polls /v1/metrics)"
    )
    p.add_argument(
        "url", help="service base URL, e.g. http://127.0.0.1:8757"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll cadence (default: 2.0)",
    )
    p.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="stop after N polls (default: 0 = until Ctrl-C)",
    )
    p.set_defaults(spec=OP_REGISTRY["top"])


# -- Namespace → typed-op adapters ---------------------------------------------


def _run_compile(args) -> OpResult:
    return compile_op(read_source(args.loop))


def _run_schedule(args) -> OpResult:
    return schedule_op(
        read_source(args.loop),
        scheduler=args.scheduler,
        issue=args.issue,
        fu=args.fu,
        n=args.n,
        gantt=args.gantt,
        pressure=args.pressure,
    )


def _run_modulo(args) -> OpResult:
    return modulo_op(read_source(args.loop), issue=args.issue, fu=args.fu, n=args.n)


def _run_simulate(args) -> OpResult:
    return simulate_op(
        read_source(args.loop),
        scheduler=args.scheduler,
        issue=args.issue,
        fu=args.fu,
        n=args.n,
        inject=args.inject,
        exact_sim=args.exact_sim,
        executor=args.executor,
        max_cycles=args.max_cycles,
    )


def _run_evaluate(args) -> OpResult:
    return evaluate_op(
        read_source(args.loop),
        issue=args.issue,
        fu=args.fu,
        n=args.n,
        exact_sim=args.exact_sim,
        as_json=args.json,
    )


def _run_fuzz(args) -> OpResult:
    return fuzz_op(cases=args.cases, seed=args.seed, executor_every=args.executor_every)


def _run_sweep(args) -> OpResult:
    return sweep_op(
        args.benchmarks,
        n=args.n,
        jobs=args.jobs,
        no_cache=args.no_cache,
        cache_file=args.cache_file,
        exact_sim=args.exact_sim,
        batch=args.batch,
        progress=args.progress,
    )


def _run_metrics(args) -> OpResult:
    return metrics_op(
        args.benchmarks,
        n=args.n,
        jobs=args.jobs,
        exact_sim=args.exact_sim,
        as_json=args.json,
    )


def _run_explain(args) -> OpResult:
    return explain_op(
        read_source(args.loop),
        scheduler=args.scheduler,
        issue=args.issue,
        fu=args.fu,
        fig4=args.fig4,
        n=args.n,
        op=args.op,
        pair=args.pair,
        timeline=args.timeline,
        timeline_n=args.timeline_n,
        html=args.html,
    )


def _run_bench(args) -> OpResult:
    command = args.bench_command
    if command == "record":
        return bench_record_op(args.history, suite=args.suite, n=args.n)
    if command == "list":
        return bench_list_op(args.history)
    if command == "diff":
        return bench_diff_op(args.history, args.run_a, args.run_b)
    return bench_check_op(
        args.history,
        suite=args.suite,
        baseline=args.baseline,
        wall_tolerance=args.wall_tolerance,
        repeats=args.repeats,
        profiles=args.profiles,
    )


def _run_prof(args) -> OpResult:
    command = args.prof_command
    if command == "record":
        return prof_record_op(
            args.profiles,
            suite=args.suite,
            n=args.n,
            hz=args.hz,
            min_seconds=args.min_seconds,
            svg=args.svg,
            label=args.label,
        )
    if command == "top":
        return prof_top_op(args.profiles, args.profile_id, limit=args.limit)
    return prof_diff_op(args.profiles, args.profile_a, args.profile_b, limit=args.limit)


def _run_dot(args) -> OpResult:
    return dot_op(read_source(args.loop), title=args.title)


def _run_runs(args) -> OpResult:
    command = args.runs_command
    if command == "list":
        return runs_list_op(args.ledger, inflight=args.inflight)
    if command == "show":
        return runs_show_op(args.ledger, args.run_id)
    return runs_diff_op(args.ledger, args.run_a, args.run_b, all_metrics=args.all_metrics)


def _run_dash(args) -> OpResult:
    return dash_op(
        out=args.out,
        history=args.history,
        no_walkthrough=args.no_walkthrough,
        ledger=args.ledger,
        live=args.live,
        refresh=args.refresh,
        profiles=args.profiles,
    )


def _run_serve(args) -> OpResult:
    from repro.service.server import serve_forever_op

    return serve_forever_op(
        host=args.host,
        port=args.port,
        ledger=args.ledger,
        coalesce_window=args.coalesce_window,
        access_log=args.access_log,
        flight_recorder=args.flight,
        max_queue_depth=args.max_queue_depth,
        max_inflight=args.max_inflight,
        deadline_s=args.deadline,
        chunk_timeout=args.chunk_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        recover=args.recover,
        ledger_durable=args.ledger_durable,
        profile_hz=args.profile_hz,
    )


def _run_loadtest(args) -> OpResult:
    from repro.service.loadtest import loadtest_op

    return loadtest_op(
        requests=args.requests,
        concurrency=args.concurrency,
        url=args.url,
        n=args.n,
        out=args.out,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
    )


def _run_top(args) -> OpResult:
    return top_op(url=args.url, interval=args.interval, count=args.count)


#: name → :class:`OpSpec`: THE registry.  The CLI's subparsers and help
#: epilogue, the server's op endpoints and its error bodies all derive
#: from this dict — add an operation here and both surfaces grow it.
OP_REGISTRY: dict[str, OpSpec] = {}


def _register(spec: OpSpec) -> None:
    OP_REGISTRY[spec.name] = spec


_register(OpSpec("compile", "compile a loop and print artifacts",
                 _cfg_compile, _run_compile, call=compile_op))
_register(OpSpec("schedule", "schedule a loop and simulate",
                 _cfg_schedule, _run_schedule, call=schedule_op))
_register(OpSpec("modulo", "software-pipeline a loop (extension)",
                 _cfg_modulo, _run_modulo, call=modulo_op))
_register(OpSpec("simulate", "simulate one loop, optionally under injected faults",
                 _cfg_simulate, _run_simulate, call=simulate_op))
_register(OpSpec("evaluate", "evaluate one loop with both schedulers (v7 record)",
                 _cfg_evaluate, _run_evaluate, call=evaluate_op))
_register(OpSpec("fuzz", "seeded differential fuzz: random loops x random fault plans",
                 _cfg_fuzz, _run_fuzz, call=fuzz_op))
_register(OpSpec("sweep", "Tables 2/3 over the Perfect corpora",
                 _cfg_sweep, _run_sweep, call=sweep_op))
_register(OpSpec("metrics", "run the Perfect sweep and print collected metrics",
                 _cfg_metrics, _run_metrics, call=metrics_op))
_register(OpSpec("explain", "why is op X at cycle c / why is pair S's span k",
                 _cfg_explain, _run_explain, call=explain_op))
_register(OpSpec("bench", "record / diff / check benchmark-regression history",
                 _cfg_bench, _run_bench))
_register(OpSpec("prof", "record / compare sampled CPU profiles (flame graphs)",
                 _cfg_prof, _run_prof))
_register(OpSpec("dot", "emit the DFG as Graphviz DOT",
                 _cfg_dot, _run_dot, call=dot_op))
_register(OpSpec("runs", "list / show / diff runs recorded in the ledger",
                 _cfg_runs, _run_runs, records=False))
_register(OpSpec("dash", "build the self-contained HTML dashboard",
                 _cfg_dash, _run_dash, call=dash_op, records=False))
_register(OpSpec("serve", "run the compilation service (HTTP, long-lived)",
                 _cfg_serve, _run_serve, http=False, records=False))
_register(OpSpec("loadtest", "fire concurrent submissions at a service and measure",
                 _cfg_loadtest, _run_loadtest, http=False, records=False))
_register(OpSpec("top", "one-line live view of a running service",
                 _cfg_top, _run_top, http=False, records=False))


def op_epilog() -> str:
    """The ``repro --help`` epilogue, generated from the registry.

    The CLI and the HTTP service list the same operations because both
    derive them from :data:`OP_REGISTRY` — there is no hand-maintained
    glue to drift.
    """
    width = max(len(name) for name in OP_REGISTRY)
    lines = ["operations (generated from repro.service.ops.OP_REGISTRY):"]
    for name, spec in OP_REGISTRY.items():
        lines.append(f"  {name:<{width}}  {spec.help}")
    lines.append(
        "\nthe same registry backs the HTTP service: `repro serve` exposes "
        "POST /v1/evaluate,\nPOST /v1/sweep, GET /v1/runs, GET /v1/healthz and "
        "POST /v1/op/<operation> (docs/service.md)."
    )
    return "\n".join(lines)


def run_op(name: str, args: argparse.Namespace) -> OpResult:
    """Dispatch one parsed invocation through the registry."""
    return OP_REGISTRY[name].run(args)
