"""The ``repro --profile`` stage table: recorded spans summed by stage."""

from __future__ import annotations

import pytest

import repro.perf.parallel as parallel_mod
from repro.cli import main
from repro.obs.export import stage_table, stage_totals
from repro.obs.ledger import RunLedger
from repro.obs.trace import (
    RecordingTracer,
    active_tracers,
    add_tracer,
    ingest_events,
    remove_tracer,
    span,
)
from repro.pipeline import compile_loop, evaluate_loop
from repro.sched import paper_machine

LOOP = "DO I = 1, 40\n A(I) = A(I-2) + X(I)\nENDDO"

#: The compile half of the pipeline: run once per loop a cache misses on,
#: so its call counts depend on how the sweep's caches were shared.
COMPILE_STAGES = {"compile", "parse", "deps", "sync", "lower", "dfg"}


@pytest.fixture
def recorder():
    tracer = RecordingTracer()
    add_tracer(tracer)
    yield tracer
    remove_tracer(tracer)


class TestStageProfiler:
    def test_records_seconds_and_calls(self, recorder):
        with span("work"):
            pass
        with span("work"):
            pass
        totals = stage_totals(recorder.events)
        assert totals["work"]["calls"] == 2
        assert totals["work"]["seconds"] >= 0.0

    def test_merge_folds_workers_in(self, recorder):
        worker = RecordingTracer()
        add_tracer(worker)
        try:
            with span("x"):
                pass
        finally:
            remove_tracer(worker)
        with span("x"):
            pass
        with span("y"):
            pass
        # what ParallelEvaluator does with a worker's shipped-back events
        ingest_events(worker.events)
        totals = stage_totals(recorder.events)
        assert {name: entry["calls"] for name, entry in totals.items()} == {
            "x": 3,
            "y": 1,
        }

    def test_format_lists_stages(self, recorder):
        with span("schedule"):
            pass
        text = stage_table(recorder.events)
        assert text.splitlines()[0].split() == ["stage", "calls", "seconds", "share"]
        assert "schedule" in text and "total" in text

    def test_format_empty(self):
        assert stage_table([]) == "no stages recorded"

    def test_records_exception_time(self, recorder):
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        assert stage_totals(recorder.events)["boom"]["calls"] == 1

    def test_as_dict_shape(self, recorder):
        with span("s"):
            pass
        assert set(stage_totals(recorder.events)["s"]) == {"seconds", "calls"}


class TestGlobalHook:
    def test_enable_then_disable(self, tmp_path, capsys):
        loop_file = tmp_path / "loop.f"
        loop_file.write_text(LOOP)
        before = active_tracers()
        assert main(["--profile", "compile", str(loop_file)]) == 0
        err = capsys.readouterr().err
        assert "== pipeline stage profile ==" in err
        assert "parse" in err
        # the CLI's recorder is uninstalled again once the command returns
        assert active_tracers() == before

    def test_pipeline_stages_reported(self, recorder):
        compiled = compile_loop(LOOP)
        evaluate_loop(compiled, paper_machine(4, 1), n=40)
        totals = stage_totals(recorder.events)
        for stage in ("parse", "deps", "sync", "lower", "dfg", "schedule", "verify", "simulate"):
            assert totals[stage]["calls"] >= 1, stage

    def test_disabled_pipeline_records_nothing(self):
        idle = RecordingTracer()  # never installed
        compile_loop(LOOP)
        assert idle.events == []


def _profile_counts(capsys, argv: list[str]) -> dict[str, int]:
    """Run ``repro --profile ARGV``; the stage table's calls per stage."""
    assert main(["--profile"] + argv) == 0
    err = capsys.readouterr().err
    table = err.split("== pipeline stage profile ==\n", 1)[1]
    counts = {}
    for row in table.splitlines()[1:]:
        name, calls, *_rest = row.split()
        if name != "total":
            counts[name] = int(calls)
    return counts


class TestPooledProfile:
    def test_jobs_2_reports_the_stages_of_jobs_1(self, monkeypatch, capsys, tmp_path):
        """Worker spans reach the table through the pool's event merge."""
        # Force the pool whatever the calibration probe measures, and start
        # the forked workers with empty caches.
        monkeypatch.setattr(parallel_mod, "calibrate_min_pool_work", lambda per_eval_s: 0)
        monkeypatch.setattr(parallel_mod, "_WORKER_CACHE", None)
        ledger = str(tmp_path / "ledger.jsonl")
        serial = _profile_counts(capsys, ["sweep", "--n", "20"])
        pooled = _profile_counts(
            capsys, ["sweep", "--n", "20", "--jobs", "2", "--ledger", ledger]
        )
        (record,) = RunLedger(ledger).load()
        assert record.mode.startswith("pool[2 worker(s)")
        assert set(pooled) == set(serial)
        for stage, calls in serial.items():
            if stage in COMPILE_STAGES:
                # each worker keeps its own compile cache: every loop is
                # compiled at least once and at most once per machine
                assert calls <= pooled[stage] <= serial["evaluate_loop"], stage
            else:
                assert pooled[stage] == calls, stage
