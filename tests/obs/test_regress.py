"""The benchmark-regression tracker: history store, diff, and gates.

Cycle counts are exact gates (the pipeline is deterministic); wall-clock
is a thresholded gate that only applies between runs recorded on the
same machine fingerprint.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.obs.regress import (
    DEFAULT_WALL_TOLERANCE,
    BenchHistory,
    BenchPoint,
    BenchRun,
    check_run,
    collect_run,
    diff_runs,
    format_diff,
    suites,
)
from repro.schema import SCHEMA_VERSION


def _point(name="fig4@fig4-4issue", t_new=356):
    return BenchPoint(
        name=name,
        t_list=1201,
        t_new=t_new,
        l_list=13,
        l_new=13,
        spans_list=(13, 12),
        spans_new=(7, 0),
    )


def _run(run_id="aaaa", suite="fig", machine=None, wall_s=0.01, points=None, **kw):
    return BenchRun(
        run_id=run_id,
        timestamp=1700000000.0,
        git_sha="deadbeef" * 5,
        suite=suite,
        n=100,
        options_hash="e879e5da12d4",
        machine=machine if machine is not None else {"platform": "x", "python": "y"},
        points=tuple(points) if points is not None else (_point(),),
        wall_s=wall_s,
        **kw,
    )


class TestRoundTrip:
    def test_point_round_trips(self):
        point = _point()
        assert BenchPoint.from_dict(point.as_dict()) == point

    def test_run_round_trips_and_is_versioned(self):
        run = _run()
        record = run.as_dict()
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["kind"] == "bench_run"
        assert BenchRun.from_dict(record) == run


class TestHistory:
    def test_append_load_get_latest(self, tmp_path):
        history = BenchHistory(str(tmp_path / "hist.jsonl"))
        assert history.load() == []
        assert history.latest() is None
        first = _run(run_id="aaaa1111", suite="fig")
        second = _run(run_id="bbbb2222", suite="perfect")
        history.append(first)
        history.append(second)
        assert [r.run_id for r in history.load()] == ["aaaa1111", "bbbb2222"]
        assert history.get("aaaa").run_id == "aaaa1111"  # prefix lookup
        assert history.latest("fig").run_id == "aaaa1111"
        assert history.latest("perfect").run_id == "bbbb2222"
        assert history.latest().run_id == "bbbb2222"

    def test_get_unknown_and_ambiguous(self, tmp_path):
        history = BenchHistory(str(tmp_path / "hist.jsonl"))
        history.append(_run(run_id="abcd0001"))
        history.append(_run(run_id="abcd0002"))
        with pytest.raises(KeyError, match="no run"):
            history.get("ffff")
        with pytest.raises(KeyError, match="ambiguous"):
            history.get("abcd")

    def test_append_only_jsonl(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        history = BenchHistory(str(path))
        history.append(_run(run_id="aaaa1111"))
        history.append(_run(run_id="bbbb2222"))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["kind"] == "bench_run" for line in lines)

    def test_torn_tail_is_skipped_and_flagged(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        history = BenchHistory(str(path))
        history.append(_run(run_id="aaaa1111"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "bench_run", "run_id": "bb')  # killed mid-append
        assert [r.run_id for r in history.load()] == ["aaaa1111"]
        assert history.torn_tail == 1
        # `repro bench list` reports it instead of dying on a traceback
        assert main(["bench", "list", "--history", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "aaaa1111" in out
        assert "was torn" in err

    def test_load_skips_foreign_records(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(json.dumps({"kind": "note", "text": "hi"}) + "\n")
        history = BenchHistory(str(path))
        history.append(_run())
        assert len(history.load()) == 1


class TestDiff:
    def test_identical_runs_no_drift(self):
        diff = diff_runs(_run(run_id="a"), _run(run_id="b"))
        assert not diff.cycle_drift
        assert diff.wall_ratio == 1.0
        assert "identical" in format_diff(diff)

    def test_cycle_drift_detected_per_field(self):
        drifted = _run(run_id="b", points=[_point(t_new=357)])
        diff = diff_runs(_run(run_id="a"), drifted)
        assert diff.cycle_drift
        assert diff.point_diffs[0].field_deltas == {"t_new": (356, 357)}
        assert "t_new 356 -> 357" in format_diff(diff)

    def test_missing_and_added_points(self):
        old = _run(run_id="a", points=[_point("p1"), _point("p2")])
        new = _run(run_id="b", points=[_point("p2"), _point("p3")])
        diff = diff_runs(old, new)
        assert diff.missing == ["p1"] and diff.added == ["p3"]
        assert diff.cycle_drift

    def test_wall_not_compared_across_machines(self):
        diff = diff_runs(
            _run(run_id="a"), _run(run_id="b", machine={"platform": "other"})
        )
        assert diff.wall_ratio is None
        assert "machines differ" in format_diff(diff)


class TestCheckGates:
    def test_clean_pass(self):
        assert check_run(_run(run_id="a"), _run(run_id="b")) == []

    def test_cycle_drift_is_exact_gate(self):
        violations = check_run(_run(), _run(points=[_point(t_new=357)]))
        assert len(violations) == 1
        assert "t_new drifted 356 -> 357 (exact gate)" in violations[0]

    def test_span_drift_is_exact_gate(self):
        bad = dataclasses.replace(_point(), spans_new=(8, 0))
        violations = check_run(_run(), _run(points=[bad]))
        assert any("spans_new" in v and "exact gate" in v for v in violations)

    def test_wall_gate_thresholded_same_machine_only(self):
        base = _run(wall_s=0.01)
        slow = _run(wall_s=0.1)
        assert any("wall-clock regressed" in v for v in check_run(base, slow))
        # within tolerance: fine
        assert check_run(base, _run(wall_s=0.014)) == []
        # different machine: wall never gates
        other = _run(wall_s=0.1, machine={"platform": "other"})
        assert check_run(base, other) == []

    def test_suite_and_n_mismatch_short_circuit(self):
        assert "suite mismatch" in check_run(_run(suite="fig"), _run(suite="perfect"))[0]
        candidate = dataclasses.replace(_run(), n=50)
        assert "n mismatch" in check_run(_run(), candidate)[0]

    def test_options_hash_mismatch(self):
        candidate = dataclasses.replace(_run(), options_hash="0000deadbeef")
        assert any("options mismatch" in v for v in check_run(_run(), candidate))


class TestCollectRun:
    def test_fig_suite_matches_the_paper(self):
        run = collect_run("fig", n=100)
        assert run.suite == "fig" and len(run.points) == 1
        (point,) = run.points
        assert point.name == "fig4@fig4-4issue"
        assert point.t_list == 99 * 12 + 13  # Fig. 4a
        assert point.t_new == 49 * 7 + 13  # Fig. 4b
        assert point.l_list == point.l_new == 13
        assert point.spans_list == (13, 12)
        assert point.spans_new == (7, 0)

    def test_recording_twice_gives_identical_points(self):
        first = collect_run("fig", n=100)
        second = collect_run("fig", n=100)
        assert first.points == second.points
        assert first.options_hash == second.options_hash
        # The exact cycle gate alone: equal injected wall times keep the
        # (timing-dependent) wall gate out of this comparison.
        assert check_run(
            dataclasses.replace(first, wall_s=1.0),
            dataclasses.replace(second, wall_s=1.0),
        ) == []

    def test_wall_gate_on_recorded_runs(self):
        run = collect_run("fig", n=100)
        base = dataclasses.replace(run, wall_s=1.0)
        limit = 1.0 + DEFAULT_WALL_TOLERANCE
        assert check_run(base, dataclasses.replace(run, wall_s=limit - 0.01)) == []
        violations = check_run(base, dataclasses.replace(run, wall_s=limit + 0.01))
        assert len(violations) == 1
        assert "wall-clock regressed" in violations[0]

    def test_suites_selector(self):
        assert tuple(suites("all")) == ("fig", "perfect", "batch")
        assert tuple(suites("fig")) == ("fig",)
        assert tuple(suites("batch")) == ("batch",)
        with pytest.raises(ValueError, match="unknown suite"):
            list(suites("nope"))


class TestWallRepeats:
    def test_default_is_one_repeat(self):
        run = collect_run("fig", n=100)
        assert run.wall_repeats == 1

    def test_repeats_recorded_and_points_identical(self):
        run = collect_run("fig", n=100, repeats=3)
        assert run.wall_repeats == 3
        # repeats change only the wall measurement, never the points
        assert run.points == collect_run("fig", n=100).points

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            collect_run("fig", n=100, repeats=0)

    def test_round_trips_and_defaults_for_old_records(self):
        run = _run(wall_repeats=3)
        record = run.as_dict()
        assert record["wall_repeats"] == 3
        assert BenchRun.from_dict(record) == run
        # v9 records have no wall_repeats field: default to a single repeat
        legacy = dict(_run().as_dict())
        del legacy["wall_repeats"]
        assert BenchRun.from_dict(legacy).wall_repeats == 1
