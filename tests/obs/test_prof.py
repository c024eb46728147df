"""The continuous sampling profiler: records, diffs, flames, sampling.

Sample *counts* are wall-clock draws and non-deterministic, so every
assertion here is structural: synthetic ``Profile`` fixtures exercise
the deterministic aggregation/diff/render paths, and the live-sampler
tests drive :meth:`Profiler.sample_once` directly (one deterministic
sample per call) instead of racing the daemon thread.
"""

import threading
import time

import pytest

from repro.obs.prof import (
    DEFAULT_HZ,
    UNATTRIBUTED_STAGE,
    FrameDelta,
    Profile,
    ProfileStore,
    Profiler,
    active_sampler,
    diff_profiles,
    flamegraph_svg,
    folded_lines,
    format_profile_diff,
    frame_stats,
    profile_top_table,
    reset_after_fork,
    start_sampler,
    stop_sampler,
)
from repro.obs.trace import add_tracer, remove_tracer, span
from repro.schema import SCHEMA_VERSION, dump_line, parse_line


def make_profile(folded, stages=None, samples=None, **kwargs):
    total = sum(folded.values())
    defaults = dict(
        timestamp=1700000000.0,
        hz=97.0,
        duration_s=1.0,
        samples=samples if samples is not None else total,
        folded=folded,
        stages=stages or {UNATTRIBUTED_STAGE: total},
    )
    defaults.update(kwargs)
    return Profile(**defaults)


class TestProfileRecord:
    def test_stamped_as_profile_kind(self):
        record = make_profile({"a:f;b:g": 3}).as_dict()
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["kind"] == "profile"

    def test_round_trips_through_schema_writer(self):
        profile = make_profile({"a:f;b:g": 3, "a:f": 1}, suite="fig", label="x")
        line = dump_line(profile.as_dict())
        again = Profile.from_dict(parse_line(line))
        assert again == profile
        assert again.profile_id == profile.profile_id

    def test_profile_id_ignores_label(self):
        a = make_profile({"a:f": 2}, label="one")
        b = make_profile({"a:f": 2}, label="two")
        assert a.profile_id == b.profile_id

    def test_profile_id_tracks_samples(self):
        a = make_profile({"a:f": 2})
        b = make_profile({"a:f": 3})
        assert a.profile_id != b.profile_id


class TestFrameStats:
    def test_self_counts_leaves_total_counts_presence(self):
        stats = frame_stats(make_profile({"a:main;b:hot": 7, "a:main": 3}))
        assert stats["b:hot"].self_samples == 7
        assert stats["b:hot"].total_samples == 7
        assert stats["a:main"].self_samples == 3
        assert stats["a:main"].total_samples == 10

    def test_recursion_does_not_inflate_totals(self):
        stats = frame_stats(make_profile({"a:f;a:f;a:f": 5}))
        assert stats["a:f"].self_samples == 5
        assert stats["a:f"].total_samples == 5  # once per stack, not thrice

    def test_folded_lines_hottest_first(self):
        profile = make_profile({"a:cold": 1, "a:hot": 9, "a:warm": 3})
        assert folded_lines(profile) == ["a:hot 9", "a:warm 3", "a:cold 1"]

    def test_top_table_names_hot_frame_and_stages(self):
        table = profile_top_table(
            make_profile({"a:main;b:hot": 9, "a:main": 1}, stages={"parse": 10})
        )
        assert "b:hot" in table
        assert "90.0%" in table
        assert "parse" in table

    def test_top_table_prints_requested_and_achieved_rate(self):
        # 134 samples in 2 s against 499 hz asked: the GIL-paced sampler.
        table = profile_top_table(
            make_profile({"a:f": 134}, hz=499.0, duration_s=2.0)
        )
        assert "at 499 hz requested, 67/s achieved" in table

    def test_achieved_rate_of_an_empty_interval(self):
        table = profile_top_table(make_profile({"a:f": 1}, duration_s=0.0))
        assert "n/a achieved" in table


class TestDiff:
    def test_names_top_regressed_frame(self):
        old = make_profile({"a:main;b:fast": 8, "a:main;c:slow": 2})
        new = make_profile({"a:main;b:fast": 2, "a:main;c:slow": 8})
        lines = format_profile_diff(old, new)
        assert any(
            line.startswith("top regressed frame: c:slow") for line in lines
        )

    def test_shares_not_raw_counts(self):
        # Twice the samples but identical shape: nothing regressed.
        old = make_profile({"a:f": 5, "a:g": 5})
        new = make_profile({"a:f": 10, "a:g": 10})
        deltas = diff_profiles(old, new)
        assert all(abs(d.self_delta) < 1e-9 for d in deltas)
        lines = format_profile_diff(old, new)
        assert any("top regressed frame: none" in line for line in lines)

    def test_frames_unique_to_one_side_still_diff(self):
        old = make_profile({"a:gone": 4})
        new = make_profile({"a:fresh": 4})
        by_name = {d.name: d for d in diff_profiles(old, new)}
        assert by_name["a:fresh"].self_delta == pytest.approx(1.0)
        assert by_name["a:gone"].self_delta == pytest.approx(-1.0)

    def test_delta_properties(self):
        delta = FrameDelta("x", 0.25, 0.75, 0.5, 1.0)
        assert delta.self_delta == pytest.approx(0.5)
        assert delta.total_delta == pytest.approx(0.5)


class TestFlameGraph:
    def test_self_contained_svg_with_tooltips(self):
        svg = flamegraph_svg(make_profile({"a:main;b:hot": 9, "a:main": 1}))
        assert svg.startswith("<svg xmlns=")
        assert svg.endswith("</svg>")
        assert "<title>" in svg  # hover tooltips carry exact counts
        assert "a:main" in svg

    def test_escapes_hostile_frame_names(self):
        svg = flamegraph_svg(make_profile({'m:<evil>&"f': 5}))
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg

    def test_subtitle_prints_requested_and_achieved_rate(self):
        svg = flamegraph_svg(make_profile({"a:f": 155}, hz=997.0, duration_s=1.0))
        assert "997 hz requested · 155/s achieved" in svg

    def test_title_override(self):
        svg = flamegraph_svg(make_profile({"a:f": 1}), title="custom heading")
        assert "custom heading" in svg


class TestProfileStore:
    def test_append_load_round_trip(self, tmp_path):
        store = ProfileStore(str(tmp_path / "p.jsonl"))
        profile = make_profile({"a:f": 2}, suite="fig")
        store.append(profile)
        assert store.load() == [profile]

    def test_get_by_prefix_and_ambiguity(self, tmp_path):
        store = ProfileStore(str(tmp_path / "p.jsonl"))
        a = make_profile({"a:f": 2})
        b = make_profile({"a:g": 5})
        store.append(a)
        store.append(b)
        assert store.get(a.profile_id[:6]) == a
        with pytest.raises(KeyError, match="no profile"):
            store.get("zzzzzz")
        with pytest.raises(KeyError, match="ambiguous"):
            store.get("")  # empty prefix matches both

    def test_latest_filters_by_suite(self, tmp_path):
        store = ProfileStore(str(tmp_path / "p.jsonl"))
        fig = make_profile({"a:f": 1}, suite="fig")
        batch = make_profile({"a:g": 1}, suite="batch")
        store.append(fig)
        store.append(batch)
        assert store.latest() == batch
        assert store.latest("fig") == fig
        assert store.latest("perfect") is None

    def test_missing_store_loads_empty(self, tmp_path):
        assert ProfileStore(str(tmp_path / "absent.jsonl")).load() == []

    def test_torn_tail_is_skipped_and_flagged(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.jsonl"
        store = ProfileStore(str(path))
        profile = make_profile({"a:f": 2}, suite="fig")
        store.append(profile)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "profile", "folded": {"a:f')  # killed mid-append
        assert store.load() == [profile]
        assert store.torn_tail == 1
        # `repro prof top` reports it instead of dying on a traceback
        assert main(["prof", "top", "--profiles", str(path)]) == 0
        out, err = capsys.readouterr()
        assert profile.profile_id in out
        assert "was torn" in err


class TestProfiler:
    def test_rejects_non_positive_hz(self):
        with pytest.raises(ValueError, match="hz"):
            Profiler(0)
        with pytest.raises(ValueError, match="hz"):
            Profiler(-5)

    def test_sample_once_is_deterministic_per_call(self):
        profiler = Profiler(DEFAULT_HZ)
        before = profiler.snapshot().samples
        profiler.sample_once()
        profiler.sample_once()
        after = profiler.snapshot()
        # Every live thread is sampled exactly once per call.
        assert after.samples == before + 2 * len(
            {t.ident for t in threading.enumerate()}
        )
        assert after.folded  # this very test frame is on some stack

    def test_stage_attribution_rides_the_span_seam(self):
        profiler = Profiler(DEFAULT_HZ)
        add_tracer(profiler)
        try:
            with span("outer"):
                with span("inner"):
                    profiler.sample_once()
            profiler.sample_once()
        finally:
            remove_tracer(profiler)
        stages = profiler.snapshot().stages
        # Innermost open span wins; post-span samples are unattributed.
        assert stages.get("inner", 0) >= 1
        assert "outer" not in stages or stages["outer"] == 0
        assert stages.get(UNATTRIBUTED_STAGE, 0) >= 1

    def test_thread_samples_attributes_to_the_sampled_thread(self):
        profiler = Profiler(DEFAULT_HZ)
        profiler.sample_once()
        assert profiler.thread_samples(threading.get_ident()) == 1
        assert profiler.thread_samples(123456789) == 0

    def test_daemon_sampler_collects_and_stop_freezes_duration(self):
        profiler = Profiler(hz=250.0)
        profiler.start_sampling()
        assert profiler.sampling
        deadline = time.monotonic() + 5.0
        while profiler.snapshot().samples == 0:
            assert time.monotonic() < deadline, "sampler thread never fired"
            time.sleep(0.01)
        profile = profiler.stop_sampling()
        assert not profiler.sampling
        assert profile.samples > 0
        assert profile.duration_s > 0
        time.sleep(0.02)
        assert profiler.snapshot().duration_s == pytest.approx(
            profile.duration_s
        )

    def test_start_twice_raises(self):
        profiler = Profiler(hz=500.0)
        profiler.start_sampling()
        try:
            with pytest.raises(RuntimeError, match="already sampling"):
                profiler.start_sampling()
        finally:
            profiler.stop_sampling()

    def test_merge_profile_folds_counts_and_duration(self):
        profiler = Profiler(DEFAULT_HZ)
        profiler.merge_profile(make_profile({"w:loop": 4}, duration_s=2.0))
        profiler.merge_profile(make_profile({"w:loop": 6}, duration_s=3.0))
        merged = profiler.snapshot()
        assert merged.folded == {"w:loop": 10}
        assert merged.samples == 10
        assert merged.duration_s == pytest.approx(5.0)


class TestGlobalSamplerSlot:
    def test_off_by_default(self):
        assert active_sampler() is None
        assert stop_sampler() is None  # disarming a disarmed slot is a no-op

    def test_start_stop_lifecycle(self):
        sampler = start_sampler(hz=500.0)
        try:
            assert active_sampler() is sampler
            assert sampler.sampling
        finally:
            profile = stop_sampler()
        assert active_sampler() is None
        assert not sampler.sampling
        assert profile is not None

    def test_reset_after_fork_detaches_without_joining(self):
        sampler = start_sampler(hz=500.0)
        reset_after_fork()
        assert active_sampler() is None
        sampler.stop_sampling()  # cleanup; a real fork's thread is dead


class TestBusySamples:
    def test_idle_leaves_excluded(self):
        from repro.obs.prof import IDLE_LEAVES, busy_samples

        folded = {
            "repro.sim:walk": 5,
            "a:run;repro.sched:place": 3,
            "a:run;threading:wait": 900,          # parked handler
            "b:serve;selectors:select": 70,       # listener poll
            "c:join;threading:_wait_for_tstate_lock": 10,
            "d:drain;queue:get": 4,
        }
        assert busy_samples(folded) == 8
        # only the LEAF decides: a busy frame above a wait is still idle
        assert "threading:wait" in IDLE_LEAVES

    def test_wait_in_the_middle_of_a_stack_is_busy(self):
        from repro.obs.prof import busy_samples

        # a frame *named* wait that is not the leaf does not park the stack
        assert busy_samples({"threading:wait;repro.sim:walk": 2}) == 2

    def test_empty_folded(self):
        from repro.obs.prof import busy_samples

        assert busy_samples({}) == 0
