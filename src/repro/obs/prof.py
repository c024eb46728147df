"""Continuous sampling CPU profiler: collapsed stacks, flame graphs, diffs.

The ``repro --profile`` stage table buckets coarse per-stage wall clock and the
``service.*`` telemetry stops at request latency — neither can say *which
function* regressed when ``repro bench check`` trips its wall-clock gate.
This module closes that gap with a zero-dependency sampling profiler:

* :class:`Profiler` — a daemon thread that samples
  ``sys._current_frames()`` at a configurable hz and aggregates each
  thread's stack into **collapsed (folded) form** (``mod:fn;mod:fn;...``,
  root first — the format every flame-graph tool speaks).  Default off;
  the disabled cost of instrumented code is one module-global read, the
  same discipline as :func:`repro.obs.trace.span`.  The profiler is also
  a :class:`~repro.obs.trace.Tracer`: installed via
  :func:`~repro.obs.trace.add_tracer` it rides the existing span seam and
  attributes every sample to the innermost open pipeline stage.
* :class:`Profile` — the immutable, schema-stamped sample aggregate
  (``kind: "profile"``, schema v10) with per-frame self/total counts
  (:func:`frame_stats`), folded-line export (:func:`folded_lines`), a
  terminal top table (:func:`profile_top_table`) and a self-contained
  SVG flame graph (:func:`flamegraph_svg` — same zero-dependency style
  as ``timeline_html``, embedded by ``repro dash`` and served by
  ``GET /v1/profile?format=svg``).
* :func:`diff_profiles` / :func:`format_profile_diff` — per-frame deltas
  between two profiles as *shares* of their own sample totals, naming
  the top regressed frames (``repro prof diff``, and the automatic
  attribution block ``repro bench check`` attaches when the wall gate
  trips).
* :class:`ProfileStore` — append-only JSONL persistence (one stamped
  ``profile`` record per line), mirroring ``BenchHistory``.

Sample counts are wall-clock samples per thread, so like the ``robust.*``
metrics they are **non-deterministic** — never gate on them, only on the
names they surface.  Worker processes in
:class:`repro.perf.parallel.ParallelEvaluator` run their own sampler and
ship the folded stacks back for :meth:`Profiler.merge_profile`.
"""

from __future__ import annotations

import hashlib
import html
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.schema import read_records, stamped
from repro.obs.trace import Tracer, add_tracer, remove_tracer

__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_PROFILES",
    "FrameDelta",
    "FrameStat",
    "IDLE_LEAVES",
    "MAX_STACK_DEPTH",
    "Profile",
    "ProfileStore",
    "Profiler",
    "UNATTRIBUTED_STAGE",
    "active_sampler",
    "busy_samples",
    "diff_profiles",
    "flamegraph_svg",
    "folded_lines",
    "format_profile_diff",
    "frame_stats",
    "profile_top_table",
    "reset_after_fork",
    "start_sampler",
    "stop_sampler",
]

#: Default sampling rate.  Prime, so the sampler does not beat against
#: periodic work; ~100 hz keeps armed overhead well under the 5% budget.
DEFAULT_HZ = 97.0

#: Frames deeper than this are truncated (runaway recursion guard).
MAX_STACK_DEPTH = 128

#: Stage label for samples taken while no pipeline span is open.
UNATTRIBUTED_STAGE = "(unattributed)"

#: Default on-disk profile store, next to the run ledger.
DEFAULT_PROFILES = os.path.join(".repro", "profiles.jsonl")


# ``mod:fn`` label per code object, memoized: the same few hundred code
# objects recur every sample, and skipping the per-frame dict lookup +
# string format keeps armed overhead inside the <5% budget.  (A code
# object exec'd under two module dicts keeps its first label — an
# acceptable approximation for profile labels.)
_FRAME_NAMES: dict[Any, str] = {}


def _collapse(frame: Any) -> str:
    """One thread's stack in folded form: ``mod:fn;mod:fn``, root first."""
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        name = _FRAME_NAMES.get(code)
        if name is None:
            module = frame.f_globals.get("__name__", "?")
            name = _FRAME_NAMES[code] = f"{module}:{code.co_name}"
        parts.append(name)
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


@dataclass(frozen=True)
class Profile:
    """An immutable aggregate of samples — the ``profile`` record (v10).

    ``folded`` maps collapsed stacks (root-first, ``;``-joined) to sample
    counts; ``stages`` maps pipeline-stage names (from the span seam) to
    the samples taken while that stage was the innermost open span.
    """

    timestamp: float
    hz: float
    duration_s: float
    samples: int
    folded: dict[str, int]
    stages: dict[str, int]
    label: str = ""
    suite: str | None = None

    @property
    def profile_id(self) -> str:
        """Content hash of the sample payload (stable across reload)."""
        payload = json.dumps(
            [self.timestamp, self.hz, self.samples, sorted(self.folded.items())],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "profile_id": self.profile_id,
            "timestamp": self.timestamp,
            "hz": self.hz,
            "duration_s": self.duration_s,
            "samples": self.samples,
            "folded": dict(sorted(self.folded.items())),
            "stages": dict(sorted(self.stages.items())),
            "label": self.label,
            "suite": self.suite,
        }
        return stamped("profile", record)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Profile":
        return cls(
            timestamp=float(data["timestamp"]),
            hz=float(data["hz"]),
            duration_s=float(data["duration_s"]),
            samples=int(data["samples"]),
            folded={str(k): int(v) for k, v in data.get("folded", {}).items()},
            stages={str(k): int(v) for k, v in data.get("stages", {}).items()},
            label=str(data.get("label", "")),
            suite=data.get("suite"),
        )


@dataclass(frozen=True)
class FrameStat:
    """Per-frame sample counts: ``self`` (on top) and ``total`` (on stack)."""

    name: str
    self_samples: int
    total_samples: int


def frame_stats(profile: Profile) -> dict[str, FrameStat]:
    """Per-frame self/total counts over a profile's folded stacks.

    ``self`` counts samples where the frame was the leaf (executing);
    ``total`` counts samples where it appeared anywhere on the stack
    (each stack counts a frame at most once, so recursion does not
    inflate totals past ``profile.samples``).
    """
    selfs: dict[str, int] = {}
    totals: dict[str, int] = {}
    for stack, count in profile.folded.items():
        frames = stack.split(";") if stack else []
        if not frames:
            continue
        leaf = frames[-1]
        selfs[leaf] = selfs.get(leaf, 0) + count
        for name in set(frames):
            totals[name] = totals.get(name, 0) + count
    return {
        name: FrameStat(name, selfs.get(name, 0), totals.get(name, 0))
        for name in totals
    }


#: Leaf frames that mean "blocked, not burning CPU": the stdlib Python
#: wrappers around the C blocking primitives (condition waits, thread
#: joins, selector polls).  ``sys._current_frames()`` is a wall-clock
#: sampler — it sees every thread, parked or not — so consumers that
#: want *busy* time (the ``repro top`` cpu column) subtract these.
#: The flame graph keeps every sample: where threads wait is signal.
IDLE_LEAVES = frozenset(
    {
        "threading:wait",
        "threading:_wait_for_tstate_lock",
        "selectors:select",
        "queue:get",
    }
)


def busy_samples(folded: dict[str, int]) -> int:
    """Samples whose leaf frame is not a known blocking primitive."""
    return sum(
        count
        for stack, count in folded.items()
        if stack.rsplit(";", 1)[-1] not in IDLE_LEAVES
    )


def folded_lines(profile: Profile) -> list[str]:
    """``"stack count"`` lines, the interchange format flame tools read."""
    return [
        f"{stack} {count}"
        for stack, count in sorted(
            profile.folded.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def _achieved_hz(profile: Profile) -> str:
    """The rate the sampler actually reached, ``samples / duration_s``.

    It can fall far below the requested ``hz``: the sampler thread needs
    the interpreter lock, so on a CPU-bound run it wakes at the lock's
    switch interval at best.
    """
    if profile.duration_s <= 0:
        return "n/a"
    return f"{profile.samples / profile.duration_s:.0f}/s"


def profile_top_table(profile: Profile, limit: int = 15) -> str:
    """A terminal table of the hottest frames by self samples."""
    stats = sorted(
        frame_stats(profile).values(),
        key=lambda s: (-s.self_samples, -s.total_samples, s.name),
    )[:limit]
    total = max(profile.samples, 1)
    lines = [
        f"profile {profile.profile_id}"
        + (f" suite={profile.suite}" if profile.suite else "")
        + (f" label={profile.label}" if profile.label else ""),
        f"  {profile.samples} sample(s) over {profile.duration_s:.2f}s"
        f" at {profile.hz:g} hz requested, {_achieved_hz(profile)} achieved",
        f"  {'self':>6} {'self%':>7} {'total%':>7}  frame",
    ]
    for stat in stats:
        lines.append(
            f"  {stat.self_samples:>6}"
            f" {100.0 * stat.self_samples / total:>6.1f}%"
            f" {100.0 * stat.total_samples / total:>6.1f}%"
            f"  {stat.name}"
        )
    if profile.stages:
        lines.append("  stages:")
        for stage, count in sorted(
            profile.stages.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"    {count:>6} {100.0 * count / total:>6.1f}%  {stage}")
    return "\n".join(lines)


@dataclass(frozen=True)
class FrameDelta:
    """One frame's change between two profiles, as shares of samples.

    Shares (``self / samples``) rather than raw counts, so profiles with
    different durations or rates compare fairly.
    """

    name: str
    self_share_old: float
    self_share_new: float
    total_share_old: float
    total_share_new: float

    @property
    def self_delta(self) -> float:
        return self.self_share_new - self.self_share_old

    @property
    def total_delta(self) -> float:
        return self.total_share_new - self.total_share_old


def diff_profiles(old: Profile, new: Profile) -> list[FrameDelta]:
    """Per-frame share deltas, most-regressed (self time grew) first."""
    old_stats = frame_stats(old)
    new_stats = frame_stats(new)
    old_total = max(old.samples, 1)
    new_total = max(new.samples, 1)
    deltas = []
    for name in sorted(set(old_stats) | set(new_stats)):
        o = old_stats.get(name)
        n = new_stats.get(name)
        deltas.append(
            FrameDelta(
                name=name,
                self_share_old=(o.self_samples / old_total) if o else 0.0,
                self_share_new=(n.self_samples / new_total) if n else 0.0,
                total_share_old=(o.total_samples / old_total) if o else 0.0,
                total_share_new=(n.total_samples / new_total) if n else 0.0,
            )
        )
    deltas.sort(key=lambda d: (-d.self_delta, -d.total_delta, d.name))
    return deltas


def format_profile_diff(
    old: Profile, new: Profile, limit: int = 10
) -> list[str]:
    """Human-readable diff lines naming the top regressed frames."""
    deltas = diff_profiles(old, new)
    lines = [
        f"profile diff {old.profile_id} -> {new.profile_id}"
        f" ({old.samples} -> {new.samples} samples)"
    ]
    regressed = [d for d in deltas if d.self_delta > 0]
    improved = [d for d in deltas if d.self_delta < 0]
    if regressed:
        top = regressed[0]
        lines.append(
            f"top regressed frame: {top.name}"
            f" (self {100.0 * top.self_share_old:.1f}%"
            f" -> {100.0 * top.self_share_new:.1f}%,"
            f" {100.0 * top.self_delta:+.1f} pt)"
        )
    else:
        lines.append("top regressed frame: none (no frame gained self share)")
    shown = regressed[:limit] + list(reversed(improved[-limit:]))
    if shown:
        lines.append(f"  {'self old':>9} {'self new':>9} {'delta':>8}  frame")
    for d in shown:
        lines.append(
            f"  {100.0 * d.self_share_old:>8.1f}%"
            f" {100.0 * d.self_share_new:>8.1f}%"
            f" {100.0 * d.self_delta:>+7.1f}p"
            f"  {d.name}"
        )
    return lines


class Profiler(Tracer):
    """Daemon-thread sampler over ``sys._current_frames()``.

    Also a :class:`~repro.obs.trace.Tracer`: install it with
    :func:`~repro.obs.trace.add_tracer` and every ``span()`` push/pop
    maintains a per-thread stage stack, so each sample is attributed to
    the innermost open pipeline stage (``stages`` on the profile).

    All counters live behind one lock; :meth:`snapshot` is safe while
    sampling continues (the service serves live profiles this way).
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling hz must be positive, got {hz!r}")
        self.hz = float(hz)
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._folded: dict[str, int] = {}
        self._stages: dict[str, int] = {}
        self._thread_samples: dict[int, int] = {}
        self._samples = 0
        self._merged_duration = 0.0
        # defaultdict: start() runs on every span of every traced thread,
        # so the per-call cost must stay at one C-level dict hit.
        self._stage_stacks: dict[int, list[str]] = defaultdict(list)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # -- Tracer interface: ride the span seam for stage attribution ----
    def start(self, name: str, attrs: dict[str, Any] | None) -> Any:
        self._stage_stacks[threading.get_ident()].append(name)
        return None

    def finish(self, name: str, token: Any, attrs: dict[str, Any] | None) -> None:
        stack = self._stage_stacks.get(threading.get_ident())
        if stack and stack[-1] == name:
            stack.pop()

    # -- sampling lifecycle --------------------------------------------
    @property
    def sampling(self) -> bool:
        return self._thread is not None

    def start_sampling(self) -> "Profiler":
        if self._thread is not None:
            raise RuntimeError("profiler is already sampling")
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop_sampling(self) -> Profile:
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        if self._started_at is not None:
            # Freeze the wall clock: snapshots after stop stay constant.
            with self._lock:
                self._merged_duration += time.perf_counter() - self._started_at
            self._started_at = None
        return self.snapshot()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one sample of every thread but the sampler's own.

        Called from the sampler thread; also callable directly (tests,
        deterministic one-shot sampling) — then no thread is skipped.
        """
        sampler = self._thread
        skip = sampler.ident if sampler is not None else None
        frames = sys._current_frames()
        with self._lock:
            for tid, frame in frames.items():
                if tid == skip:
                    continue
                stack = self._stage_stacks.get(tid)
                stage = stack[-1] if stack else UNATTRIBUTED_STAGE
                folded = _collapse(frame)
                self._folded[folded] = self._folded.get(folded, 0) + 1
                self._stages[stage] = self._stages.get(stage, 0) + 1
                self._thread_samples[tid] = self._thread_samples.get(tid, 0) + 1
                self._samples += 1
            return self._samples

    # -- aggregates ----------------------------------------------------
    def thread_samples(self, thread_id: int) -> int:
        """Samples attributed so far to one thread (per-request CPU)."""
        with self._lock:
            return self._thread_samples.get(thread_id, 0)

    def merge_profile(self, profile: Profile) -> None:
        """Fold a worker profile's stacks into this sampler's aggregate.

        Used by :class:`repro.perf.parallel.ParallelEvaluator` to merge
        worker-lane samples into the parent profile.  Durations add;
        per-thread counts do not cross the process boundary.
        """
        with self._lock:
            for stack, count in profile.folded.items():
                self._folded[stack] = self._folded.get(stack, 0) + count
            for stage, count in profile.stages.items():
                self._stages[stage] = self._stages.get(stage, 0) + count
            self._samples += profile.samples
            self._merged_duration += profile.duration_s

    def snapshot(self, label: str = "", suite: str | None = None) -> Profile:
        elapsed = 0.0
        if self._started_at is not None:
            elapsed = time.perf_counter() - self._started_at
        with self._lock:
            return Profile(
                timestamp=time.time(),
                hz=self.hz,
                duration_s=elapsed + self._merged_duration,
                samples=self._samples,
                folded=dict(self._folded),
                stages=dict(self._stages),
                label=label,
                suite=suite,
            )


# -- the module-global sampler slot (the one read `span` already pays) --

_SAMPLER: Profiler | None = None


def active_sampler() -> Profiler | None:
    """The process-wide sampler, or ``None`` when profiling is off."""
    return _SAMPLER


def start_sampler(hz: float = DEFAULT_HZ) -> Profiler:
    """Arm the process-wide sampler (replacing any already running)."""
    global _SAMPLER
    stop_sampler()
    sampler = Profiler(hz)
    add_tracer(sampler)  # stage attribution rides the existing span seam
    sampler.start_sampling()
    _SAMPLER = sampler
    return sampler


def stop_sampler() -> Profile | None:
    """Disarm the process-wide sampler; return its final profile."""
    global _SAMPLER
    sampler, _SAMPLER = _SAMPLER, None
    if sampler is None:
        return None
    remove_tracer(sampler)
    return sampler.stop_sampling()


def reset_after_fork() -> None:
    """Detach a fork-inherited sampler (its thread died with the parent).

    Worker processes call this before arming their own sampler, so the
    parent's (dead) sampler neither traces worker spans nor leaks into
    the worker's global slot.
    """
    global _SAMPLER
    sampler, _SAMPLER = _SAMPLER, None
    if sampler is not None:
        remove_tracer(sampler)


# -- persistence -------------------------------------------------------


class ProfileStore:
    """Append-only JSONL store of ``profile`` records (like BenchHistory)."""

    def __init__(self, path: str = DEFAULT_PROFILES) -> None:
        self.path = path
        #: 1 when the most recent :meth:`load` found a torn final line.
        self.torn_tail = 0

    def append(self, profile: Profile) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(profile.as_dict(), sort_keys=True) + "\n")

    def load(self) -> list[Profile]:
        """Every ``profile`` record, oldest first (unreadable lines
        skipped, a torn final line flagged on :attr:`torn_tail`)."""
        data, torn = read_records(self.path, "profile")
        self.torn_tail = int(torn)
        return [Profile.from_dict(record) for record in data]

    def get(self, profile_id: str) -> Profile:
        """Look up by id prefix (unique match required)."""
        matches = [
            p for p in self.load() if p.profile_id.startswith(profile_id)
        ]
        if not matches:
            raise KeyError(f"no profile with id {profile_id!r} in {self.path}")
        if len(matches) > 1:
            ids = ", ".join(p.profile_id for p in matches)
            raise KeyError(f"profile id {profile_id!r} is ambiguous: {ids}")
        return matches[0]

    def latest(self, suite: str | None = None) -> Profile | None:
        profiles = self.load()
        if suite is not None:
            profiles = [p for p in profiles if p.suite == suite]
        return profiles[-1] if profiles else None


# -- flame graph -------------------------------------------------------


class _FlameNode:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.children: dict[str, _FlameNode] = {}


def _flame_tree(folded: dict[str, int]) -> _FlameNode:
    root = _FlameNode("all")
    for stack, count in folded.items():
        frames = stack.split(";") if stack else []
        root.value += count
        node = root
        for name in frames:
            child = node.children.get(name)
            if child is None:
                child = node.children[name] = _FlameNode(name)
            child.value += count
    return root


def _flame_color(name: str) -> str:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    hue = 12 + digest[0] % 38  # warm flame palette
    light = 52 + digest[1] % 14
    return f"hsl({hue},85%,{light}%)"


def flamegraph_svg(
    profile: Profile, title: str = "", width: int = 1080
) -> str:
    """A self-contained SVG flame graph (no JS, no external assets).

    Rows are stack depth (root at the top), box width is the frame's
    share of total samples; every box carries a ``<title>`` tooltip with
    its exact counts, so the file works standalone and inline in the
    dashboards.
    """
    root = _flame_tree(profile.folded)
    total = max(root.value, 1)
    row_h = 17
    top = 26
    min_w = 0.5

    def depth_of(node: _FlameNode) -> int:
        if not node.children:
            return 1
        return 1 + max(depth_of(child) for child in node.children.values())

    rows = depth_of(root)
    height = top + rows * row_h + 6
    boxes: list[str] = []

    def emit(node: _FlameNode, x: float, depth: int) -> None:
        w = width * node.value / total
        if w < min_w:
            return
        y = top + depth * row_h
        pct = 100.0 * node.value / total
        label = html.escape(node.name, quote=True)
        boxes.append(
            f'<g><rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_h - 1}"'
            f' rx="1.5" fill="{_flame_color(node.name)}">'
            f"<title>{label}: {node.value} sample(s), {pct:.1f}%</title></rect>"
        )
        if w >= 44:
            shown = node.name
            max_chars = max(int(w / 6.5), 3)
            if len(shown) > max_chars:
                shown = shown[: max_chars - 1] + "…"
            boxes.append(
                f'<text x="{x + 3:.2f}" y="{y + row_h - 5}"'
                f' font-size="10.5" fill="#1b1b1b">{html.escape(shown)}</text>'
            )
        boxes.append("</g>")
        cx = x
        for child in sorted(
            node.children.values(), key=lambda c: (-c.value, c.name)
        ):
            emit(child, cx, depth + 1)
            cx += width * child.value / total

    emit(root, 0.0, 0)
    heading = title or (
        f"CPU profile {profile.profile_id}"
        + (f" · {profile.suite}" if profile.suite else "")
    )
    sub = (
        f"{profile.samples} sample(s) · {profile.duration_s:.2f}s"
        f" · {profile.hz:g} hz requested · {_achieved_hz(profile)} achieved"
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}"'
        f' font-family="system-ui, sans-serif">'
        f'<rect width="{width}" height="{height}" fill="#fdfaf5"/>'
        f'<text x="6" y="16" font-size="12.5" font-weight="600"'
        f' fill="#333">{html.escape(heading)}</text>'
        f'<text x="{width - 6}" y="16" font-size="11" text-anchor="end"'
        f' fill="#777">{html.escape(sub)}</text>'
        + "".join(boxes)
        + "</svg>"
    )
