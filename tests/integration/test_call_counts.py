"""Call-count guards on the cold compile/schedule path.

Deterministic counts, no timing: each turns an algorithmic saving into
something tier-1 notices when it regresses.

* ``compile_loop`` runs the dependence analysis once per loop; the DOACROSS
  re-wrap and the statement relabelling reuse that graph.
* The reused graphs hold exactly the dependences a fresh analysis finds.
* The sync scheduler's synchronization-path placement computes the path's
  spacing once, not once per retried start cycle.
"""

import sys

import pytest

from repro.deps import analyze_loop
from repro.pipeline import compile_loop
from repro.sched import paper_machine, sync_schedule
from repro.sched.sync_scheduler import _SyncScheduler
from repro.sync.insertion import _ensure_labels
from repro.workloads.livermore import livermore_kernels
from repro.workloads.perfect import perfect_suite

PERFECT = [
    pytest.param(loop, id=f"{name}-{i}")
    for name, loops in perfect_suite().items()
    for i, loop in enumerate(loops)
]
LIVERMORE = [pytest.param(kernel.loop(), id=kernel.name) for kernel in livermore_kernels()]


@pytest.fixture
def analysis_calls(monkeypatch):
    """Count ``analyze_loop`` calls through every ``repro`` module that
    imported it."""
    calls = []

    def counting(loop):
        calls.append(loop)
        return analyze_loop(loop)

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "analyze_loop", None) is analyze_loop:
            monkeypatch.setattr(module, "analyze_loop", counting)
            patched += 1
    assert patched >= 3  # repro.deps, transforms.pipeline, sync.insertion, ...
    return calls


def _dep_keys(deps):
    return [
        (d.source, d.sink, d.kind.value, d.variable, d.distance, d.irregular,
         id(d.source_ref), id(d.sink_ref))
        for d in deps
    ]


@pytest.mark.parametrize("loop", PERFECT + LIVERMORE)
def test_compile_loop_analyses_each_loop_once(loop, analysis_calls):
    try:
        compile_loop(loop)
    except ValueError:
        pass  # SERIAL after restructuring: rejected after the one analysis
    assert len(analysis_calls) == 1


@pytest.mark.parametrize("loop", PERFECT + LIVERMORE)
def test_reused_graphs_equal_a_fresh_analysis(loop):
    try:
        compiled = compile_loop(loop)
    except ValueError:
        pytest.skip("SERIAL loop: no synchronization stage")
    restructured = compiled.restructured
    assert restructured.graph.loop is restructured.loop
    assert _dep_keys(restructured.graph.deps) == _dep_keys(
        analyze_loop(restructured.loop).deps
    )
    # insert_synchronization's graph, seen through the pairs it built.
    fresh = analyze_loop(_ensure_labels(restructured.loop)).loop_carried()
    paired = [dep for pair in compiled.synced.pairs for dep in pair.deps]
    assert sorted(_dep_keys(paired)) == sorted(_dep_keys(fresh))


def test_min_spacing_runs_once_per_path_edge_however_many_retries(monkeypatch):
    spacing_calls = 0
    tries = 0
    per_path = []
    min_spacing = _SyncScheduler.min_spacing
    try_place_path = _SyncScheduler.try_place_path
    schedule_path_contiguous = _SyncScheduler.schedule_path_contiguous

    def counting_spacing(self, a, b):
        nonlocal spacing_calls
        spacing_calls += 1
        return min_spacing(self, a, b)

    def counting_try(self, *args, **kwargs):
        nonlocal tries
        tries += 1
        return try_place_path(self, *args, **kwargs)

    def checked_path(self, path):
        nonlocal spacing_calls, tries
        spacing_calls = tries = 0
        schedule_path_contiguous(self, path)
        per_path.append((len(path.nodes), spacing_calls, tries))

    monkeypatch.setattr(_SyncScheduler, "min_spacing", counting_spacing)
    monkeypatch.setattr(_SyncScheduler, "try_place_path", counting_try)
    monkeypatch.setattr(_SyncScheduler, "schedule_path_contiguous", checked_path)
    for loops in perfect_suite().values():
        for loop in loops:
            compiled = compile_loop(loop)
            for issue, fus in ((2, 1), (2, 2), (4, 1), (4, 2)):
                sync_schedule(compiled.lowered, compiled.graph, paper_machine(issue, fus))
    assert per_path, "no synchronization path was placed contiguously"
    for length, calls, _ in per_path:
        assert calls <= length - 1
    # The bound means something only if start cycles were really retried.
    assert max(tries for _, _, tries in per_path) > 1
