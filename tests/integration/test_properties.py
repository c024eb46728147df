"""Property-based system tests over generated DOACROSS loops.

These are the reproduction's core guarantees, exercised across the
generator's distribution instead of hand-picked examples:

1. both schedulers always produce legal schedules (deps, resources, sync
   conditions);
2. parallel execution of either schedule produces the serial memory image —
   no stale data;
3. the event-level executor and the analytic timing simulation agree;
4. the paper's never-degrade claim holds for loops with a single
   synchronization pair (where it is provable); the multi-pair case is a
   documented limitation (see test_known_limitations.py).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.options import EvalOptions
from repro.pipeline import compile_loop, evaluate_loop
from repro.sched import (
    assert_valid,
    list_schedule,
    paper_machine,
    sync_schedule,
)
from repro.sim import MemoryImage, execute_parallel, run_serial, simulate_doacross
from repro.workloads import GeneratorConfig, PlantedDep, generate_loop


@st.composite
def single_pair_configs(draw):
    statements = draw(st.integers(1, 4))
    source = draw(st.integers(0, statements - 1))
    sink = draw(st.integers(0, statements - 1))
    distance = draw(st.integers(1, 3))
    chained = draw(st.booleans()) and source >= sink
    return GeneratorConfig(
        statements=statements,
        deps=(PlantedDep(source, sink, distance, chained=chained),),
        trip_count=20,
        noise_reads=(0, 2),
        seed=draw(st.integers(0, 99_999)),
    )


@st.composite
def multi_pair_configs(draw):
    statements = draw(st.integers(2, 5))
    n_deps = draw(st.integers(1, 3))
    deps = []
    used = set()
    for _ in range(n_deps):
        source = draw(st.integers(0, statements - 1))
        sink = draw(st.integers(0, statements - 1))
        if (source, sink) in used:
            continue
        used.add((source, sink))
        deps.append(PlantedDep(source, sink, draw(st.integers(1, 3))))
    return GeneratorConfig(
        statements=statements,
        deps=tuple(deps),
        trip_count=20,
        noise_reads=(0, 2),
        seed=draw(st.integers(0, 99_999)),
    )


_machines = st.sampled_from([(2, 1), (2, 2), (4, 1), (4, 2)])


@given(config=multi_pair_configs(), machine=_machines)
@settings(max_examples=40, deadline=None)
def test_both_schedulers_always_legal(config, machine):
    compiled = compile_loop(generate_loop(config))
    m = paper_machine(*machine)
    for scheduler in (list_schedule, sync_schedule):
        schedule = scheduler(compiled.lowered, compiled.graph, m)
        assert_valid(schedule, compiled.graph)


@given(config=multi_pair_configs(), machine=_machines)
@settings(max_examples=25, deadline=None)
def test_parallel_memory_equals_serial(config, machine):
    compiled = compile_loop(generate_loop(config))
    m = paper_machine(*machine)
    reference = run_serial(compiled.synced.loop, MemoryImage())
    for scheduler in (list_schedule, sync_schedule):
        schedule = scheduler(compiled.lowered, compiled.graph, m)
        result = execute_parallel(schedule, MemoryImage())
        assert result.memory == reference, result.memory.diff(reference)[:3]


@given(config=multi_pair_configs(), machine=_machines)
@settings(max_examples=25, deadline=None)
def test_executor_agrees_with_timing_simulation(config, machine):
    compiled = compile_loop(generate_loop(config))
    m = paper_machine(*machine)
    for scheduler in (list_schedule, sync_schedule):
        schedule = scheduler(compiled.lowered, compiled.graph, m)
        sim = simulate_doacross(schedule)
        result = execute_parallel(schedule, MemoryImage())
        assert result.parallel_time == sim.parallel_time


@given(config=single_pair_configs(), machine=_machines)
@settings(max_examples=50, deadline=None)
def test_stall_component_never_degrades_single_pair(config, machine):
    """The precise form of the paper's 'never degrades' claim that holds
    unconditionally for a single synchronization pair: the *stall* the
    synchronization costs (parallel time minus iteration length) never
    exceeds list scheduling's.  The iteration length itself may wobble a
    cycle either way (see EXPERIMENTS.md §6)."""
    compiled = compile_loop(generate_loop(config))
    result = evaluate_loop(
        compiled, paper_machine(*machine), options=EvalOptions(verify=False)
    )
    stall_new = result.t_new - result.schedule_new.length
    stall_list = result.t_list - result.schedule_list.length
    assert stall_new <= stall_list


@given(config=multi_pair_configs(), machine=_machines)
@settings(max_examples=40, deadline=None)
def test_guarded_scheduler_literally_never_degrades(config, machine):
    """With the never-degrade guard on, the claim is absolute, for any
    number of pairs."""
    from repro.sched import SyncSchedulerOptions, list_schedule, sync_schedule
    from repro.sim import simulate_doacross

    compiled = compile_loop(generate_loop(config))
    m = paper_machine(*machine)
    guarded = sync_schedule(
        compiled.lowered,
        compiled.graph,
        m,
        SyncSchedulerOptions(guard_never_degrade=True),
    )
    listed = list_schedule(compiled.lowered, compiled.graph, m)
    assert (
        simulate_doacross(guarded).parallel_time
        <= simulate_doacross(listed).parallel_time
    )


@given(config=single_pair_configs())
@settings(max_examples=30, deadline=None)
def test_schedule_is_permutation(config):
    compiled = compile_loop(generate_loop(config))
    schedule = sync_schedule(compiled.lowered, compiled.graph, paper_machine(2, 1))
    assert sorted(schedule.cycle_of) == [i.iid for i in compiled.lowered.instructions]
