"""Seeded benchmark inputs, generated before any timing starts.

Every workload's inputs are a pure function of ``--seed``: the same seed
gives byte-identical loop sources and request streams.  The program under
test only ever sees source text (and HTTP requests carrying it); the
benchmark builds that text with the repo's own generator and printer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.ir.printer import format_loop
from repro.sched.machine import paper_machine
from repro.workloads.generator import GeneratorConfig, PlantedDep, generate_loop
from repro.workloads.perfect import PERFECT_BENCHMARKS, perfect_suite

#: The paper's four machine columns, as (issue width, #FU).
MACHINE_CASES = ((2, 1), (2, 2), (4, 1), (4, 2))

#: Trip count of every evaluation (the paper's N).
N = 100

#: Loops in one ``generated_large`` corpus: enough that corpus totals
#: vary little between seeds, though the rare loops costing ~20x the
#: median (about 1 in 200) still come and go.
GENERATED_LOOPS = 240
#: ``generated_large`` rounds: consecutive slices of the corpus.
GENERATED_CHUNK = 24

#: ``served_mix``: distinct loops in the hot set (each on all 4 machines).
HOT_LOOPS = 8
#: ``served_mix``: one request in ``MISS_EVERY`` carries a never-seen loop.
MISS_EVERY = 4
#: ``served_mix``: requests generated per run, enough for the fastest
#: plausible server; the run stops early (and says so) if it runs out.
STREAM_LENGTH = 4000
#: ``served_mix``: ``t_new_cycles`` sums the first ``STREAM_PASS``
#: requests (every hot cell exactly three times, plus 32 misses).
STREAM_PASS = 128


def table2_cells(seed: int) -> list[tuple[str, list[str], tuple[int, int]]]:
    """One cold Table-2 sweep: 5 Perfect corpora x 4 machines, each corpus
    printed back to source text, in a seeded cell order."""
    suite = perfect_suite()
    sources = {name: [format_loop(loop) for loop in suite[name]] for name in PERFECT_BENCHMARKS}
    cells = [(name, sources[name], case) for name in PERFECT_BENCHMARKS for case in MACHINE_CASES]
    random.Random(seed).shuffle(cells)
    return cells


def _config(rng: random.Random, statements: int, deps: list[PlantedDep], **kw) -> GeneratorConfig:
    return GeneratorConfig(
        statements=statements, deps=tuple(deps), seed=rng.randrange(2**31), **kw
    )


def _planted(rng: random.Random, statements: int, count: int, slot: int) -> list[PlantedDep]:
    """``count`` dependences at seeded positions; even-numbered ones are
    lexically backward, and every other backward one is chained into a
    synchronization path.  Distances are stratified by position, not drawn,
    so corpus totals vary little between seeds."""
    deps = []
    for j in range(count):
        a, b = rng.sample(range(statements), 2)
        lbd = j % 2 == 0
        if lbd != (a >= b):
            a, b = b, a
        chained = lbd and (j // 2) % 2 == 0
        deps.append(PlantedDep(a, b, 1 + (slot + j) % 4, chained))
    return deps


def generated_corpus(seed: int) -> list[tuple[str, tuple[int, int]]]:
    """``generated_large``: ``GENERATED_LOOPS`` distinct loops of 16-28
    statements and 4-9 planted dependences, with temp scalars, reductions
    and inductions, each paired with one paper machine."""
    rng = random.Random(f"generated_large/{seed}")
    corpus: list[tuple[str, tuple[int, int]]] = []
    seen: set[str] = set()
    slot = 0
    while len(corpus) < GENERATED_LOOPS:
        i = len(corpus)
        statements = 16 + (i * 13) // GENERATED_LOOPS
        config = _config(
            rng,
            statements,
            _planted(rng, statements, 4 + i % 6, slot),
            temp_scalars=i % 3,
            reductions=(i // 3) % 2,
            inductions=(i // 2) % 2,
            name=f"gen{i}",
        )
        slot += 1
        source = format_loop(generate_loop(config))
        if source not in seen:
            seen.add(source)
            corpus.append((source, MACHINE_CASES[i % len(MACHINE_CASES)]))
    return corpus


def hot_sources() -> list[str]:
    """The ``served_mix`` hot set: eight Fig. 1-shaped loops of Table-2
    size that differ in their dependence distances."""
    return [
        f"DO I = 1, {N}\n"
        f"  S1: B(I) = A(I-{d}) + E(I+1)\n"
        f"  S2: G(I-3) = A(I-{d + 1}) * E(I+2)\n"
        f"  S3: A(I) = B(I) + C(I+{d + 2})\n"
        "ENDDO\n"
        for d in range(1, HOT_LOOPS + 1)
    ]


def miss_source(rng: random.Random, i: int) -> str:
    """A never-seen loop of Table-2 size (2-8 statements, 1-3 planted
    dependences; about 10-70 DLX instructions)."""
    statements = 2 + i % 7
    config = _config(
        rng,
        statements,
        _planted(rng, statements, 1 + i % 3, i),
        noise_reads=(1, 3),
        temp_scalars=(i // 7) % 2,
        name=f"miss{i}",
    )
    return format_loop(generate_loop(config))


@dataclass(frozen=True)
class Request:
    """One ``POST /v1/evaluate`` of the served stream."""

    source: str
    case: tuple[int, int]
    hot: bool

    def body(self) -> bytes:
        return json.dumps(
            {
                "source": self.source,
                "machine": {"issue": self.case[0], "fu": self.case[1]},
                "n": N,
            }
        ).encode()


def hot_requests() -> list[Request]:
    return [Request(src, case, True) for src in hot_sources() for case in MACHINE_CASES]


def request_stream(seed: int, length: int = STREAM_LENGTH) -> list[Request]:
    """``served_mix``: every fourth request a never-seen loop; the others
    cycle through seeded shuffles of the 32 hot cells, so each hot cell
    comes exactly three times in every 128 requests."""
    rng = random.Random(f"served_mix/{seed}")
    hot = hot_requests()
    seen = set(hot_sources())
    stream: list[Request] = []
    hot_round: list[Request] = []
    miss_index = 0
    while len(stream) < length:
        if len(stream) % MISS_EVERY == MISS_EVERY - 1:
            while True:
                source = miss_source(rng, miss_index)
                miss_index += 1
                if source not in seen:
                    break
            seen.add(source)
            stream.append(Request(source, MACHINE_CASES[miss_index % 4], False))
        else:
            if not hot_round:
                hot_round = hot[:]
                rng.shuffle(hot_round)
            stream.append(hot_round.pop())
    return stream


def machine(case: tuple[int, int]):
    return paper_machine(*case)
