"""Output checks against references no benchmark run produces.

* ``table2_cold``: every cell against ``expected/table2.json``, transcribed
  from the committed Table 2.
* ``oneshot_cli``: raw stdout/stderr bytes against the CLI parity goldens.
* ``served_mix``: every served evaluation against the one-shot pipeline's
  record for the same loop, in wire form.
* ``generated_large``: schedule legality, and the DOACROSS executor's
  memory and time against the independent serial interpreter and the
  timing simulation.  (``t_new <= t_list`` is deliberately *not* checked:
  cross-coupled pairs degrade by design.)
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: The CLI parity goldens for ``repro sweep QCD --n 20``.
CLI_ARGV = ("sweep", "QCD", "--n", "20")
CLI_GOLDEN = ("tests/integration/golden/cli/sweep.stdout.txt", "tests/integration/golden/cli/sweep.stderr.txt")


def case_key(case: tuple[int, int]) -> str:
    return f"{case[0]},{case[1]}"


def load_table2() -> dict:
    return json.loads((EXPECTED_DIR / "table2.json").read_text())


def table2_cell_ok(expected: dict, name: str, case: tuple[int, int], t_list: int, t_new: int) -> bool:
    cell = expected["cells"][name][case_key(case)]
    return (t_list, t_new) == (cell["t_list"], cell["t_new"])


def cli_golden(root: Path) -> tuple[bytes, bytes]:
    stdout, stderr = (root / path for path in CLI_GOLDEN)
    return stdout.read_bytes(), stderr.read_bytes()


_CELL = re.compile(rb"(\d+)/(\d+)\s+-?\d+%")


def sweep_t_new(stdout: bytes) -> int:
    """Sum of the ``t_new`` halves of every ``t_list/t_new  pct%`` cell."""
    return sum(int(match.group(2)) for match in _CELL.finditer(stdout))


def one_shot_record(source: str, case: tuple[int, int], n: int) -> dict:
    """What ``repro evaluate`` returns for this loop, JSON round-tripped
    into wire form (object keys become strings)."""
    from repro import EvalOptions, compile_loop, evaluate_loop, paper_machine
    from repro.report import evaluation_record

    record = evaluation_record(
        evaluate_loop(compile_loop(source), paper_machine(*case), n, options=EvalOptions())
    )
    return json.loads(json.dumps(record))


def generated_problems(evaluation, n: int, execute: bool) -> list[str]:
    """Legality of both schedules; with ``execute``, run both on the
    cycle-level executor and compare memory with the serial interpreter
    and time with the timing simulation."""
    from repro.sched import assert_valid
    from repro.sim import MemoryImage, execute_parallel, run_serial

    compiled = evaluation.compiled
    problems = []
    for schedule in (evaluation.schedule_list, evaluation.schedule_new):
        try:
            assert_valid(schedule, compiled.graph)
        except AssertionError as err:
            problems.append(f"{schedule.scheduler_name}: illegal schedule: {err}")
    if not execute:
        return problems
    reference = run_serial(compiled.synced.loop, MemoryImage())
    for schedule, sim in (
        (evaluation.schedule_list, evaluation.sim_list),
        (evaluation.schedule_new, evaluation.sim_new),
    ):
        result = execute_parallel(schedule, MemoryImage(), n, graph=compiled.graph)
        # Long recurrences overflow to inf and nan; a cell both sides
        # computed as nan is the same result, though nan != nan.
        differ = [
            cell for cell in result.memory.diff(reference)
            if not (math.isnan(cell[1]) and math.isnan(cell[2]))
        ]
        if differ:
            problems.append(
                f"{schedule.scheduler_name}: executor memory differs from serial: {differ[:3]}"
            )
        if result.parallel_time != sim.parallel_time:
            problems.append(
                f"{schedule.scheduler_name}: executor time {result.parallel_time} "
                f"!= simulated {sim.parallel_time}"
            )
    return problems
