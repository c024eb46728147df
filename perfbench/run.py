"""Repo benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints one ``name = value unit`` line per
metric, notes (tail percentile and sample count, failed ratio, how the
trace adds up), any output mismatches, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run (spans written under
``.perfbench_out/``).  Exits 1 when any output differs from its reference,
2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("table2_cold", "generated_large", "served_mix", "oneshot_cli")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    ctx = workloads.Context(ROOT, scratch, args.seed, args.seconds, bool(args.trace))
    try:
        result = getattr(workloads, args.workload)(ctx)
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        ctx.reap()
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in sorted(result.end_to_end.items()):
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in sorted(result.per_layer.items()):
            print(f"{name} = {value:.6g} {unit}")
    for note in result.notes:
        print(f"# {note}")
    for problem in result.problems[:50]:
        print(f"MISMATCH {problem}")
    if result.recorder is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        result.recorder.dump(out / f"spans-{args.workload}-seed{args.seed}.json")

    chosen = result.per_layer if args.trace else result.end_to_end
    correct = not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.log.attempted,
                "failed": result.log.failed,
                "metrics": {
                    name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in sorted(chosen.items())
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
