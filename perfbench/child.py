"""Child-process entry points of the benchmark.

``python perfbench/child.py setup WORKLOAD SEED``
    One fresh-process set-up: import what the workload's op path imports,
    generate its inputs from the seed and run one warm-up op.  The parent
    times it from spawn to exit; ``setup_s`` is the median of several.

``python [-X importtime] perfbench/child.py cli SPANS_JSON ARGV...``
    The traced form of a one-shot CLI op: ``repro.cli.main(ARGV)`` with
    the layer wrappers installed, its stdout untouched, and the spans
    (``import`` and the op's tree) written to ``SPANS_JSON`` on exit.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def setup(workload: str, seed: int) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if workload == "oneshot_cli":
        import repro.cli  # noqa: F401  (the op's imports are the set-up)

        return 0
    from repro.options import EvalOptions
    from repro.pipeline import compile_loop, evaluate_corpus, evaluate_loop

    from perfbench import inputs

    if workload == "table2_cold":
        name, sources, case = next(c for c in inputs.table2_cells(seed) if c[0] == "QCD")
        evaluate_corpus(name, list(sources), inputs.machine(case), inputs.N, EvalOptions())
    elif workload == "generated_large":
        source, case = inputs.generated_corpus(seed)[0]
        evaluate_loop(compile_loop(source), inputs.machine(case), inputs.N, EvalOptions())
    else:
        raise SystemExit(f"no child set-up for workload {workload!r}")
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter_ns()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli
    import repro.perf.cache  # noqa: F401  (bound before the patch scan)
    import repro.pipeline  # noqa: F401

    from perfbench.trace import LayerPatch, SpanRecorder

    imported = time.perf_counter_ns()
    recorder = SpanRecorder()
    recorder.spans.append([0, "import", start, imported, None])
    with LayerPatch(recorder), recorder.op():
        code = repro.cli.main(argv)
    sys.stdout.flush()
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        raise SystemExit(setup(rest[0], int(rest[1])))
    if mode == "cli":
        raise SystemExit(traced_cli(rest[0], rest[1:]))
    raise SystemExit(f"unknown mode {mode!r}")
