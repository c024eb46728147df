import repro.pipeline
import repro.sched
from perfbench import inputs
from perfbench.trace import LAYERS, OP_SPAN, LayerPatch, SpanRecorder, import_times, self_times

from repro.options import EvalOptions
from repro.pipeline import evaluate_corpus


def _sweep_cells():
    return [c for c in inputs.table2_cells(0) if c[2] == (2, 1)]


def test_traced_ops_add_up_and_match_untraced_outputs():
    recorder = SpanRecorder()
    patch = LayerPatch(recorder)
    untraced, traced = [], []
    for name, sources, case in _sweep_cells():
        corpus = evaluate_corpus(name, list(sources), inputs.machine(case), inputs.N, EvalOptions())
        untraced.append([(e.t_list, e.t_new) for e in corpus.evaluations])
        with patch, recorder.op():
            corpus = evaluate_corpus(name, list(sources), inputs.machine(case), inputs.N, EvalOptions())
        traced.append([(e.t_list, e.t_new) for e in corpus.evaluations])
    assert traced == untraced
    assert recorder.ops == len(untraced)
    per_op = self_times(recorder.spans)
    for op, selfs in per_op.items():
        wall = next(r[3] - r[2] for r in recorder.spans if r[0] == op and r[4] is None) / 1e9
        assert abs(sum(selfs.values()) - wall) < 1e-6
        assert set(selfs) <= set(LAYERS) | {OP_SPAN}
    names = {row[1] for row in recorder.spans}
    assert {"ir.parse_loop", "sched.sync", "sim.simulate"} <= names
    assert recorder.counters["sync.insert.calls"] == 36


def test_patch_leaves_untraced_code_untouched():
    original = repro.sched.sync_schedule
    recorder = SpanRecorder()
    with LayerPatch(recorder):
        assert repro.sched.sync_schedule is not original
        assert repro.pipeline.sync_schedule is not original
        # the defining module keeps the original
        assert repro.sched.sync_scheduler.sync_schedule is original
    assert repro.sched.sync_schedule is original
    assert repro.pipeline.sync_schedule is original
    assert recorder.spans == []


def test_import_times_charges_stdlib_to_the_repro_importer():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |         _json",
            "import time:       200 |        300 |       json",
            "import time:       400 |        700 |     repro.obs.trace",
            "import time:        50 |        750 |   repro.sched",
            "import time:        10 |        760 | repro",
            "import time:        30 |         30 | encodings",
        ]
    )
    groups = import_times(stderr)
    assert groups["init"] == 0.01
    assert groups["sched"] == 0.05
    assert abs(groups["obs"] - 0.7) < 1e-9
    assert abs(groups["total"] - 0.76) < 1e-9
