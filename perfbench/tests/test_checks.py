import dataclasses

from perfbench import checks, inputs

from repro.options import EvalOptions
from repro.pipeline import compile_loop, evaluate_corpus, evaluate_loop


def test_expected_table2_totals():
    expected = checks.load_table2()
    cells = [c for row in expected["cells"].values() for c in row.values()]
    assert sum(c["t_list"] for c in cells) == expected["sweep_t_list"] == 202579
    assert sum(c["t_new"] for c in cells) == expected["sweep_t_new"] == 37330


def test_table2_check_catches_a_planted_wrong_cycle_count():
    expected = checks.load_table2()
    name, sources, case = next(c for c in inputs.table2_cells(0) if c[0] == "QCD")
    corpus = evaluate_corpus(name, list(sources), inputs.machine(case), inputs.N, EvalOptions())
    assert checks.table2_cell_ok(expected, name, case, corpus.t_list, corpus.t_new)
    assert not checks.table2_cell_ok(expected, name, case, corpus.t_list, corpus.t_new + 1)
    assert not checks.table2_cell_ok(expected, name, case, corpus.t_list - 1, corpus.t_new)


def test_cli_golden_and_its_t_new():
    stdout, stderr = checks.cli_golden(checks.EXPECTED_DIR.parents[1])
    assert checks.sweep_t_new(stdout) == 579 + 573 + 574 + 570
    planted = stdout.replace(b"854/579", b"854/580")
    assert planted != stdout
    assert checks.sweep_t_new(planted) == checks.sweep_t_new(stdout) + 1
    assert stderr == b""


def test_served_check_catches_a_planted_wrong_cycle_count():
    source = inputs.hot_sources()[0]
    reference = checks.one_shot_record(source, (4, 1), inputs.N)
    assert reference == checks.one_shot_record(source, (4, 1), inputs.N)
    planted = dict(reference, t_new=reference["t_new"] + 1)
    assert planted != reference


def test_generated_check_catches_a_planted_wrong_simulated_time():
    source, case = inputs.generated_corpus(0)[1]
    evaluation = evaluate_loop(compile_loop(source), inputs.machine(case), inputs.N, EvalOptions())
    assert checks.generated_problems(evaluation, inputs.N, execute=True) == []
    planted = dataclasses.replace(
        evaluation,
        sim_new=dataclasses.replace(evaluation.sim_new, parallel_time=evaluation.sim_new.parallel_time + 1),
    )
    problems = checks.generated_problems(planted, inputs.N, execute=True)
    assert any("executor time" in p for p in problems)
