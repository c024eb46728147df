from collections import Counter

from perfbench import inputs


def test_same_seed_same_sources_and_streams():
    assert inputs.generated_corpus(7) == inputs.generated_corpus(7)
    assert inputs.request_stream(7, 300) == inputs.request_stream(7, 300)
    assert inputs.table2_cells(7) == inputs.table2_cells(7)


def test_other_seed_other_inputs():
    assert inputs.generated_corpus(7) != inputs.generated_corpus(8)
    assert inputs.request_stream(7, 300) != inputs.request_stream(8, 300)


def test_generated_corpus_is_distinct_large_loops():
    corpus = inputs.generated_corpus(3)
    assert len(corpus) == inputs.GENERATED_LOOPS
    assert len({source for source, _case in corpus}) == len(corpus)
    statements = [source.count(" = ") for source, _case in corpus]
    assert min(statements) >= 16


def test_stream_mix_three_hot_per_miss():
    stream = inputs.request_stream(5, inputs.STREAM_PASS)
    hot = [r for r in stream if r.hot]
    assert len(hot) == 3 * len(stream) // 4
    # every hot cell exactly three times in the first pass
    assert set(Counter((r.source, r.case) for r in hot).values()) == {3}
    assert len(Counter((r.source, r.case) for r in hot)) == 32


def test_misses_are_never_seen():
    stream = inputs.request_stream(5, 2000)
    misses = [r.source for r in stream if not r.hot]
    assert len(set(misses)) == len(misses)
    assert not set(misses) & set(inputs.hot_sources())


def test_table2_cells_cover_the_grid():
    cells = inputs.table2_cells(1)
    assert sorted((name, case) for name, _sources, case in cells) == sorted(
        (name, case) for name in ("FLQ52", "QCD", "MDG", "TRACK", "ADM") for case in inputs.MACHINE_CASES
    )
    assert sum(len(sources) for name, sources, case in cells if case == (2, 1)) == 36
