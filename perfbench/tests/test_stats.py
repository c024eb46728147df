import math

from perfbench.stats import TAIL_BEYOND, OpLog, Round, merged, tail, tail_index


def test_tail_needs_ten_samples_beyond():
    assert tail_index(TAIL_BEYOND) is None
    assert tail_index(TAIL_BEYOND + 1) == 0
    assert tail_index(100) == 89


def test_tail_reports_percentile_and_sample_count():
    samples = [float(v) for v in range(1, 101)]
    found = tail(samples)
    assert found.value == 90.0
    assert found.percentile == 90.0
    assert found.samples == 100
    assert sum(1 for v in samples if v > found.value) == TAIL_BEYOND
    assert "p90.0 of 100 samples" in found.describe()


def test_tail_of_a_thousand_is_p99():
    found = tail([float(v) for v in range(1000)])
    assert (found.percentile, found.samples) == (99.0, 1000)


def test_refused_op_is_failed_and_misses_every_latency_limit():
    log = OpLog()
    for latency in (0.01, 0.02, 0.03):
        log.ok(latency)
    log.fail()  # refused / non-200: no latency
    assert (log.attempted, log.refused, log.failed) == (4, 1, 1)
    assert log.failed_ratio == 0.25
    assert log.samples()[-1] == math.inf
    assert log.p50() == 0.025


def test_majority_refused_makes_the_median_infinite():
    log = OpLog()
    log.ok(0.01)
    log.fail()
    log.fail()
    assert log.p50() == math.inf


def test_output_mismatch_counts_as_failed():
    log = OpLog()
    log.ok(0.01)
    log.ok(0.02)
    log.mismatches += 1
    assert log.failed == 1
    assert log.failed_ratio == 0.5


def _round(seconds, ops=4, refused=0):
    log = OpLog()
    for _ in range(ops - refused):
        log.ok(seconds / ops)
    for _ in range(refused):
        log.fail()
    return Round(seconds, log)


def test_merged_keeps_every_op_and_mismatch():
    a, b = _round(1.0), _round(2.0, refused=1)
    a.log.mismatches = 2
    log = merged([a, b])
    assert (log.attempted, log.refused, log.failed) == (8, 1, 3)
