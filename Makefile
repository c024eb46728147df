PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint check bench bench-batch bench-check bench-cold bench-perf bench-service fuzz-smoke serve-smoke chaos-smoke prof-smoke sweep dash

BENCH_BASELINE ?= benchmarks/baselines/bench_history.jsonl

# Tier-1: the fast correctness suite (what CI gates on).
test:
	$(PYTHON) -m pytest -x -q

# Static checks (ruff); skipped with a note when ruff is not installed.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

# Re-run the bench suites and fail on any cycle-count drift against the
# committed baseline (see docs/observability.md, "Benchmark regression
# tracking").  Wall-clock only gates on the machine that recorded the
# baseline, so this is safe to run anywhere.
bench-check:
	$(PYTHON) -m repro bench check --suite all \
		--baseline $(BENCH_BASELINE) --history $(BENCH_BASELINE)

# Seeded differential fuzz (docs/robustness.md): ≥200 random
# (loop, FaultPlan) cases, fast path vs exact event walk vs semantic
# executor, deterministic in FUZZ_SEED so a CI failure replays locally.
FUZZ_CASES ?= 200
FUZZ_SEED ?= 0
fuzz-smoke:
	$(PYTHON) -m repro fuzz --cases $(FUZZ_CASES) --seed $(FUZZ_SEED)

# Service smoke (docs/service.md): boot an ephemeral-port server with a
# scratch ledger, POST the Fig. 1 loop to /v1/evaluate, and assert the
# served evaluation record is byte-identical to the one-shot pipeline,
# that the request landed in the run ledger, that /v1/metrics counted it
# and /v1/trace/<id> replays its span tree, and that every served record
# byte-round-trips through the schema writer.  Part of `make check`.
# `make serve-smoke SERVE_SMOKE_ARGS=--live-out=dashboard-live.html`
# additionally builds a live dashboard snapshot (CI uploads it).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py $(SERVE_SMOKE_ARGS)

# Seeded chaos loadtest (docs/robustness.md, "Operating under
# failure"): an in-process resilient server under injected grid kills,
# slow groups, cache corruption, malformed/oversized bodies and
# mid-stream disconnects.  Gates on honesty under failure: zero
# malformed/unstamped responses, every submission answered or honestly
# shed, breaker transitions on the ledger, complete inflight journal.
# kill:every=1,times=3 is deliberate — the breaker counts *consecutive*
# failures, so only back-to-back kills trip it.  Deterministic in
# CHAOS_SEED, so a CI failure replays locally.  Part of `make check`.
CHAOS_REQUESTS ?= 500
CHAOS_CONCURRENCY ?= 16
CHAOS_SEED ?= 0
chaos-smoke:
	$(PYTHON) -m repro loadtest --requests $(CHAOS_REQUESTS) \
		--concurrency $(CHAOS_CONCURRENCY) --n 60 \
		--chaos kill:every=1,times=3 --chaos kill:every=50 \
		--chaos slow:delay=0.05,every=60 --chaos corrupt:every=150 \
		--chaos malformed:prob=0.05 --chaos oversize:prob=0.02 \
		--chaos disconnect:prob=0.03 --chaos-seed $(CHAOS_SEED)

# Profiler smoke (docs/observability.md, "Continuous profiling"):
# record two sampled CPU profiles of the fig suite into a scratch
# store, assert samples landed and pipeline stages were attributed,
# diff them (must name a top regressed frame) and render the flame
# graph SVG.  Structural assertions only — sample counts are
# wall-clock driven and non-deterministic.  Part of `make check`.
prof-smoke:
	$(PYTHON) scripts/prof_smoke.py

# Build the self-contained HTML dashboard (run ledger + bench history).
# Works with an empty/missing ledger: the walkthrough timelines and the
# committed bench baseline still give it something to show.
DASH_OUT ?= dashboard.html
dash:
	$(PYTHON) -m repro dash --out $(DASH_OUT) --history $(BENCH_BASELINE)

# Everything CI would run: lint + tier-1 tests + fuzz + batch-engine
# identity smoke + bench gate + service smoke + chaos smoke + profiler
# smoke + a dashboard-build smoke.
check: lint test fuzz-smoke bench-batch bench-check serve-smoke chaos-smoke prof-smoke dash

# Regenerate every paper table/figure under benchmarks/results/
# (perf-marked timing benches stay skipped).
bench:
	$(PYTHON) -m pytest benchmarks/ -q -s

# Batch-engine identity smoke: the vectorized whole-grid sweep must be
# byte-identical to the per-loop path (deterministic, no timing — part
# of `make check`).
bench-batch:
	$(PYTHON) -m pytest benchmarks/test_bench_batch.py -q -s

# Time the performance layer (cold vs cached vs parallel vs batch)
# and refresh benchmarks/results/perf_layer.txt + BENCH_perf.json.
bench-perf:
	$(PYTHON) -m pytest benchmarks/test_bench_perf.py --perf -q -s

# Per-layer split of the cold Table-2 sweep (docs/performance.md, "Cold
# path"): one traced table2_cold run of the repo benchmark; keeps each
# layer's self time per op (the `*.busy_s` lines, seconds) in
# benchmarks/results/cold_path_layers.txt.  Timed — non-gating.
COLD_RUN := .perfbench_out/cold_path_run.txt
bench-cold:
	@mkdir -p .perfbench_out
	$(PYTHON) perfbench/run.py --workload table2_cold --seed 1 --seconds 36 --trace 1 > $(COLD_RUN)
	grep '\.busy_s = ' $(COLD_RUN) > benchmarks/results/cold_path_layers.txt
	cat benchmarks/results/cold_path_layers.txt

# Load-test the long-lived service (docs/service.md): ≥1000 concurrent
# loop submissions against one in-process server; records throughput,
# tail latency and shared-cache hit rate into the `service` block of
# BENCH_perf.json.  Timed — non-gating in CI, like bench-perf.
LOADTEST_REQUESTS ?= 1000
LOADTEST_CONCURRENCY ?= 16
bench-service:
	$(PYTHON) -m repro loadtest --requests $(LOADTEST_REQUESTS) \
		--concurrency $(LOADTEST_CONCURRENCY)

# The Table 2/3 sweep from the CLI (cached + fast path by default).
sweep:
	$(PYTHON) -m repro sweep
