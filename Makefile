# Convenience targets for the JANUS reproduction.
#
#   make test        - the tier-1 test suite (hash seed pinned, so the
#                      generated programs of the differential suites
#                      reproduce run-to-run)
#   make trace-demo  - run a traced training loop, write trace.json,
#                      print the text summary (docs/observability.md)
#   make stats-demo  - run the demo with metrics/health on, save a
#                      janus-stats bundle, and smoke-check the report
#   make stats-serve - live-endpoint smoke: start the httpstat server
#                      on an ephemeral port, drive a small serving
#                      workload, scrape /metrics + /health + /requests
#                      over HTTP, assert all three are populated
#   make test-concurrency, test-coexec, test-differential,
#   make test-persistence - one part of tier-1 on its own, for local
#                      use: the threaded dispatch + serving suites; the
#                      three-way co-execution differential suite
#                      (docs/coexecution.md); the write-barrier and
#                      clean-up differential suites; the persistent
#                      compile-cache suite plus the default-path smoke
#   make bench       - regenerate the paper-evaluation tables/figures
#   make bench-check - gate level-0 observability overhead
#                      (<2% of the quickstart step) and the two serving
#                      gates (same-run ratios
#                      against a direct call of the warm function,
#                      any host: one blocking client >= 0.53x, one
#                      client with 8 outstanding submits >= 1.34x) and
#                      the warm-start gate (disk-cache warm start >= 5x
#                      faster to first graph hit than a cold compile)
#                      and the schedule gate (same-run +PARL/+SPCN
#                      throughput ratio >= 0.95 on LSTM, PPO, Inception)
#   make ci          - everything CI runs, and nothing CI runs is
#                      outside it, each suite once: tier-1, then only
#                      what tier-1 is not — the default-path smoke with
#                      JANUS_CACHE_DIR explicitly unset, the stats-demo
#                      and stats-serve smokes, and the gated benchmark

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-differential test-concurrency test-coexec \
	test-persistence test-default-path trace-demo \
	stats-demo stats-serve bench bench-check ci

#: Where the stats-demo smoke step writes its artifacts (kept out of the
#: repo tree so gate runs never leave untracked files behind).
STATS_DEMO_DIR ?= /tmp/janus-stats-demo

test:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -x -q

# The randomized write-barrier differential suite (>= 200 generated
# programs, each mutated between calls and checked against the
# imperative oracle) and its clean-up sibling (100 programs with
# try/finally, with, continue and sum(.., start) planted in them,
# checked on outputs *and* the model heap).  Part of the tier-1 run
# too; this target re-runs them standalone and untraced:
# JANUS_TRACE=0 keeps the atexit trace dump out of the logs and
# exercises the suite's own counter plumbing (it raises the trace level
# itself for the runs that need memo-counter flushes).
test-differential:
	JANUS_TRACE=0 $(PYTHON) -m pytest \
		tests/test_write_barrier_differential.py \
		tests/test_cleanup_differential.py -q

# The concurrency-safe dispatch + multi-tenant serving suites: threaded
# differential runs against the imperative oracle, cold-start stampede
# and assumption-failure storm single-flight guarantees, admission and
# batching behaviour.  PYTHONHASHSEED is pinned so the generated
# programs and any hash-order-dependent interleavings reproduce
# run-to-run (docs/serving.md).
test-concurrency:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest tests/test_concurrency.py \
		tests/test_serving.py -q

# The randomized three-way co-execution differential suite: >= 40
# seeded programs with unsupported constructs injected, each run
# co-executed, whole-function imperative, and full-graph against the
# imperative oracle (docs/coexecution.md).  Hash seed pinned for
# reproducible program generation, as in test-concurrency.
test-coexec:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest \
		tests/test_coexec_differential.py -q

# The persistent compile-cache suite (each test opts into a private
# cache dir), after the default-path smoke.
test-persistence: test-default-path
	$(PYTHON) -m pytest tests/test_persistence.py -q

# JANUS_CACHE_DIR forced unset: persistence must be invisible unless
# configured (docs/compilation.md).  The one leg of test-persistence
# whose environment tier-1 cannot simply have.
test-default-path:
	env -u JANUS_CACHE_DIR $(PYTHON) -m pytest \
		tests/test_persistence.py -q \
		-k "default_config_never_touches_disk"

trace-demo:
	JANUS_TRACE=2 $(PYTHON) -m repro.observability.demo --out trace.json

# Speculation-health smoke: the demo must produce a health table and
# non-zero histogram counts in its summary, and the saved stats bundle
# must satisfy `janus-stats --check` (wired into CI).
stats-demo:
	mkdir -p $(STATS_DEMO_DIR)
	JANUS_TRACE=2 JANUS_METRICS=1 $(PYTHON) -m repro.observability.demo \
		--out $(STATS_DEMO_DIR)/trace.json \
		--stats-out $(STATS_DEMO_DIR)/stats.json \
		> $(STATS_DEMO_DIR)/summary.txt
	cat $(STATS_DEMO_DIR)/summary.txt
	grep -q -- "-- speculation health --" $(STATS_DEMO_DIR)/summary.txt
	grep -q -- "-- latency histograms --" $(STATS_DEMO_DIR)/summary.txt
	$(PYTHON) -m repro.observability.stats \
		--input $(STATS_DEMO_DIR)/stats.json --check > /dev/null

# Live scrape-endpoint smoke: ephemeral port, in-process demo serving
# workload, real HTTP scrapes of /metrics, /health, and /requests.
# Exits non-zero if any endpoint serves an empty or malformed payload.
stats-serve:
	$(PYTHON) -m repro.observability.httpstat --port 0 --smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-check:
	$(PYTHON) benchmarks/bench_observability_overhead.py --check
	$(PYTHON) benchmarks/bench_serving.py --check
	$(PYTHON) benchmarks/bench_warm_start.py --check
	$(PYTHON) benchmarks/bench_fig7_ablation.py --check

ci: test test-default-path stats-demo stats-serve bench-check
