# Developer convenience targets.
PYTHON ?= python

.PHONY: test test-fast test-full bench bench-selftest bench-suite examples lint docs-check all

test:
	$(PYTHON) -m pytest tests/

# Tier-1: the quick signal — skips the heavier differential/property
# suites (marked `slow`); slow-test timings surface via --durations.
# The compiled-vs-oracle differential suite is deliberately NOT
# slow-marked, so it runs here: a compiled-path divergence is a
# correctness bug, not a perf nicety.
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" --durations=10

# Tier-1 plus the full hypothesis + differential harness (scalar vs batch
# data path), with a bigger example budget via the `full` profile.
test-full:
	HYPOTHESIS_PROFILE=full $(PYTHON) -m pytest tests/ --durations=10

# Perf trajectory (~10 min): runs bench/run.py five times over every
# workload plus once traced (--trace 1), and appends one
# {commit, date, fingerprint, runs} record to BENCH_perf.json; appends
# nothing and fails if any run is incorrect.
bench:
	$(PYTHON) tools/bench.py

# Self-test of the bench/ harness (~1 min): its smoke runs, --trace 1
# included, fail when a serve-path change breaks what it wraps.  CI's
# "Benchmark self-test" step runs this target.
bench-selftest:
	$(PYTHON) -m pytest -q bench/

# The full paper-experiment benchmark suite (pytest-benchmark).
bench-suite:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# Lint intra-repo Markdown links (dead files / dead anchors) across
# README, docs/, EXPERIMENTS, and the rest of the *.md corpus.
docs-check:
	$(PYTHON) tools/docs_check.py

all: test docs-check bench-suite
