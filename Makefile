# LBM-IB reproduction — common workflows.

PYTHON ?= python

.PHONY: install test test-quick test-faults test-chaos test-service test-verify verify-physics bench bench-selftest bench-compare bench-tune trace-example examples report clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Fast inner-loop smoke subset (< 60 s): everything except the tests
# marked slow, faults, or verify.  Run the full `make test` plus
# `make verify-physics` before merging.
test-quick:
	$(PYTHON) -m pytest -x --durations=15 -m "not slow and not faults and not verify" tests/

# Fault-injection / resilience suite.  Each test is wrapped in a hard
# SIGALRM deadline (see tests/conftest.py), so a reintroduced deadlock
# fails CI with a traceback instead of hanging it.
test-faults:
	LBMIB_FAULT_TEST_TIMEOUT=120 $(PYTHON) -m pytest -m faults tests/

# Deterministic chaos suite for the fault-tolerant batch scheduler:
# seeded fault plans (slot corruption, checkpoint truncation, scheduler
# kill + resume) with completed results pinned bit-identical to a
# fault-free golden run.  Set LBMIB_CHAOS_DIR to keep the incident
# journal and resume manifest for inspection (CI archives them on
# failure).
test-chaos:
	LBMIB_FAULT_TEST_TIMEOUT=180 $(PYTHON) -m pytest -m chaos tests/

# Simulation-service suite: async job API lifecycle, weighted-fair
# queue properties (seeded random schedules with greedy shrinking),
# admission control, and the soak smoke.  The slow full soak (220 jobs
# + kill/resume) and the service chaos scenario run under `make test`
# / the CI service job.  Each test carries the SIGALRM deadline from
# tests/conftest.py.
test-service:
	LBMIB_FAULT_TEST_TIMEOUT=180 $(PYTHON) -m pytest -m "service and not slow" tests/

# The differential-verification pytest suite only.
test-verify:
	$(PYTHON) -m pytest -m verify tests/

# The physics verification gate: golden baselines, the differential
# oracle across all solver variants on generated configs, and the
# deliberate-perturbation self-test.  Gates every PR that touches a
# solver hot path.  Regenerate baselines after an *intentional* physics
# change with: PYTHONPATH=src $(PYTHON) -m repro.verify --regen-golden
verify-physics:
	PYTHONPATH=src $(PYTHON) -m repro.verify --cases 3

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Self-test of the repo benchmark (bench/, run by `python3 bench/run.py`):
# checks its workloads still drive the library through the names it
# reads — BatchedLBMIBSolver.step / .occupancy and the kernel span names.
bench-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest bench/ -q

# Workload-adaptive autotuner benchmark (model-guided ranking, measured
# top-N probe, decision cache) against an exhaustive candidate sweep;
# writes benchmarks/results/BENCH_tune.json and asserts the acceptance
# ratios (auto within 5% of the best hand-picked candidate, >= 1.3x
# better than the worst) on the full Table-I grid.  Override the run
# size with e.g. BENCH_TUNE_ARGS="--scale 4 --steps 2 --no-check".
bench-tune:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tune.py $(BENCH_TUNE_ARGS)

# Benchmark-regression gate: five `bench/run.py --quick` runs on BASE
# (checked out into a git worktree) and five on the working tree,
# alternating which side runs first so host drift hits both sides, then
# bench/compare.py's verdict as the exit code: 1 when any end-to-end
# metric is worse than its BENCHMARK.json bound.  The records stay in
# build/bench-compare/{base,head}.jsonl.
BASE ?= $(shell git merge-base HEAD origin/main)

bench-compare:
	@test -n "$(BASE)" || { echo "bench-compare: no merge base with origin/main; pass BASE=<commit>" >&2; exit 2; }
	@set -e; out="$(CURDIR)/build/bench-compare"; \
	rm -rf "$$out"; git worktree prune; mkdir -p "$$out"; \
	git worktree add --detach "$$out/base" $(BASE); \
	trap 'git worktree remove --force "$$out/base"' EXIT; \
	for i in 1 2 3 4 5; do \
		if [ $$((i % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "bench-compare: pair $$i, $$side"; \
			if [ $$side = base ]; then dir="$$out/base"; else dir="$(CURDIR)"; fi; \
			(cd "$$dir" && $(PYTHON) bench/run.py --quick --out "$$out/$$side.jsonl"); \
		done; \
	done; \
	$(PYTHON) bench/compare.py "$$out/base.jsonl" "$$out/head.jsonl"

# Chrome-trace demo: traces a small sequential + cube run and writes
# benchmarks/results/trace_example.json (open at chrome://tracing or
# https://ui.perfetto.dev) plus a metrics snapshot next to it.
trace-example:
	PYTHONPATH=src $(PYTHON) -m repro.observe trace-example \
		--output benchmarks/results/trace_example.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/flexible_sheet_in_flow.py --steps 100
	$(PYTHON) examples/circular_plate.py --steps 100
	$(PYTHON) examples/scaling_study.py
	$(PYTHON) examples/extensions_tour.py
	$(PYTHON) examples/convergence_study.py
	$(PYTHON) examples/service_demo.py

# print every reproduced table/figure without pytest
report:
	$(PYTHON) -m repro.experiments

clean:
	rm -rf benchmarks/results examples/out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
