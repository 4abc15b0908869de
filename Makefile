# LBM-IB reproduction — common workflows.

PYTHON ?= python

# bench-gate knobs: the candidate must be produced with the same
# workload as the checked-in baseline (identity keys are compared
# exactly), the tolerance is generous because the smoke workload is
# tiny, and only the stable headline keys are gated by default
# (aggregate step times, deterministic allocation bytes, speedups —
# individual sub-millisecond kernel timings are pure scheduler noise).
BENCH_GATE_BASELINE ?= benchmarks/baselines/BENCH_fused.json
BENCH_GATE_ARGS ?= --scale 8 --steps 3 --warmup 2 --scatter-repeats 2
BENCH_GATE_TOL ?= 0.75
BENCH_GATE_KEYS ?= '*.step_seconds' '*alloc*_bytes' '*speedup*' '*_per_second'

# batched-execution benchmark gate: same pattern as the fused gate —
# the checked-in baseline pins the smoke workload, and the candidate
# must be produced with identical arguments.
BENCH_BATCH_BASELINE ?= benchmarks/baselines/BENCH_batch.json
BENCH_BATCH_GATE_ARGS ?= --steps 6 --warmup 2 --batch-sizes 1 4 16

# in-place AA-pattern benchmark gate: the lattice footprint ratio is
# structural (2.0) and the timing keys follow the fused-gate tolerance.
BENCH_INPLACE_BASELINE ?= benchmarks/baselines/BENCH_inplace.json
BENCH_INPLACE_GATE_ARGS ?= --scale 8 --steps 3 --warmup 2

# precision-policy benchmark gate: gated at the full Table-I grid
# (scale 2) rather than a smoke grid — the float32 speedup is a
# memory-bandwidth effect that a dispatch-dominated tiny grid cannot
# show, so the checked-in baseline itself carries the >= 1.3x
# float32-fused acceptance number.
BENCH_PRECISION_BASELINE ?= benchmarks/baselines/BENCH_precision.json
BENCH_PRECISION_GATE_ARGS ?= --scale 2 --steps 8 --warmup 2

.PHONY: install test test-quick test-faults test-chaos test-service test-verify verify-physics bench bench-selftest bench-fused bench-inplace bench-batch bench-precision bench-tune bench-gate trace-example examples report clean

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

# Sequential-vs-fused hot-path benchmark; writes
# benchmarks/results/BENCH_fused.json (per-kernel + whole-step wall
# time and tracemalloc allocation profile).  Override the run size with
# e.g. BENCH_FUSED_ARGS="--scale 8 --steps 3".
bench-fused:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fused_kernels.py $(BENCH_FUSED_ARGS)

# Single-lattice AA-pattern benchmark (variant='inplace' vs fused);
# writes benchmarks/results/BENCH_inplace.json (whole-step wall time,
# allocation profile, and the fused/inplace lattice footprint ratio).
# Override the run size with e.g. BENCH_INPLACE_ARGS="--scale 8".
bench-inplace:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_inplace.py $(BENCH_INPLACE_ARGS)

# Batched multi-simulation benchmark (solo loop vs vectorized batch,
# plus the continuous-batching scheduler); writes
# benchmarks/results/BENCH_batch.json.  Override the run size with e.g.
# BENCH_BATCH_ARGS="--steps 10 --batch-sizes 1 8".
bench-batch:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_batch_throughput.py $(BENCH_BATCH_ARGS)

# Precision-policy benchmark (float32/mixed storage vs float64 on the
# fused and in-place hot paths); writes
# benchmarks/results/BENCH_precision.json.  Non-gating smoke — the
# regression gate lives in bench-gate.  Override the run size with
# e.g. BENCH_PRECISION_ARGS="--scale 4 --steps 4".
bench-precision:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_precision.py $(BENCH_PRECISION_ARGS)

# Workload-adaptive autotuner benchmark (model-guided ranking, measured
# top-N probe, decision cache) against an exhaustive candidate sweep;
# writes benchmarks/results/BENCH_tune.json and asserts the acceptance
# ratios (auto within 5% of the best hand-picked candidate, >= 1.3x
# better than the worst) on the full Table-I grid.  Override the run
# size with e.g. BENCH_TUNE_ARGS="--scale 4 --steps 2 --no-check".
bench-tune:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tune.py $(BENCH_TUNE_ARGS)

# Benchmark-regression gate: re-run the fused and batched benchmarks at
# each baseline's smoke workload and diff them against the checked-in
# records.  Exit 1 = a gated key regressed beyond BENCH_GATE_TOL; exit
# 2 = the two records describe different workloads (regenerate with
# `make bench-fused BENCH_FUSED_ARGS="$(BENCH_GATE_ARGS)"` /
# `make bench-batch BENCH_BATCH_ARGS="$(BENCH_BATCH_GATE_ARGS)"` and
# copy the results into benchmarks/baselines/ after an intentional
# change).
bench-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fused_kernels.py $(BENCH_GATE_ARGS)
	PYTHONPATH=src $(PYTHON) -m repro.observe compare \
		$(BENCH_GATE_BASELINE) benchmarks/results/BENCH_fused.json \
		--tol $(BENCH_GATE_TOL) --keys $(BENCH_GATE_KEYS)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_batch_throughput.py $(BENCH_BATCH_GATE_ARGS)
	PYTHONPATH=src $(PYTHON) -m repro.observe compare \
		$(BENCH_BATCH_BASELINE) benchmarks/results/BENCH_batch.json \
		--tol $(BENCH_GATE_TOL) --keys $(BENCH_GATE_KEYS)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_inplace.py $(BENCH_INPLACE_GATE_ARGS)
	PYTHONPATH=src $(PYTHON) -m repro.observe compare \
		$(BENCH_INPLACE_BASELINE) benchmarks/results/BENCH_inplace.json \
		--tol $(BENCH_GATE_TOL) --keys $(BENCH_GATE_KEYS)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_precision.py $(BENCH_PRECISION_GATE_ARGS)
	PYTHONPATH=src $(PYTHON) -m repro.observe compare \
		$(BENCH_PRECISION_BASELINE) benchmarks/results/BENCH_precision.json \
		--tol $(BENCH_GATE_TOL) --keys $(BENCH_GATE_KEYS)

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
