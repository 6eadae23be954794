PYTHON ?= python

.PHONY: check test bench-perf bench-perf-smoke perfbench

# Tier-1 tests + perf smoke with the >30% ops/sec regression gate.
check:
	sh scripts/check.sh

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Full macro perf run; appends an entry to BENCH_perf.json.
bench-perf:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_trajectory.py

bench-perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_trajectory.py --smoke --no-append

# The repository benchmark (BENCHMARK.json): one workload, one seed.
#   make perfbench W=lsm_fill_read SEED=1 SECONDS=20 TRACE=0
SEED ?= 1
SECONDS ?= 20
TRACE ?= 0

perfbench:
	$(if $(W),,$(error set W to a workload named in BENCHMARK.json))
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)
