# Convenience targets; see README.md for the full story.

PYTHON ?= python
# Extra flags for bench-sharded, e.g. "--force-pool --gate-exchange 0.10"
BENCH_SHARDED_FLAGS ?=
# Extra flags for bench-serve, e.g. "--gate-p99 0.5"
BENCH_SERVE_FLAGS ?=
# bench-check: the workloads to run (empty = all) and the runs per side
WORKLOADS ?=
RUNS ?= 3

.PHONY: install test lint bench bench-full bench-faultsim bench-sharded bench-serve bench-check obs-report examples report serve-smoke faultsim-smoke clean-cache

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) scripts/check_no_print.py
	$(PYTHON) scripts/check_api_boundaries.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

report:
	$(PYTHON) -m repro report

bench-faultsim:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fault_sim.py

bench-sharded:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sharded_inference.py $(BENCH_SHARDED_FLAGS)

bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py $(BENCH_SERVE_FLAGS)

# The perf gate: the benchmark (perf/run.py, 5 s windows) RUNS times on an
# export of the commit BASE and RUNS times on this tree, the sides taking
# turns to go first, then perf/compare.py -- exit 1 when an end-to-end metric
# on any workload is `worse` than its BENCHMARK.json bound -- and
# scripts/check_flow_digest.py -- exit 1 when the OPI flow inserted other
# points on some seed than it did at BASE.  Run nothing else
# on the machine meanwhile (~5 min at the defaults).  To check a claim on one
# workload: make bench-check BASE=<parent> WORKLOADS=opi_flow RUNS=10
bench-check:
	@test -n "$(BASE)" || { echo "usage: make bench-check BASE=<git ref> [WORKLOADS='a b'] [RUNS=n]"; exit 2; }
	set -e; out=results/bench-check; \
	rm -rf $$out; mkdir -p $$out/tree; \
	git archive $(BASE) | tar -x -C $$out/tree; \
	for seed in $$(seq 1 $(RUNS)); do \
	  if [ $$((seed % 2)) = 1 ]; then sides="base head"; else sides="head base"; fi; \
	  for side in $$sides; do \
	    if [ $$side = base ]; then root=$$out/tree; else root=.; fi; \
	    $(PYTHON) $$root/perf/run.py --seconds 5 --seed $$seed \
	      $(foreach w,$(WORKLOADS),--workload $(w)) --out $$out/$$side/$$seed.json; \
	  done; \
	done; \
	$(PYTHON) perf/compare.py $$out/base $$out/head; \
	$(PYTHON) scripts/check_flow_digest.py $$out/base $$out/head

obs-report:
	PYTHONPATH=src $(PYTHON) -m repro obs-report

serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

faultsim-smoke:
	PYTHONPATH=src $(PYTHON) scripts/faultsim_smoke.py

clean-cache:
	rm -rf ~/.cache/repro-gcn-test results
