.PHONY: install test test-fast verify bench serve-bench train-bench train-bench-smoke obs-smoke obs-top-smoke faults-smoke robustness-smoke e2e-smoke e2e-compare digests sweep-smoke tables examples all

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python -m pytest tests/

# skip tests marked slow (full approach training loops)
test-fast:
	PYTHONPATH=src python -m pytest -q -m "not slow"

# tier-1 gate: every test, the slow ones included.  CI runs
# `make test-fast` instead (.github/workflows/ci.yml), which
# deselects the tests marked slow
verify:
	PYTHONPATH=src python -m pytest -x -q

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# serving-layer throughput at smoke scale (full scale: drop the env var)
serve-bench:
	REPRO_SERVE_SCALES=2000 PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py --benchmark-only

# dense-vs-sparse training-step throughput (docs/performance.md)
train-bench:
	PYTHONPATH=src python benchmarks/bench_train_throughput.py

train-bench-smoke:
	PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke

# 2-epoch fully-instrumented training + telemetry report (docs/observability.md)
obs-smoke:
	PYTHONPATH=src python -m repro.cli obs-smoke --epochs 2 --out benchmarks/reports/obs_smoke
	PYTHONPATH=src python -m repro.cli obs-report benchmarks/reports/obs_smoke/events.jsonl

# tiny jobs=2 telemetered sweep, then the live dashboard one-shot:
# machine-readable state first (CI contract), human frame second, and
# a merged multi-process phase report from the worker trace files
# (docs/observability.md, "Distributed tracing & live dashboards")
obs-top-smoke:
	rm -rf benchmarks/reports/obs_top_smoke
	PYTHONPATH=src python -m repro.cli sweep \
		--spec benchmarks/sweeps/smoke.toml --jobs 2 --no-record \
		--workdir benchmarks/reports/obs_top_smoke
	PYTHONPATH=src python -m repro.cli obs-top \
		benchmarks/reports/obs_top_smoke --json > \
		benchmarks/reports/obs_top_smoke/top.json
	PYTHONPATH=src python -m repro.cli obs-top \
		benchmarks/reports/obs_top_smoke --once
	PYTHONPATH=src python -m repro.cli obs-report \
		benchmarks/reports/obs_top_smoke/telemetry

# crash-replay suite: injected kills/torn writes at every persistence
# site, then resume, asserting bit-identical training (docs/robustness.md)
faults-smoke:
	PYTHONPATH=src python -m pytest -q tests/test_faults.py tests/test_crash_replay.py

# data-level robustness gate (<10s): corrupt the smoke pair with 20%
# dangling entities, train the literal approach, calibrate abstention
# and require dangling-detection F1 >= 0.5 with matchable Hits@1 within
# 5% of the no-abstention baseline (docs/robustness.md)
robustness-smoke:
	PYTHONPATH=src python -m repro.cli robustness --check

# smoke tests of the end-to-end benchmark (benchmarks/e2e/README.md):
# every workload at tiny sizes, timed and traced, held to the metric
# names BENCHMARK.json declares; the traced run reads the training spans
e2e-smoke:
	PYTHONPATH=src python -m pytest -q benchmarks/e2e

# the end-to-end perf gate (~5 min on 2 cores): every workload three
# times at a 30 s budget into E2E_OUT, then one verdict row per workload
# against E2E_BASE under the bounds of BENCHMARK.json; exits 1 when a
# metric regressed.  To compare two commits, run it at the older one
# with E2E_OUT=old.json, then at the newer one with E2E_BASE=old.json.
E2E_BASE ?= benchmarks/e2e/baseline.json
E2E_OUT ?= benchmarks/reports/e2e-new.json
E2E_WORKLOADS = rows-1.5k boot-2.5k pipeline-5k
e2e-compare:
	mkdir -p $(dir $(E2E_OUT))
	rm -f $(E2E_OUT)
	for workload in $(E2E_WORKLOADS); do \
		for run in 1 2 3; do \
			python3 benchmarks/e2e/run.py --workload $$workload \
				--seconds 30 --out $(E2E_OUT) > /dev/null || exit 1; \
		done; \
	done
	python3 benchmarks/e2e/run.py --compare $(E2E_BASE) $(E2E_OUT)

# behaviour-preservation digests (benchmarks/digest_table.py, about
# half a minute): final parameters, loss curve, validation, augmentation and
# alignment-module outputs of every approach on EN-FR 300.  A refactor
# that must not change results prints the same tables before and after.
digests:
	PYTHONPATH=src python benchmarks/digest_table.py

# toy 2-approach x 2-dataset sweep through the parallel orchestrator
# (docs/orchestration.md): runs with jobs=2, then reruns serially to
# report the speedup and verify bit-identical metrics, plus the fast
# orchestrator test files
sweep-smoke:
	REPRO_LEDGER_PATH=benchmarks/reports/ledger.jsonl PYTHONPATH=src \
		python -m repro.cli sweep --spec benchmarks/sweeps/smoke.toml \
		--jobs 2 --workdir benchmarks/reports/sweep_smoke --compare-serial
	PYTHONPATH=src python -m pytest -q tests/test_orchestrate.py tests/test_sweep_smoke.py

# regenerate the paper-table sweep (tuned via successive halving, 5-fold
# CV at full budget), recording every job into the run ledger
tables:
	REPRO_LEDGER_PATH=benchmarks/reports/ledger.jsonl PYTHONPATH=src \
		python -m repro.cli sweep --spec benchmarks/sweeps/tables.toml \
		--jobs 4 --workdir benchmarks/reports/sweep_tables \
		--out benchmarks/reports/tables.txt

# every script under examples/ (about 20 s), stopping at the first
# that fails
examples:
	for f in examples/*.py; do echo "== $$f"; \
		PYTHONPATH=src python $$f || exit 1; done

all: test bench
