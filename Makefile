# One command per gate.  `make check` is the whole pre-merge gate:
# determinism lint, strict typing (where mypy is installed), tier-1
# tests.  Every target works on the bare CI image — tools that are not
# installed skip with a message instead of failing, mirroring the
# skip-with-reason behaviour of tests/test_static_analysis.py.

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint lint-concurrency typecheck test bench-quick serve-bench \
	bench-cluster coverage check

## Both lint passes (determinism REP001-REP006 + concurrency
## REP101-REP103, REP105) over the source tree.
lint:
	$(PY) -m repro.devtools.lint src

## Concurrency pass alone (guarded-by discipline, task lifetime,
## blocking-in-async, dropped futures).
lint-concurrency:
	$(PY) -m repro.devtools.concurrency src

## Strict mypy on repro.marketplace + repro.geo + repro.parallel +
## repro.service + repro.devtools (config in pyproject).
typecheck:
	@if $(PY) -c "import mypy" 2>/dev/null; then \
		$(PY) -m mypy -p repro.marketplace -p repro.geo \
			-p repro.parallel -p repro.service \
			-p repro.devtools; \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi

## Tier-1 test suite (the gate the driver enforces).
test:
	$(PY) -m pytest -x -q

## Quick perf bench: the scalar/vector x brute/index x batched/per-client
## flag matrix (use_vectorized_step, use_spatial_index,
## use_batched_ping) plus the orchestrator sweep leg.
bench-quick:
	$(PY) benchmarks/bench_perf_engine.py --quick

## Quick service load bench: real localhost sockets, concurrent
## WebSocket ping clients + REST clients against the asyncio server;
## checks throughput floors and the 429/Retry-After contract.
serve-bench:
	$(PY) benchmarks/bench_api_service.py --quick

## Quick cluster bench: the 8-campaign sweep dispatched sequentially,
## through the local process pool, and to 2- and 4-worker localhost
## clusters (real `repro worker` subprocesses over TCP), with a
## byte-identity cross-check of every dispatch mode's outcomes.
bench-cluster:
	$(PY) benchmarks/bench_sweep_cluster.py --quick

## Coverage gate (fail_under=90 on repro.marketplace + repro.parallel;
## needs `coverage`, which CI installs — locally it skips when absent).
coverage:
	@if $(PY) -c "import coverage" 2>/dev/null; then \
		$(PY) -m coverage run -m pytest -q \
			&& $(PY) -m coverage report; \
	else \
		echo "coverage not installed; skipping coverage gate"; \
	fi

## The whole pre-merge gate.
check: lint typecheck test
