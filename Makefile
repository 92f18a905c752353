# Convenience targets for the reproduction.

.PHONY: install test test-fast test-chaos lint typecheck check bench bench-full bench-json examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# Domain-aware static analysis (rule catalogue: docs/static-analysis.md).
# `tools` self-lints the linter; the content-hash cache makes warm
# pre-commit runs near-instant.
lint:
	PYTHONPATH=tools python -m repro_lint \
		--cache-path .lint-cache.json src tests benchmarks tools

# Strict typing gate; needs mypy (pip install -e .[dev]).  Skips with a
# notice when mypy is absent so `make check` stays runnable offline.
typecheck:
	@python -c "import mypy" 2>/dev/null \
		&& python -m mypy --strict src/repro \
		|| echo "typecheck skipped: mypy not installed (pip install -e .[dev])"

# The trailing lint re-run replays the cache the first pass wrote, so
# the warm-cache path is exercised on every check.
check: lint typecheck test
	@$(MAKE) --no-print-directory lint

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

# Fault-injection suite: seeded crashes/hangs/broken pools on purpose,
# plus a worker killed mid-stream behind the gateway
# (tests/gateway/test_chaos.py) — docs/robustness.md.  Deselect the
# slow parts elsewhere with -m "not chaos".
test-chaos:
	pytest tests/runtime/test_chaos.py tests/runtime/test_faults.py \
		tests/gateway/test_chaos.py -q

bench:
	pytest benchmarks/ --benchmark-only

# Full-size experiments (hours of host time for the quality sweeps).
bench-full:
	REPRO_BENCH_SCALE=1.0 pytest benchmarks/ --benchmark-only

# Append a run record to the machine-readable op-count log
# BENCH_workloads.json (QUBO problem families x backends with per-step
# op counts).  Each run appends a timestamped entry (schema
# repro.bench_log/v1) so the trajectory accumulates.  Throughput is
# measured by the repo benchmark (benchmarks/perf/), with repeats.
bench-json:
	pytest benchmarks/test_ext_workloads.py --benchmark-only

examples:
	python examples/quickstart.py
	python examples/pcb_drill_routing.py 400
	python examples/logistics_fleet.py 400
	python examples/noisy_sram_playground.py
	python examples/chip_designer_report.py
	python examples/maxcut_annealing.py 200

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks .lint-cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
