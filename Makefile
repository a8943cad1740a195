# Developer entry points.  All targets assume the repo root as CWD and
# need no installation: PYTHONPATH=src is injected here.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test lint trace-smoke sweep-smoke serve-smoke memory-smoke

## Tier-1 test suite (unit + integration + equivalence).  Includes the
## parity table (tests/test_parity.py): the materialised mmap reopen and
## the cold rebuild of the pinned world against its digest, and
## `repro replay` == rebuild.
test:
	$(PYTHON) -m pytest -x -q

## Static checks (ruff; config in pyproject.toml).  Skips gracefully
## when ruff is not installed so minimal containers can still run make.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

## Observability tripwire: a tiny reproduce run must emit a parseable
## trace whose span tree covers the build and every registry experiment,
## and a tiny replay run one that covers the delta apply and checkpoint
## spans and their cache counters.
trace-smoke:
	$(PYTHON) -m repro reproduce --scale 0.05 --trace-json /tmp/trace-smoke.json > /dev/null
	$(PYTHON) scripts/check_trace.py /tmp/trace-smoke.json
	$(PYTHON) -m repro replay --scale 0.05 --trace-json /tmp/trace-smoke-replay.json > /dev/null
	$(PYTHON) scripts/check_trace.py /tmp/trace-smoke-replay.json

## Memory gate for the one build path: a fresh process builds the
## (1.0, 7) world and fails if its peak RSS exceeds the bound in
## scripts/check_memory.py.
memory-smoke:
	$(PYTHON) scripts/check_memory.py

## Measurement-service smoke: start `repro serve` as a subprocess, then
## liveness -> cold build -> warm hit -> 304 -> metrics -> SIGINT.
serve-smoke:
	$(PYTHON) scripts/check_serve.py

## Sweep orchestrator smoke: run -> resume -> status -> report on the
## example grid, against a throwaway cache/ledger directory.
sweep-smoke:
	rm -rf /tmp/repro-sweep-smoke
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep run examples/sweep_smoke.json --workers 2
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep resume examples/sweep_smoke.json
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep status examples/sweep_smoke.json
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep report examples/sweep_smoke.json
