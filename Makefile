PYTHON ?= python
ARTIFACTS ?= artifacts
# Allowed fractional sim-bytes/sec drop before perf-check fails (0.15
# locally; CI's perf-smoke job loosens it to 0.25 for shared runners).
PERF_THRESHOLD ?= 0.15

.PHONY: lint test check verify-fsm obs-check perf-check

lint:
	bash scripts/check.sh

test:
	$(PYTHON) -m pytest -x -q

check: lint test

# Full FSM pipeline: model-check the four machines + the RC product,
# run the suite under the transition-coverage sanitizer, then gate the
# recording against the declared tables (waivers in
# tools/iwarpcheck/waivers.txt). Reports land in $(ARTIFACTS)/.
verify-fsm:
	mkdir -p $(ARTIFACTS)
	$(PYTHON) -m iwarpcheck check --output $(ARTIFACTS)/model-check.json
	IWARP_FSM_COVERAGE=$(ARTIFACTS)/fsm-records.json PYTHONPATH=src \
		$(PYTHON) -m pytest -q
	$(PYTHON) -m iwarpcheck coverage $(ARTIFACTS)/fsm-records.json \
		--output $(ARTIFACTS)/coverage-report.json

# Hot-path performance gate (DESIGN.md §9): times the fig06/fig07
# scenario mixes, hard-fails on deterministic-counter drift, and fails
# past PERF_THRESHOLD on sim-bytes/sec regressions vs the committed
# baseline. Refreshes BENCH_hotpath.json at the repo root. After a
# deliberate perf change: PYTHONPATH=src python -m repro.bench.perfgate
# --rebaseline, and commit the baseline diff.
perf-check:
	PYTHONPATH=src $(PYTHON) -m repro.bench.perfgate \
		--threshold $(PERF_THRESHOLD)

# Observability gate: metrics must not perturb the simulation (the
# determinism test), exporters must hold their golden formats, every
# exported series must match its golden, and the golden WR-lifecycle
# span sequences must be intact.
obs-check:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/obs/test_determinism.py \
		tests/obs/test_export.py \
		tests/obs/test_exported_series.py \
		tests/obs/test_spans.py
