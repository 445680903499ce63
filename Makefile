# Developer entry points.  Everything runs from the repo root with the
# in-tree package (PYTHONPATH=src); no install required.  The analyzer
# (repro_check/) and the benchmark (bench/) are tooling beside src/ and run
# as `python -m <package>` from here.

PYTHON  ?= python
WORKERS ?= 4
ENV      = PYTHONPATH=src

.PHONY: check lint analyze import-check test \
        golden docs-check sweep-smoke fault-smoke bench-smoke figures examples clean

# The twelve costliest imports of two fresh interpreters, for the log:
# cumulative microseconds, sorted.  One imports the CLI, the other the run
# path (what a run or benchmark process imports: no sweep engine, figures,
# presets or LP).
RUN_PATH     = repro.experiments.runner, repro.scenarios.spec, repro.experiments.orchestrator
IMPORT_TABLE = for modules in repro.cli "$(RUN_PATH)"; do \
	echo "import $$modules"; \
	$(ENV) $(PYTHON) -X importtime -c "import $$modules" 2>&1 \
		| sort -t'|' -k2 -n | tail -12; \
	done

# The pre-merge gate: the static analyzer (style rules included, so `lint`
# is not run again), then the full tier-1 suite, which runs every test once
# — the import budget (tests/test_cold_start.py), the golden traces, the
# differential suites and the run-time invariants of tests/invariants among
# them — then the import tables.
check: analyze test
	$(IMPORT_TABLE)

# Style lint alone: the analyzer's six style rules (syntax, line length,
# tabs, trailing whitespace, unused imports), stdlib only.  CI also runs
# `ruff check`, configured in pyproject.toml.
lint:
	$(PYTHON) -m repro_check --select SYN001,E501,W191,W291,W293,F401

# repro-check: every rule of the repo-specific static analyzer (seeded
# randomness and no wall clock outside its timing modules, style) plus the
# strict-mypy typed-core gate when mypy is installed.  RNG provenance and
# config threading are run-time tests (tests/invariants, in tier-1).
# The rules are catalogued in docs/invariants.md.
analyze:
	$(PYTHON) -m repro_check

# The import budget alone: a fresh interpreter that imports the CLI, the
# runner, the orchestrator and the scenario layer loads numpy and the stdlib
# only (no scipy, no test tooling), and one that runs a flow loads none of
# the sweep, figure, preset or LP layers; then the import tables.  `check`
# runs the same tests inside tier-1.
import-check:
	$(ENV) $(PYTHON) -m pytest -q tests/test_cold_start.py
	$(IMPORT_TABLE)

# Tier-1 verification: the full suite (tests/ + benchmarks/), fail-fast.
test:
	$(ENV) $(PYTHON) -m pytest -x -q

# Rewrite tests/golden_traces.json from this tree.  The only way the golden
# file changes: its diff is a behaviour change to be argued in the PR.
golden:
	$(ENV) $(PYTHON) scripts/golden_traces.py

# Every repro.* name, every `--preset name` and every `run.<field>`
# referenced in README.md and docs/ must resolve.
docs-check:
	$(ENV) $(PYTHON) scripts/docs_check.py README.md docs/paper-map.md \
		docs/scenarios.md docs/performance.md docs/invariants.md \
		docs/sweeps.md docs/faults.md

# End-to-end sweep-service smoke: a multi-worker CLI sweep SIGKILLed
# mid-flight must resume computing only the missing cells and aggregate
# bit-identically to an uninterrupted run.
sweep-smoke:
	$(ENV) $(PYTHON) scripts/sweep_smoke.py

# End-to-end fault-injection smoke through the real CLI: all-relays-crashed
# runs abort with structured reasons that carry the diagnosis (never hang),
# and crash/recover sweeps stay parallel == serial.
fault-smoke:
	$(ENV) $(PYTHON) scripts/fault_smoke.py

# The end-to-end benchmark (bench/, BENCHMARK.json) still measures this
# tree: its own tests, then quick traced kilonode_flow, mesh_seed_sweep and
# coded_payload runs that must be correct, with no failed operation and
# every traced entry point resolved.
bench-smoke:
	$(PYTHON) scripts/bench_smoke.py

# Every paper figure (cells cached under results/store/): its report, then
# each claim's statistic against its band.  Fails when one is out of band.
figures:
	$(ENV) $(PYTHON) -m repro figure --workers $(WORKERS)

# The narrated walk-throughs.
examples:
	$(ENV) $(PYTHON) examples/quickstart.py
	$(ENV) $(PYTHON) examples/metric_analysis.py
	$(ENV) $(PYTHON) examples/testbed_throughput.py
	$(ENV) $(PYTHON) examples/multi_flow.py

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
