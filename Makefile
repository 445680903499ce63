# Developer entry points.  Everything runs from the repo root with the
# in-tree package (PYTHONPATH=src); no install required.  The analyzer
# (repro_check/) and the benchmark (bench/) are tooling beside src/ and run
# as `python -m <package>` from here.

PYTHON  ?= python
WORKERS ?= 4
ENV      = PYTHONPATH=src

.PHONY: check lint analyze import-check test test-engine test-coding test-control \
        golden docs-check sweep-smoke fault-smoke bench-smoke figures examples clean

# The pre-merge gate: the static analyzer (style rules included, so `lint`
# is not run again), the import budget, the engine gate (fail fast on a
# hot-path behaviour change or a broken run-time invariant), the coding/GF
# differentials (fail fast on a
# coefficient or a row), the control-plane differentials and re-plan unit
# tests (fail fast on a link estimate, a distance or a plan), then the full
# tier-1 suite.
check: analyze import-check test-engine test-coding test-control test

# Style lint alone: the analyzer's six style rules (syntax, line length,
# tabs, trailing whitespace, unused imports), stdlib only.  CI also runs
# `ruff check`, configured in pyproject.toml.
lint:
	$(PYTHON) -m repro_check --select SYN001,E501,W191,W291,W293,F401

# repro-check: every rule of the repo-specific static analyzer (seeded
# randomness and no wall clock outside its timing modules, style) plus the
# strict-mypy typed-core gate when mypy is installed.  RNG provenance and
# config threading are run-time tests (tests/invariants, in test-engine).
# The rules are catalogued in docs/invariants.md.
analyze:
	$(PYTHON) -m repro_check

# The import budget: a fresh interpreter that imports the CLI, the runner,
# the orchestrator and the scenario layer loads numpy and the stdlib only
# (no scipy, no test tooling).  The twelve costliest imports are printed for
# the log: cumulative microseconds, sorted.
import-check:
	$(ENV) $(PYTHON) -m pytest -q tests/test_cold_start.py
	$(ENV) $(PYTHON) -X importtime -c "import repro.cli" 2>&1 | sort -t'|' -k2 -n | tail -12

# Tier-1 verification: the full suite (tests/ + benchmarks/), fail-fast.
test:
	$(ENV) $(PYTHON) -m pytest -x -q

# The engine hot-path gate alone: scheduler unit/property tests, the medium
# against its scalar oracle and its carrier-sense oracle (plus the per-epoch
# reception-plan memo), its sense rows and reception plans read off the
# mesh's links against the dense rules they replaced (every sender and
# sampled overlap sets on the testbed, 200- and 1000-node benchmark
# meshes and a one-way-link mesh), the main generator's word stream (coins, capture
# coins, backoff draws and hand-backs) against per-call draws on a twin
# generator, the coin bound against numpy's next_double comparison and the
# MAC's unit tests; the models the medium resolves frames with — the
# channel and mobility unit tests, and the per-link Gilbert-Elliott chains
# and link-table mobility epochs against their dense forms (every link over
# a time grid, across re-bound epochs where links vanish and return, each
# epoch table equal to the dense epoch's links); the fault models and the
# injector, which filters the medium's receivers and gates every MAC, with
# the fault-free runs held to a simulator without the subsystem; plus the
# full-run traces held bit-identical to tests/golden_traces.json — static
# runs, runs under faults, and the runs whose control plane recurs (the
# refreshing / supervised presets and three re-planned concurrent flows) —
# then the run-time invariants: every channel, mobility and fault model
# replays under any query order, only the medium and the MACs read the
# main generator (every protocol under every model kind), and every
# RunConfig field changes a run.
test-engine:
	$(ENV) $(PYTHON) -m pytest -x -q tests/sim/test_events.py \
		tests/sim/test_medium.py \
		tests/sim/test_medium_differential.py \
		tests/sim/test_channels.py \
		tests/topology/test_mobility.py \
		tests/sim/test_link_state_differential.py \
		tests/sim/test_word_stream.py \
		tests/sim/test_mac_and_trace.py \
		tests/sim/test_engine_differential.py \
		tests/sim/test_faults.py \
		tests/sim/test_fault_differential.py \
		tests/scenarios/test_dynamic_scenarios.py \
		tests/invariants

# Rewrite tests/golden_traces.json from this tree.  The only way the golden
# file changes: its diff is a behaviour change to be argued in the PR.
golden:
	$(ENV) $(PYTHON) scripts/golden_traces.py

# The coding/GF gate alone: the coding buffer, the coefficient stream and
# the GF kernels against their scalar / numpy oracles (property streams,
# edge cases, differential suites, the buffer rank by rank across its
# per-row / nibble-bucket crossover), the MORE header that carries the
# code vector's bytes (pack / unpack round trips), then the golden
# code-vector runs — every coefficient put on the air, a K=128 run's
# included — so a moved coefficient fails here, fast (~20 s).  The CI
# coverage job runs tests/coding and tests/gf under pytest-cov.
test-coding:
	$(ENV) $(PYTHON) -m pytest -x -q tests/coding tests/gf \
		tests/protocols/test_more_header.py \
		tests/sim/test_engine_differential.py::test_code_vectors_bit_identical

# The control-plane gate alone: ETX / EOTX / credits / gap / LP, the probe
# estimates against their per-link reference, what is derived once per
# topology, the link-table control view against the dense matrices it
# replaced (link rows, distances, next hops, plans, paths, the dead-node
# mask), bit for bit, the meshes the plans are derived from: their links
# and nothing N×N (a 400-node build and a flow over it under half a
# matrix of traced memory, and so a bursty channel and a churn epoch
# bound to it), read-only from construction (no writer), and
# the seeded generators pinned, a connectivity-patched layout included —
# and each protocol's re-plan (~2 s): recruits, drops, detours, ExOR
# handing the turn on when a re-plan drops its holder, a plan computed the
# way the flow was set up, and a failed re-plan that leaves the installed
# plan and every agent's state untouched.
test-control:
	$(ENV) $(PYTHON) -m pytest -x -q tests/metrics \
		tests/topology/test_estimation.py \
		tests/topology/test_derived.py \
		tests/topology/test_control_view_differential.py \
		tests/topology/test_graph.py \
		tests/topology/test_generator.py \
		tests/experiments/test_refresh.py

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
