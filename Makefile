# Convenience targets for the BB reproduction.

.PHONY: install test test-fast coverage verify recover predict predicted branch-identity bench bench-smoke perfbench-test boot-reference sweep-reference experiment-reference fleet-smoke fleet-crash-smoke generations-smoke experiments artifacts examples clean

PYTEST = PYTHONPATH=src python -m pytest

install:
	pip install -e . || python setup.py develop

# Tier-1: the whole suite, no coverage instrumentation (works without
# pytest-cov installed).
test:
	$(PYTEST) -x -q

# Skip subprocess/many-boot tests for a quick local loop.
test-fast:
	$(PYTEST) -x -q -m "not slow"

# Coverage run with the CI floor; requires pytest-cov.
coverage:
	$(PYTEST) -q --cov=repro --cov-branch --cov-report=term --cov-fail-under=75

# The simulation verification harness (invariant monitor, perturbation
# fuzzing, analytic oracles) at CI scale.
verify:
	PYTHONPATH=src python -m repro verify --smoke

# Boot-recovery escalation ladder over the CI preset subset; nonzero
# exit if any preset defeats the ladder.
recover:
	PYTHONPATH=src python -m repro recover --smoke

# Closed-form boot prediction (no event loop) for the stock TV boot,
# plus the smoke design-space sweep it pre-filters.
predict:
	PYTHONPATH=src python -m repro predict
	PYTHONPATH=src python -m repro experiment design-space --smoke

# Predictor == DES on every unperturbed verify scenario at 1, 2, 3, 4
# and 6 cores (the full profile of the `predicted` verify group; the
# smoke profile in `make verify` runs 1, 2 and 4 only), plus the sweep
# cache's bit identity with direct predict().
predicted:
	PYTHONPATH=src python -m repro verify --only predicted

# Branched == from-scratch on the full 12-cell identity matrix, with at
# most 1, 2 and 4 concurrent fork children (the full profile of the
# `branch-identity` verify group; the smoke profile in `make verify` runs
# 8 cells at 1 and 2).
branch-identity:
	PYTHONPATH=src python -m repro verify --only branch-identity

# The paper-artifact benchmarks (needs pytest-benchmark): each asserts
# its paper number, e.g. Fig. 1's 8.1 s boot within 5%.
bench:
	$(PYTEST) benchmarks/ --benchmark-only -s

# CI-scale perf gate: event-queue + cache microbenchmarks, per-boot DES
# and predictor times, plus a 24-cell checkpoint/fork matrix and the
# 640-cell analytically pre-filtered design-space sweep.  Exits nonzero
# if branched outputs are not byte-identical to from-scratch runs, the
# checkpoint speedup drops below its committed floor (full 120-cell
# record measures >= 3x; the smoke floor leaves headroom for noisy CI
# runners), the design-space pre-filter lands below 5x over exhaustive
# DES, or the analytic frontier is not identical to the exhaustive one
# (full record measures ~12x against the cheaper DES scheduler, 16x
# before it, so 5x leaves headroom).
bench-smoke:
	PYTHONPATH=src python -m repro bench --skip-sweep --events 50000 \
		--checkpoint-cells 24 --branch-floor 1.8 --predict-floor 5 \
		--out BENCH_smoke.json

# The gating benchmark's own tests (perfbench/: seeded workloads, output
# checks, the traced per-layer run).  The traced-run test fails when a
# moved or renamed function breaks one of the tracer's by-name patch
# points.  Needs only the standard library and pytest.
perfbench-test:
	python3 -m pytest perfbench/tests -q

# Whole-pool DES identity gate: boot all 220 cases of the boot-cold
# reference pool (every boot any perfbench seed can draw, where the
# benchmark itself checks one seed's 50) and compare each boot's simulated
# statistics with perfbench/reference/boot-cold.json.  Nonzero exit names
# the mismatching cases.  Reads perfbench/, writes nothing.
boot-reference:
	python3 scripts/check_boot_reference.py

# Whole-pool predictor identity gate: run all 37 sweeps of the
# design-sweep reference pool (every sweep any perfbench seed can draw,
# where the benchmark itself checks one seed's 7) through the analytic
# pre-filter and compare each frontier, its predictions and its DES
# statistics with perfbench/reference/design-sweep.json.  Nonzero exit
# names the mismatching sweeps.  Reads perfbench/, writes nothing.
sweep-reference:
	python3 scripts/check_sweep_reference.py

# Whole-report identity gate: run `repro experiment all --jobs 1` and
# `repro experiment all --jobs 2 --branch`, and compare each output byte
# for byte with scripts/reference/experiment-all.txt (about 30 s), so the
# worker pool and the branch engine are held to the serial bytes too.
# Nonzero exit names the command and its first differing line.  After a
# change meant to alter the output, regenerate the reference (from the
# serial command) with `python3 scripts/check_experiment_reference.py
# --write`.
experiment-reference:
	python3 scripts/check_experiment_reference.py

# CI-scale fleet campaign: 500 jobs through the async boot service
# (TCP/JSON-lines, single-flight scheduler, auto-scaled worker shards),
# byte-compared against a serial replay and gated on sustained
# throughput.  The full campaign (make target-free: `repro fleet
# campaign`) streams 10k+ jobs and measures ~40-50k jobs/min; the
# 10k/min smoke floor leaves headroom for loaded CI runners.
fleet-smoke:
	PYTHONPATH=src python -m repro fleet campaign --smoke \
		--total-jobs 500 --throughput-floor 10000

# Crash-recovery gate: SIGKILL a real journaled `fleet serve` process
# mid-campaign at a seeded write-ahead-journal offset, restart it on
# the same journal/cache, and require the resumed campaign report to be
# byte-identical to an uninterrupted serial run (plus proof that the
# crash fired, the journal resumed work, and the client retried).
fleet-crash-smoke:
	PYTHONPATH=src python -m repro verify --smoke --only fleet-crash

# CI-scale OTA campaign: stage the demo regressed generation (preparser
# + deferred executor dropped, ~24% past the 1.10x gate) across the
# 12-device / 3-wave demo fleet.  The health gate must roll back exactly
# the first wave (4 devices) and halt the campaign — any other rollback
# count (missed regression, false positive, failed halt) exits nonzero.
generations-smoke:
	PYTHONPATH=src python -m repro generations rollout \
		--demo regressed --expect-rollbacks 4

experiments:
	PYTHONPATH=src python -m repro experiment all

artifacts:
	PYTHONPATH=src python scripts/generate_artifacts.py --out artifacts

examples:
	@for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src python $$f || exit 1; done

clean:
	rm -rf artifacts .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
