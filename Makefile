# Convenience targets for the DSN 2001 reproduction.

.PHONY: install test lint bench bench-quick bench-smoke bench-n1m bench-layered-check bench-figures chaos-smoke chaos-adversarial-smoke trace-smoke serve-smoke serve-hostile-smoke metrics-smoke figures examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

lint:             ## determinism/invariant lint (REP rules) + mypy when installed
	PYTHONPATH=src python -m repro lint src/
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/sim src/repro/core src/repro/chaos \
			src/repro/obs src/repro/baselines src/repro/topology \
			src/repro/experiments src/repro/net; \
	else \
		echo "mypy not installed locally; skipping type check (CI runs it)"; \
	fi

bench:            ## wall-clock perf harness -> BENCH_core.json
	PYTHONPATH=src python benchmarks/perf/run_bench.py

bench-quick:      ## CI-sized perf smoke run
	PYTHONPATH=src python benchmarks/perf/run_bench.py --quick

bench-smoke:      ## CI perf gate: quick workloads, fail on >20% regression
	cp BENCH_core.json /tmp/repro-bench-smoke.json
	PYTHONPATH=src python benchmarks/perf/run_bench.py --quick \
		--output /tmp/repro-bench-smoke.json --fail-on-regression

bench-n1m:        ## full perf harness plus the 10^6-member smoke -> BENCH_core.json
	PYTHONPATH=src python benchmarks/perf/run_bench.py --n1m

bench-layered-check: ## the frozen layered benchmark still runs against this tree
	python3 benchmarks/layered/bench.py --check
	PYTHONPATH=src python -m pytest benchmarks/layered -q

bench-figures:    ## regenerate every paper figure + the extra studies
	pytest benchmarks/ --benchmark-only -s

chaos-smoke:      ## small deterministic chaos-campaign matrix + bound check
	PYTHONPATH=src python -m repro chaos \
		--campaign paper-iid --campaign crash-storm \
		--campaign rack-failure --campaign partition-heal \
		--n 64 --runs 2 --seed 0 --jobs auto --assert-bound

chaos-adversarial-smoke: ## adversarial campaigns: detection, structural admission, matrix byte-identity and digests
	REPRO_SANITIZE=1 PYTHONPATH=src python -m pytest -x -q \
		tests/integration/test_adversarial.py \
		tests/unit/test_net_codec.py::TestNodeDropsBadFrames \
		tests/integration/test_engine_equivalence.py::test_forged_keys_are_refused_by_the_receiver \
		tests/integration/test_engine_equivalence.py::test_runner_routes_adversarial_campaigns_to_the_object_engine
	PYTHONPATH=src python -m repro chaos --matrix \
		--campaign tamper-forge --campaign tamper-replay \
		--campaign sybil-storm --campaign region-outage \
		--n 48 --runs 1 --seed 0 --jobs 1 \
		--json /tmp/repro-matrix-j1.json --csv /tmp/repro-matrix-j1.csv
	PYTHONPATH=src python -m repro chaos --matrix \
		--campaign tamper-forge --campaign tamper-replay \
		--campaign sybil-storm --campaign region-outage \
		--n 48 --runs 1 --seed 0 --jobs 2 \
		--json /tmp/repro-matrix-j2.json --csv /tmp/repro-matrix-j2.csv
	cmp /tmp/repro-matrix-j1.json /tmp/repro-matrix-j2.json
	cmp /tmp/repro-matrix-j1.csv /tmp/repro-matrix-j2.csv
	sha256sum --check tests/integration/adversarial_matrix.sha256
	@echo "adversarial smoke ok: detection asserted, matrix byte-identical across --jobs and to the committed digests"

serve-smoke:      ## 8 live localhost UDP nodes must converge, then exit clean
	PYTHONPATH=src python -m repro serve --members 8 --port 9390 \
		--tick 0.01 --deadline 60 --rounds-factor-c 2.0 --json \
		> /tmp/repro-serve-smoke.json
	PYTHONPATH=src python -c "import json; r = json.load(open('/tmp/repro-serve-smoke.json')); assert r['completeness'] == 1.0, r"
	@echo "serve smoke ok: 8 UDP nodes converged at completeness 1.0"

serve-hostile-smoke: ## a live group survives Joins naming no socket address
	python tools/hostile_join_smoke.py

metrics-smoke:    ## live group exposes both metric formats; repro top reads them
	python tools/metrics_smoke.py
	python benchmarks/perf/run_bench.py --registry-guard
	@echo "metrics smoke ok: exposition + repro top + registry overhead guard"

trace-smoke:      ## run one traced aggregation and validate the JSONL (layering: make lint)
	PYTHONPATH=src python -m repro trace --n 64 --ucastl 0.4 --seed 1 \
		--out /tmp/repro-trace-smoke.jsonl --explain 0
	PYTHONPATH=src python -m repro trace --validate /tmp/repro-trace-smoke.jsonl

figures:          ## quick CLI pass over the analytic figures
	python -m repro fig4
	python -m repro fig5

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
