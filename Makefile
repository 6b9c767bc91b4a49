# ACACIA reproduction -- developer entry points

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench bench-matcher bench-resilience bench-sim bench-sim-smoke bench-scale bench-scale-smoke examples quick exp-smoke scenario-validate ops-soak-smoke all clean-results

test:
	$(PYTHON) -m pytest tests/ -q

lint:   ## same gate as CI (needs ruff on PATH: pip install ruff)
	ruff check src/ tests/ benchmarks/ tools/ examples/

exp-smoke:   ## tiny 2-seed smoke preset end-to-end through the parallel runner
	$(PYTHON) -m repro scenario run smoke --workers 2

scenario-validate:   ## validate the whole scenario catalogue, then run the CI smoke scenario
	$(PYTHON) -m repro scenario validate
	$(PYTHON) -m repro scenario run quick_test --output /tmp/quick_test_result.json

ops-soak-smoke:   ## compressed diurnal soak through the operator runtime: 0 dropped sessions, autoscaler active, byte-identical reruns
	$(PYTHON) tools/ops_soak_smoke.py --duration 600

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-matcher:   ## engine comparison on the Fig 11a workload -> BENCH_matcher.json
	$(PYTHON) tools/bench_matcher.py

bench-resilience:   ## chaos sweep: control-plane success under signalling loss
	$(PYTHON) -m pytest benchmarks/test_resilience_chaos.py --benchmark-only -q

bench-sim:   ## scheduler comparison (fast vs reference) -> BENCH_sim.json
	$(PYTHON) tools/bench_sim.py

bench-sim-smoke:   ## quick drift + determinism gate, no committed output
	$(PYTHON) tools/bench_sim.py --smoke --out /tmp/BENCH_sim_smoke.json

bench-scale:   ## fluid vs packet data plane + 100k-UE scenario -> BENCH_scale.json
	$(PYTHON) tools/bench_scale.py

bench-scale-smoke:   ## quick fluid-plane gates, no committed output
	$(PYTHON) tools/bench_scale.py --smoke --out /tmp/BENCH_scale_smoke.json

quick:   ## tests + the sub-second benchmarks only
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q \
	    --ignore=benchmarks/test_fig3g_background_traffic.py \
	    --ignore=benchmarks/test_fig10a_qci_rtt.py \
	    --ignore=benchmarks/test_fig10b_isolation.py

examples:
	@for script in examples/*.py; do \
	    echo "=== $$script ==="; \
	    $(PYTHON) $$script || exit 1; \
	done

all: test bench examples

clean-results:
	rm -rf benchmarks/results .benchmarks
