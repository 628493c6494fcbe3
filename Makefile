# Convenience targets; everything is plain pytest underneath.

.PHONY: install test test-faults test-runtime test-site bench bench-smoke bench-micro bench-compare bench-refresh soak soak-smoke site-smoke site-scale-smoke site-chaos-smoke health-smoke examples reproduce clean

install:
	python setup.py develop

test:
	pytest tests/

test-faults:
	pytest tests/faults tests/util/test_metrics.py \
		tests/core/test_cover_properties.py tests/test_golden_traces.py

test-runtime:
	pytest tests/runtime

test-site:
	pytest tests/site tests/experiments/test_fig_redundancy.py \
		tests/experiments/test_parallel.py \
		tests/experiments/test_site_soak.py tests/faults/test_site_plan.py

bench:
	python -m repro bench --name all --scale smoke

bench-smoke:
	python -m repro bench --name fig02 --scale smoke \
		--trace-out trace_fig02.json --out-dir .

bench-micro:
	pytest benchmarks/ --benchmark-only -s

# Perf gate: re-run the workloads and fail if simulated-slots-per-second
# drops more than 25% below the committed BENCH_<name>.json baselines.
bench-compare:
	python -m repro bench-compare --name all --scale smoke

# Intentional-change override for the perf gate: regenerate the committed
# baselines.  Run on a quiet machine, eyeball the diff, commit it with the
# change that moved the numbers.
bench-refresh:
	python -m repro bench --name all --scale smoke --out-dir .

# Full chaos soak: 2000 supervised cycles under the seeded fault schedule
# (reader crashes, jamming, blackouts, churn, kills, checkpoint
# corruption); exits non-zero on any runtime-invariant violation.
soak:
	python -m repro soak --cycles 2000 --seed 0 --out soak_report.json

# Short soak for CI: same chaos density, far fewer cycles.
soak-smoke:
	python -m repro soak --cycles 300 --seed 1 \
		--crash-every 40 --kill-every 100 --corrupt-every 120 \
		--jam-every 50 --blackout-every 60 --out soak_report.json

# Multi-reader site smoke: a small 4-reader/1k-tag warehouse site, sharded
# across the pool, with the fusion invariant suite and a differential check
# (sharded byte-identical to sequential); exits non-zero on any mismatch.
site-smoke:
	python -m repro site --readers 4 --tags 1000 --duration 0.5 \
		--workers 4 --check-differential --out site_run.json

# Site-scale smoke: a 12-reader/2k-tag aisle big enough for the
# visibility cull and the columnar fusion engine to actually engage.
# --check-differential re-runs the site sequentially under
# REPRO_REFERENCE=1 (reference slot walk, no culling, scalar fusion), so
# one byte-equality check crosses every fast-path switch at once
# (docs/site.md#scaling-to-10k100k-tags).
site-scale-smoke:
	python -m repro site --layout line --readers 12 --tags 2000 \
		--duration 0.25 --workers 4 --check-differential \
		--out site_scale_run.json

# Site chaos smoke: a supervised 3-reader site where the seeded plan
# kills one reader mid-run.  The supervisor must detect the death,
# re-plan channels over the survivors, warm-rejoin the reader, and
# converge with zero invariant violations, byte-identically across
# worker counts — cutting exactly one schema-valid incident bundle
# (the CLI validates every bundle before exiting).
site-chaos-smoke:
	rm -rf site_chaos_bundles
	python -m repro site --chaos --readers 3 --tags 24 --epochs 12 \
		--outages 1 --mobile 2 --seed 11 --workers 4 \
		--check-differential --bundle-dir site_chaos_bundles \
		--out site_chaos.json
	python -c "from repro.obs.health import list_bundles; \
		cut = list_bundles('site_chaos_bundles'); \
		assert len(cut) == 1, [p.name for p in cut]; \
		print('site chaos smoke OK: one bundle, ' + cut[0].name)"

# Health smoke: a supervised run with every antenna blacked out for one
# 30 s window.  The forced outage must escalate exactly once, cutting
# exactly one incident bundle; the health CLI schema-validates each
# bundle before exiting (nonzero on any validation problem).
health-smoke:
	rm -rf health_bundles
	python -m repro health --cycles 40 \
		--blackout 0:15:45 --blackout 1:15:45 \
		--blackout 2:15:45 --blackout 3:15:45 \
		--bundle-dir health_bundles --out health_report.json
	python -c "from repro.obs.health import list_bundles; \
		cut = list_bundles('health_bundles'); \
		assert len(cut) == 1, [p.name for p in cut]; \
		print('health smoke OK: one bundle, ' + cut[0].name)"

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

reproduce:
	python -m repro reproduce --scale paper --out reproduction_report.md

clean:
	rm -rf .pytest_cache .benchmarks src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
