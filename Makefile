# Convenience targets for the reproduction repository.

PY ?= python

.PHONY: install test bench experiments quick-experiments clean

install:
	pip install -e . || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# The repository benchmark (bench/README.md): every workload, 10 runs each
bench:
	python3 bench/run.py --runs 10 --seed 1 --out bench/out/results.json

experiments:
	$(PY) scripts/run_all_experiments.py --budget 30000 --seeds 1 2 \
		--out EXPERIMENTS-data.md

quick-experiments:
	$(PY) scripts/run_all_experiments.py --quick --budget 8000 --seeds 1

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
