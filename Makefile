# Convenience targets for the repro library.

PY ?= python3

.PHONY: install test bench experiments examples experiments-md lint clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

lint:
	@command -v ruff >/dev/null 2>&1 && ruff check src tests benchmarks scripts || echo "ruff not installed; skipped"
	@command -v mypy >/dev/null 2>&1 && mypy src/repro || echo "mypy not installed; skipped"

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PY) -m repro.experiments.runner all

# Per-figure tables only; EXPERIMENTS.md's headline table and notes are kept by hand.
experiments-md:
	mkdir -p build
	$(PY) scripts/generate_experiments_md.py --out build/experiments-tables.md

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PY) $$f || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
