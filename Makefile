# Convenience targets; everything works with plain pytest too.

.PHONY: install test test-all bench validate figures tables lint

install:
	pip install -e .

test:                ## fast test suite (skips @slow)
	pytest tests/ -m "not slow"

test-all:            ## everything, including slow end-to-end checks
	pytest tests/

bench:               ## regenerate every paper artifact (pytest-benchmark)
	pytest benchmarks/ --benchmark-only

validate:            ## the 15 paper claims with their margins (the claims suite)
	repro-bench --validate

figures:             ## Figs. 3-7 from their suites (fig3 .. fig7)
	for n in 3 4 5 6 7; do repro-bench --figure $$n; done

tables:              ## Tables 1-2 from their suites (table1, table2)
	repro-bench --table 1
	repro-bench --table 2
