"""Benchmark harness configuration.

Each experiment benchmark runs its full experiment exactly once
(``pedantic(rounds=1)``), prints the regenerated table/figure, records the
key metrics in ``benchmark.extra_info`` and asserts the paper's *shape*
criteria (DESIGN.md §5). Run with::

    pytest benchmarks/ --benchmark-only
"""


def run_once(benchmark, fn, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
