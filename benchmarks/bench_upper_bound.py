"""Benchmark: one Algorithm-3 UpperBound evaluation with its lattice
already counted (the warm-up round runs the count query) — model fit,
model error and expression-error kernel, the unit of cost every §IV search
algorithm pays per candidate n."""
import pytest

from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments.config import BENCH


@pytest.fixture(scope="module")
def evaluator(spark, bench_nyc):
    return UpperBoundEvaluator.for_city(spark, bench_nyc, "deepst")


@pytest.mark.parametrize("n_side", [2, 4, 8, 16])
def test_upper_bound_evaluation(benchmark, evaluator, n_side):
    slot = iter(range(BENCH.slots))

    def run():
        # a fresh slot each round so memoisation never short-circuits
        return evaluator.evaluate(n_side, next(slot)).bound

    out = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert out > 0
