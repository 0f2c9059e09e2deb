"""Tests for the Algorithm-3 bound evaluator."""
import pytest

from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments.config import TESTS


@pytest.fixture(scope="module")
def evaluator(spark, nyc):
    return UpperBoundEvaluator.for_city(spark, nyc, "deepst")


def test_bound_is_sum_of_components(evaluator):
    r = evaluator.evaluate(4, TESTS.default_slot)
    assert r.bound == pytest.approx(r.model_error + r.expr_error)
    assert r.model_error >= 0 and r.expr_error >= 0


def test_memoised(evaluator):
    before = evaluator.calls
    r1 = evaluator.evaluate(5, TESTS.default_slot)
    mid = evaluator.calls
    r2 = evaluator.evaluate(5, TESTS.default_slot)
    assert mid == before + 1 and evaluator.calls == mid
    assert r1 is r2


def test_distinct_slots_are_distinct_problems(evaluator):
    r_am = evaluator.evaluate(4, 17)
    r_night = evaluator.evaluate(4, 2)
    # the 8:30 AM peak carries far more demand than 1 AM
    assert r_am.expr_error > r_night.expr_error


def test_bound_fn_matches_evaluate(evaluator):
    fn = evaluator.bound_fn(TESTS.default_slot)
    assert fn(6) == evaluator.evaluate(6, TESTS.default_slot).bound


def test_second_slot_at_same_n_runs_no_spark_job(evaluator, spark_jobs):
    evaluator.evaluate(7, 10)
    calls = evaluator.calls
    _, jobs = spark_jobs(lambda: evaluator.evaluate(7, 11))
    assert jobs == 0 and evaluator.calls == calls + 1


def test_elapsed_accumulates(evaluator):
    before = evaluator.elapsed
    evaluator.evaluate(2, 20)
    assert evaluator.elapsed > before

