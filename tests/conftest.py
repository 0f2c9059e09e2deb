"""Shared fixtures for the GridTuner reproduction tests.

Heavy inputs (city event frames, error curves) are session-scoped so the
suite builds each expensive artefact exactly once.
"""
import itertools

import pytest

from repro.core.counts import GridCounts
from repro.experiments.config import TESTS, load_city


@pytest.fixture(scope="session")
def nyc(spark):
    """NYC twin at unit-test scale (SF=0.01), cached in Spark."""
    return load_city(spark, "nyc", TESTS)


@pytest.fixture(scope="session")
def nyc_counts(nyc):
    """The count layer over the NYC twin: one Spark query per fine lattice,
    shared by the whole session."""
    return GridCounts(nyc.events, days=TESTS.days, slots=TESTS.slots)


@pytest.fixture(scope="session")
def chengdu(spark):
    return load_city(spark, "chengdu", TESTS)


@pytest.fixture(scope="session")
def xian(spark):
    return load_city(spark, "xian", TESTS)


@pytest.fixture(scope="session")
def nyc_pdf(nyc):
    """The NYC events as pandas (for DuckDB oracle comparisons)."""
    return nyc.events.toPandas()


@pytest.fixture(scope="session")
def spark_jobs(spark):
    """``spark_jobs(fn) -> (fn(), number of Spark jobs fn ran)``, counted
    under a job group of its own."""
    sc = spark.sparkContext
    groups = itertools.count()

    def run(fn):
        group = f"tests.spark_jobs.{next(groups)}"
        prev = sc.getLocalProperty("spark.jobGroup.id")
        sc.setLocalProperty("spark.jobGroup.id", group)
        try:
            out = fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", prev)
        return out, len(sc.statusTracker().getJobIdsForGroup(group))

    return run
