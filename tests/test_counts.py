"""Tests for the count layer (one Spark query per fine lattice)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.counts import GridCounts
from repro.core.grids import GridSpec, grid_spec, with_grid_ids
from repro.core.model_error import demand_counts
from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments.config import TESTS

SIDES = list(range(TESTS.s_min, TESTS.s_max + 1))


@pytest.mark.parametrize("n_side", SIDES)
def test_tensor_matches_demand_counts(nyc, nyc_counts, n_side):
    """The tensor is the densified (day, slot, mgrid) reference query."""
    spec = grid_spec(nyc.cfg, n_side, TESTS.N_side)
    pdf = demand_counts(nyc.events, spec).toPandas()
    ref = np.zeros((TESTS.days, TESTS.slots, spec.n))
    ref[pdf["day"], pdf["slot"], pdf["mgrid"]] = pdf["cnt"]
    assert np.array_equal(nyc_counts.tensor(spec), ref)


@pytest.mark.parametrize("n_side", SIDES)
def test_alphas_match_groupby(nyc, nyc_counts, n_side):
    """alpha is a Spark ``groupBy(slot, hgrid)`` over the training days,
    divided by their number."""
    spec = grid_spec(nyc.cfg, n_side, TESTS.N_side)
    pdf = (
        with_grid_ids(nyc.events, spec)
        .where(F.col("day").isin(TESTS.train_days))
        .groupBy("slot", "hgrid")
        .count()
        .toPandas()
    )
    ref = np.zeros((TESTS.slots, spec.fine_side**2))
    ref[pdf["slot"], pdf["hgrid"]] = pdf["count"].to_numpy(float) / len(TESTS.train_days)
    assert np.array_equal(nyc_counts.alphas(spec, TESTS.train_days), ref)


@pytest.mark.parametrize("n_side", [3, 4])
def test_day_counts_match_groupby(nyc, nyc_counts, n_side):
    """The per-day HGrid counts are the (day, hgrid, mgrid) query at one slot."""
    spec = grid_spec(nyc.cfg, n_side, TESTS.N_side)
    slot, days = TESTS.default_slot, TESTS.val_days
    ref = (
        with_grid_ids(nyc.events, spec)
        .where((F.col("slot") == slot) & F.col("day").isin(days))
        .groupBy("day", "hgrid", "mgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .toPandas()
        .sort_values(["day", "hgrid"])
        .reset_index(drop=True)
    )
    got = nyc_counts.day_counts(spec, slot, days)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_one_query_per_lattice(nyc, spark_jobs):
    """Sides 1, 2, 4 and 8 share the 16-lattice: only the first touch runs
    Spark; side 3 is on the 18-lattice and runs it again."""
    counts = GridCounts(nyc.events, days=TESTS.days, slots=TESTS.slots)

    def spec(s):
        return grid_spec(nyc.cfg, s, TESTS.N_side)

    _, first = spark_jobs(lambda: counts.cells(spec(1)))
    assert first > 0

    def same_lattice():
        for s in (2, 4, 8):
            counts.tensor(spec(s))
            counts.alphas(spec(s), TESTS.train_days)
            counts.day_counts(spec(s), TESTS.default_slot, TESTS.val_days)

    assert spark_jobs(same_lattice)[1] == 0
    assert spark_jobs(lambda: counts.tensor(spec(3)))[1] > 0


class TestRefusesUnbinnable:
    """Events the layer cannot bin raise instead of landing in a wrong cell."""

    W, H = 10.0, 20.0
    GOOD = [(0, 0, 0.0, 0.0), (1, 3, W, H), (0, 1, 5.0, 5.0)]

    def _counts(self, spark, rows):
        pdf = pd.DataFrame(rows, columns=["day", "slot", "x", "y"]).astype(
            {"day": "int32", "slot": "int32", "x": float, "y": float}
        )
        return GridCounts(spark.createDataFrame(pdf), days=2, slots=4)

    def _spec(self):
        return GridSpec(2, 4, self.W, self.H)

    def test_in_box_events_counted(self, spark):
        """Closed upper edges included: x == W and y == H are in the box."""
        cells = self._counts(spark, self.GOOD).cells(self._spec())
        assert cells["cnt"].sum() == len(self.GOOD)

    def test_negative_x_with_in_range_hgrid(self, spark):
        counts = self._counts(spark, self.GOOD + [(0, 1, -0.1, 12.0)])
        bad = with_grid_ids(counts.events, self._spec()).where(F.col("x") < 0).first()
        assert bad["fx"] == -1 and 0 <= bad["hgrid"] < self._spec().fine_side ** 2
        with pytest.raises(ValueError, match="^1 events"):
            counts.cells(self._spec())

    def test_nan_y(self, spark):
        rows = self.GOOD + [(0, 1, 3.0, float("nan"))]
        with pytest.raises(ValueError, match="^1 events"):
            self._counts(spark, rows).cells(self._spec())

    def test_slot_equal_to_slots(self, spark):
        rows = self.GOOD + [(1, 4, 3.0, 3.0), (1, 4, 3.0, 3.1)]
        with pytest.raises(ValueError, match="^2 events"):
            self._counts(spark, rows).cells(self._spec())


def test_results_independent_of_shuffle_partitions(spark, nyc):
    """cells and a bound evaluation are identical with 1 and 64 shuffle
    partitions."""
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    spec = grid_spec(nyc.cfg, 3, TESTS.N_side)
    out = []
    try:
        for parts in ("1", "64"):
            spark.conf.set(key, parts)
            counts = GridCounts(nyc.events, days=TESTS.days, slots=TESTS.slots)
            ev = UpperBoundEvaluator.for_city(spark, nyc, "deepst")
            out.append((counts.cells(spec), ev.evaluate(3, TESTS.default_slot)))
    finally:
        spark.conf.set(key, saved)
    (cells_1, bound_1), (cells_64, bound_64) = out
    pd.testing.assert_frame_equal(cells_1, cells_64)
    assert bound_1 == bound_64
