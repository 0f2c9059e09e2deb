"""Tests for alpha estimation and D_alpha(N) (paper §III-A)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core.alpha import d_alpha, select_N, weekday_days
from repro.core.grids import grid_spec
from repro.experiments.config import TESTS
from repro.oracle import assert_equivalent


def test_weekday_days():
    assert weekday_days(range(14)) == [0, 1, 2, 3, 4, 7, 8, 9, 10, 11]
    assert weekday_days([5, 6, 12, 13]) == []


class TestAlphaByHGrid:
    @pytest.fixture(scope="class")
    def alpha(self, nyc, nyc_counts):
        spec = grid_spec(nyc.cfg, 4, 16)
        return spec, nyc_counts.alphas(spec, TESTS.train_days)

    def test_lattice_complete(self, alpha):
        """One alpha per (slot, HGrid) of the whole lattice, zeros included."""
        spec, a = alpha
        assert a.shape == (TESTS.slots, spec.fine_side**2)

    def test_total_mass(self, nyc, alpha):
        """sum(alpha) * len(train_days) = total training events at the slot."""
        _, a = alpha
        total = a[TESTS.default_slot].sum() * len(TESTS.train_days)
        expected = nyc.events.where(
            (F.col("slot") == TESTS.default_slot)
            & F.col("day").isin(TESTS.train_days)
        ).count()
        assert total == pytest.approx(expected, abs=1e-6)

    def test_alpha_nonnegative(self, alpha):
        _, a = alpha
        assert (a >= 0).all()

    def test_matches_duckdb(self, spark, nyc, nyc_pdf, alpha):
        """Oracle: the nonzero alphas equal a DuckDB aggregation."""
        spec, a = alpha
        row = a[TESTS.default_slot]
        (hgrid,) = np.nonzero(row)
        got = spark.createDataFrame(
            pd.DataFrame({"hgrid": hgrid, "alpha": row[hgrid]})
        )
        w, h, fs = nyc.cfg.width_km, nyc.cfg.height_km, spec.fine_side
        days = ", ".join(str(d) for d in TESTS.train_days)
        assert_equivalent(
            got,
            f"""
            SELECT least(CAST(floor(y / {h / fs}) AS INT), {fs - 1}) * {fs}
                   + least(CAST(floor(x / {w / fs}) AS INT), {fs - 1}) AS hgrid,
                   count(*) / {float(len(TESTS.train_days))} AS alpha
            FROM events
            WHERE slot = {TESTS.default_slot} AND day IN ({days})
            GROUP BY 1
            """,
            events=nyc_pdf,
        )

    def test_estimates_true_means(self, nyc, alpha):
        """alpha_hat tracks the generator's ground truth in aggregate."""
        spec, a = alpha
        mu = sd.true_cell_means(nyc.cfg, sf=TESTS.sf, slot=TESTS.default_slot,
                                side=spec.fine_side)
        est = a[TESTS.default_slot]
        assert est.sum() == pytest.approx(mu.sum(), rel=0.1)
        # hottest decile of truth is also hot in the estimate
        truth = mu.ravel()
        hot = truth >= np.quantile(truth, 0.9)
        assert est[hot].sum() > 0.5 * est.sum()


class TestDAlpha:
    def test_uniform_field_zero(self):
        assert d_alpha(np.full(4, 2.0)) == pytest.approx(0.0)

    def test_matches_numpy(self):
        vals = np.array([0.0, 1.0, 5.0, 2.0, 0.0, 4.0])
        expect = np.abs(vals - vals.mean()).sum()
        assert d_alpha(vals) == pytest.approx(expect)

    def test_theorem_III_1_uniform_subdivision(self):
        """D_alpha(N) == D_alpha(NK) when HGrids are internally uniform:
        subdividing each cell into K children with alpha/K each."""
        rng = np.random.default_rng(3)
        vals = rng.random(16) * 5
        K = 4
        d1 = d_alpha(vals)
        d2 = d_alpha(np.repeat(vals / K, K))
        assert d2 == pytest.approx(d1, rel=1e-9)

    def test_increases_with_N_on_uneven_city(self, nyc, nyc_counts):
        ds = []
        for s in (2, 4, 8, 16):
            spec = grid_spec(nyc.cfg, s, s)
            a = nyc_counts.alphas(spec, TESTS.train_days)
            ds.append(d_alpha(a[TESTS.default_slot]))
        assert ds == sorted(ds)
        assert ds[-1] > ds[0]


def test_select_N_returns_candidate(xian):
    sel = select_N(
        xian.events, xian.cfg, slot=TESTS.default_slot, days=TESTS.days,
        slots=TESTS.slots, train_days=TESTS.train_days, candidates=[4, 8, 16],
    )
    assert sel.chosen_N_side in sel.candidates
    assert len(sel.d_values) == 3
    assert all(d >= 0 for d in sel.d_values)
