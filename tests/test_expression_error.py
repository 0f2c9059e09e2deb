"""Tests for expression error (paper §III-B, Eq. 7, Algorithms 1-2)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alpha import alpha_table
from repro.core.expression_error import (
    expression_error_alg1,
    expression_error_alg2,
    expression_error_direct,
    expression_error_fast,
    total_expression_error_local,
)
from repro.core.grids import grid_spec
from repro.experiments.config import TESTS

CASES = [
    (0.5, 3.0, 4, 40),
    (2.0, 10.0, 9, 50),
    (0.0, 5.0, 16, 30),
    (7.0, 1.0, 4, 80),
    (1.0, 0.0, 2, 40),
    (0.0, 0.0, 8, 10),
    (3.3, 3.3, 2, 60),
]


@pytest.mark.parametrize("alpha,beta,m,K", CASES)
class TestImplementationsAgree:
    def test_alg1_equals_direct(self, alpha, beta, m, K):
        assert expression_error_alg1(alpha, beta, m, K) == pytest.approx(
            expression_error_direct(alpha, beta, m, K), rel=1e-10, abs=1e-12
        )

    def test_alg2_equals_direct(self, alpha, beta, m, K):
        assert expression_error_alg2(alpha, beta, m, K) == pytest.approx(
            expression_error_direct(alpha, beta, m, K), rel=1e-10, abs=1e-12
        )

    def test_fast_matches_direct(self, alpha, beta, m, K):
        alphas = np.concatenate([[alpha], np.full(m - 1, beta / max(m - 1, 1))])
        got = expression_error_fast(alphas, m, K)[0]
        assert got == pytest.approx(
            expression_error_direct(alpha, beta, m, K), rel=1e-8, abs=1e-10
        )


@pytest.mark.parametrize("alpha,beta,m", [(0.7, 2.0, 4), (3.0, 9.0, 16), (0.2, 40.0, 64)])
def test_matches_monte_carlo(alpha, beta, m):
    rng = np.random.default_rng(42)
    lh = rng.poisson(alpha, 500_000)
    lm = rng.poisson(beta, 500_000)
    mc = np.abs((m - 1) * lh - lm).mean() / m
    alphas = np.concatenate([[alpha], np.full(m - 1, beta / (m - 1))])
    assert expression_error_fast(alphas, m, None)[0] == pytest.approx(mc, rel=0.01)


def test_m_equals_one_is_zero():
    assert expression_error_alg1(5.0, 0.0, 1, 50) == 0.0
    assert expression_error_alg2(5.0, 0.0, 1, 50) == 0.0
    assert expression_error_fast(np.array([5.0]), 1, 50)[0] == 0.0


class TestConvergenceInK:
    """Theorem III.2: truncation error vanishes as K grows."""

    @pytest.mark.parametrize("alpha,beta,m", [(1.5, 6.0, 4), (4.0, 2.0, 3)])
    def test_monotone_in_K(self, alpha, beta, m):
        vals = [expression_error_direct(alpha, beta, m, K) for K in (5, 10, 20, 40, 80)]
        # truncated sums of positive terms grow in K (up to float round-off
        # once converged)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,beta,m", [(1.5, 6.0, 4), (4.0, 2.0, 3)])
    def test_converges_to_auto_K(self, alpha, beta, m):
        alphas = np.concatenate([[alpha], np.full(m - 1, beta / (m - 1))])
        ref = expression_error_fast(alphas, m, None)[0]
        assert expression_error_direct(alpha, beta, m, 120) == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("alpha,beta,m,K", CASES)
def test_lemma_III_1_upper_bound(alpha, beta, m, K):
    """sum b_{k_h,k_m} < (1 - 2/m) alpha + alpha_bar_i (Lemma III.1);
    the lemma's bound can be negative-free only for m >= 2."""
    if m < 2:
        pytest.skip("lemma stated for m >= 2")
    bound = (1 - 2 / m) * alpha + (alpha + beta) / m
    if bound <= 0:
        pytest.skip("degenerate all-zero case")
    assert expression_error_direct(alpha, beta, m, K) < bound + 1e-12


@given(
    alpha=st.floats(0.0, 6.0),
    beta=st.floats(0.0, 12.0),
    m=st.integers(2, 12),
)
@settings(max_examples=40, deadline=None)
def test_alg2_equals_direct_property(alpha, beta, m):
    K = 40
    assert expression_error_alg2(alpha, beta, m, K) == pytest.approx(
        expression_error_direct(alpha, beta, m, K), rel=1e-8, abs=1e-10
    )


class TestFastKernel:
    def test_shape_and_dedupe(self):
        alphas = np.array([1.0, 1.0, 2.0, 0.0])
        out = expression_error_fast(alphas, 4, None)
        assert out.shape == (4,)
        assert out[0] == out[1]  # identical alphas share the evaluation
        assert (out >= 0).all()

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            expression_error_fast(np.ones(4), 5, None)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            expression_error_fast(np.ones((2, 2)), 4, None)

    def test_zero_alpha_still_positive_error(self):
        """An empty HGrid inside a busy MGrid still gets beta/m of error."""
        alphas = np.array([0.0, 8.0, 8.0, 8.0])
        out = expression_error_fast(alphas, 4, None)
        assert out[0] == pytest.approx(24.0 / 4, rel=1e-6)

    def test_large_beta_stable(self):
        """Log-space windowing avoids underflow where Alg. 1/2 cannot go."""
        alphas = np.concatenate([[5.0], np.full(255, 30.0)])
        out = expression_error_fast(alphas, 256, None)
        assert np.isfinite(out).all() and (out >= 0).all()


def _wide_K(lam: float) -> int:
    """A truncation far past Poisson(lam)'s mass (20 sigma)."""
    return int(lam + 20.0 * math.sqrt(lam)) + 20


@pytest.mark.parametrize("n_side", [3, 4])  # at 3, fine_side 18 != N_side 16
def test_local_total_matches_literal_alg2(nyc, n_side):
    """The production total over real NYC alphas equals the paper's literal
    Algorithm 2 run per HGrid and summed, HGrids grouped into MGrids by
    ``GridSpec.mgrid_of_hgrid``."""
    spec = grid_spec(nyc.cfg, n_side, TESTS.N_side)
    alphas = alpha_table(
        nyc.events, spec, slots=TESTS.slots, train_days=TESTS.train_days
    )[TESTS.default_slot]
    mg = spec.mgrid_of_hgrid
    ref = 0.0
    for g in range(spec.n):
        a = alphas[mg == g]
        for aj in a:
            beta = float(a.sum() - aj)
            K = max(_wide_K(aj), -(-_wide_K(beta) // (spec.m - 1)))
            ref += expression_error_alg2(float(aj), beta, spec.m, K)
    assert ref > 0
    got = total_expression_error_local(alphas, mg, spec.m, TESTS.K)
    assert got == pytest.approx(ref, rel=1e-8)
