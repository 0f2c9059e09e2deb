"""Tests for measured real error (Def. 3) and Theorem II.1."""
import numpy as np
import pytest

from repro.core.expression_error import total_expression_error_local
from repro.core.grids import grid_spec
from repro.core.model_error import predictions_for, total_model_error
from repro.core.real_error import measured_expression_error, measured_real_error
from repro.experiments.config import TESTS
from repro.models import DeepSTLike


def _analytic_expression_error(counts, spec) -> float:
    """Algorithm 2 summed over every HGrid at the default slot."""
    alphas = counts.alphas(spec, TESTS.train_days)[TESTS.default_slot]
    return total_expression_error_local(alphas, spec.mgrid_of_hgrid, spec.m)


@pytest.fixture(scope="module")
def setup(nyc, nyc_counts):
    spec = grid_spec(nyc.cfg, 4, 16)
    tensor = nyc_counts.tensor(spec)
    model = DeepSTLike().fit(tensor, TESTS.train_days, TESTS.default_slot)
    return spec, tensor, model


def _brute_real_error(nyc_counts, spec, tensor, model, slot, days):
    """Reference: materialise the full HGrid lattice per day in pandas."""
    preds = predictions_for(tensor, model, days, slot)
    counts = nyc_counts.day_counts(spec, slot, days)
    fs = spec.fine_side
    mg = spec.mgrid_of_hgrid
    total = 0.0
    for k, d in enumerate(days):
        lam = np.zeros(fs * fs)
        sel = counts[counts["day"] == d]
        lam[sel["hgrid"].to_numpy(int)] = sel["cnt"].to_numpy(float)
        lam_hat = preds[k][mg] / spec.m
        total += np.abs(lam_hat - lam).sum()
    return total / len(days)


def test_measured_real_error_matches_bruteforce(nyc_counts, setup):
    spec, tensor, model = setup
    fast = measured_real_error(
        nyc_counts, spec, tensor, model,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    ref = _brute_real_error(
        nyc_counts, spec, tensor, model, TESTS.default_slot, TESTS.val_days
    )
    assert fast == pytest.approx(ref, rel=1e-9)


def test_real_error_nonnegative(nyc_counts, setup):
    spec, tensor, model = setup
    assert (
        measured_real_error(
            nyc_counts, spec, tensor, model,
            slot=TESTS.default_slot, eval_days=TESTS.val_days,
        )
        >= 0
    )


@pytest.mark.parametrize("n_side", [2, 4, 8])
def test_theorem_II_1_bound_dominates(nyc, nyc_counts, n_side):
    """E_r <= E_m + E_e in total, measured on held-out days.

    The bound uses the analytic expression error (Algorithm 2 over
    estimated alphas) and the measured model error; a modest slack covers
    sampling noise of the 4 validation days.
    """
    spec = grid_spec(nyc.cfg, n_side, 16)
    tensor = nyc_counts.tensor(spec)
    model = DeepSTLike().fit(tensor, TESTS.train_days, TESTS.default_slot)
    me = total_model_error(tensor, model, eval_days=TESTS.val_days, slot=TESTS.default_slot)
    ee = _analytic_expression_error(nyc_counts, spec)
    re = measured_real_error(
        nyc_counts, spec, tensor, model,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    assert re <= (me + ee) * 1.10


def test_measured_expression_error_close_to_analytic(nyc, nyc_counts):
    """Def. 5 measured on held-out weekdays ~ Algorithm 2's expectation."""
    spec = grid_spec(nyc.cfg, 4, 16)
    analytic = _analytic_expression_error(nyc_counts, spec)
    empirical = measured_expression_error(
        nyc_counts, spec,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    assert empirical == pytest.approx(analytic, rel=0.25)


def test_perfect_model_real_error_equals_empirical_expression_error(nyc, nyc_counts):
    """With lambda_hat_i = lambda_i (oracle forecasts), Def. 3 real error
    *is* Def. 5 expression error — the paper's 'real order data' identity."""
    spec = grid_spec(nyc.cfg, 4, 16)
    tensor = nyc_counts.tensor(spec)

    class Oracle:
        name = "oracle"

        def fit(self, t, days, slot=None):
            return self

        def predict(self, t, d, s):
            return t[d, s]

    re = measured_real_error(
        nyc_counts, spec, tensor, Oracle(),
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    ee = measured_expression_error(
        nyc_counts, spec,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    assert re == pytest.approx(ee, rel=1e-9)
