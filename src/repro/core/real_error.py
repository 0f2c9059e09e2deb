"""Measured real error (paper Def. 3) — the quantity the bound dominates.

``E_r(i,j) = E|lambda_hat_ij - lambda_ij|`` with
``lambda_hat_ij = lambda_hat_i / m`` (the MGrid prediction spread uniformly
over its HGrids). We estimate the expectation over held-out days, exactly
as the paper estimates it over "the same time period on each day of the
previous one month". Zero-count HGrids are handled in closed form instead
of materialising the full lattice per day: a day's HGrids of MGrid i that
saw no event each contribute |lambda_hat_i/m - 0|.
"""
import numpy as np

from repro.core.counts import GridCounts
from repro.core.grids import GridSpec
from repro.core.model_error import predictions_for
from repro.models.base import Predictor


def measured_real_error(
    counts: GridCounts,
    spec: GridSpec,
    tensor: np.ndarray,
    model: Predictor,
    *,
    slot: int,
    eval_days: list[int],
) -> float:
    """``sum_ij E_r(i,j)`` estimated over ``eval_days`` for one slot."""
    preds = predictions_for(tensor, model, eval_days, slot)  # (k, n)
    return _spread_error(counts, spec, preds, slot, eval_days)


def measured_expression_error(
    counts: GridCounts,
    spec: GridSpec,
    *,
    slot: int,
    eval_days: list[int],
) -> float:
    """Empirical ``sum_ij E|lambda_bar_ij - lambda_ij|`` where
    ``lambda_bar_ij = lambda_i(day)/m`` uses the day's *actual* MGrid total
    (Def. 5) — the sanity twin of the analytic Algorithm-2 value, and the
    real error of a forecast that is the day's own MGrid counts."""
    actual = counts.tensor(spec)[eval_days, slot]  # (k, n)
    return _spread_error(counts, spec, actual, slot, eval_days)


def _spread_error(
    counts: GridCounts, spec: GridSpec, totals: np.ndarray, slot: int, days: list[int]
) -> float:
    """``sum_ij |totals[k, i] / m - lambda_ij|`` averaged over ``days``, where
    row k of the per-MGrid ``totals`` is day ``days[k]``."""
    per_h = totals / spec.m  # lambda_hat_ij per (day, mgrid)
    # start from the all-zero-HGrid total: sum_i m * (x_i/m) = sum_i x_i
    total = float(totals.sum())
    day_counts = counts.day_counts(spec, slot, days)
    k = day_counts["day"].map({d: i for i, d in enumerate(days)}).to_numpy(int)
    ph = per_h[k, day_counts["mgrid"].to_numpy(int)]
    c = day_counts["cnt"].to_numpy(float)
    total += float((np.abs(ph - c) - ph).sum())
    return total / len(days)
