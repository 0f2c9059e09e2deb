"""Model error: total E_m ~ n * MAE(f) (paper §III-C, Eq. 20).

The per-MGrid demand series is a driver-side numpy tensor ``(days, slots,
n)`` (:meth:`repro.core.counts.GridCounts.tensor`) — driver-sized by design
(n <= a few thousand MGrids x ~1.6k slots); :func:`demand_counts` is the
direct Spark aggregation it is tested against. Eq. 20 shows ``sum_ij
E_m(i,j) = sum_i E|lambda_hat_i - lambda_i| ~ n * MAE(f)``; we estimate the
right-hand side directly as the summed per-MGrid absolute error averaged
over validation days.
"""
import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grids import GridSpec, with_grid_ids
from repro.models.base import Predictor


def demand_counts(events: DataFrame, spec: GridSpec) -> DataFrame:
    """Event counts per (day, slot, mgrid) — the series-building aggregation."""
    return (
        with_grid_ids(events, spec)
        .groupBy("day", "slot", "mgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def predictions_for(
    tensor: np.ndarray, model: Predictor, days: list[int], slot: int
) -> np.ndarray:
    """Model predictions per MGrid for ``slot`` on each of ``days``: (k, n)."""
    return np.stack([model.predict(tensor, d, slot) for d in days])


def total_model_error(
    tensor: np.ndarray, model: Predictor, *, eval_days: list[int], slot: int
) -> float:
    """``sum_i E|lambda_hat_i - lambda_i|`` for one slot, averaged over
    ``eval_days`` — the paper's ``n * MAE(f)`` (Eq. 20). The model must
    already be fitted; eval days must be disjoint from its training days."""
    preds = predictions_for(tensor, model, eval_days, slot)
    actual = tensor[eval_days, slot, :]
    return float(np.abs(preds - actual).mean(axis=0).sum())


def mae(tensor: np.ndarray, model: Predictor, *, eval_days: list[int], slot: int) -> float:
    """Plain per-sample MAE(f) of the fitted model on ``eval_days`` x grids."""
    preds = predictions_for(tensor, model, eval_days, slot)
    actual = tensor[eval_days, slot, :]
    return float(np.abs(preds - actual).mean())

