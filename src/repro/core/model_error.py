"""Model error: total E_m ~ n * MAE(f) (paper §III-C, Eq. 20).

The per-MGrid demand series is a Spark aggregation
(``groupBy(day, slot, mgrid).count()``) densified into a driver-side numpy
tensor ``(days, slots, n)`` — driver-sized by design (n <= a few thousand
MGrids x ~1.6k slots). Eq. 20 shows ``sum_ij E_m(i,j) = sum_i
E|lambda_hat_i - lambda_i| ~ n * MAE(f)``; we estimate the right-hand side
directly as the summed per-MGrid absolute error averaged over validation
days.
"""
import numpy as np
import pandas as pd
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


def demand_tensor(
    events: DataFrame, spec: GridSpec, *, days: int, slots: int
) -> np.ndarray:
    """Dense ``(days, slots, n)`` count tensor (missing combinations are 0)."""
    pdf = demand_counts(events, spec).toPandas()
    t = np.zeros((days, slots, spec.n))
    t[
        pdf["day"].to_numpy(int),
        pdf["slot"].to_numpy(int),
        pdf["mgrid"].to_numpy(int),
    ] = pdf["cnt"].to_numpy(float)
    return t


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


def hgrid_counts_for_days(
    events: DataFrame,
    spec: GridSpec,
    *,
    slot: int,
    days: list[int],
) -> pd.DataFrame:
    """Actual per-HGrid counts for each of ``days`` at ``slot`` — used to
    *measure* real error (Def. 3) against a model's spread-out predictions.
    Returns a pandas frame (day, hgrid, mgrid, cnt) with zero rows omitted;
    callers reconstruct zeros from the lattice."""
    return (
        with_grid_ids(events, spec)
        .where((F.col("slot") == slot) & F.col("day").isin([int(d) for d in days]))
        .groupBy("day", "hgrid", "mgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .toPandas()
    )
