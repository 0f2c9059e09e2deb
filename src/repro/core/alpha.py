"""Estimation of the HGrid Poisson means alpha_ij and the unevenness metric
D_alpha(N) (paper §III-A).

``alpha_ij`` is the mean number of events in HGrid ``r_ij`` for one time
slot, estimated — as in the paper — as the average count over the same slot
of the training weekdays ("the average number of events at the same period
of all workdays in last one month", §V-B).

``D_alpha(N) = sum_ij |alpha_ij - mean(alpha)|`` (Eq. 2) measures how
uneven the spatial distribution is; Theorem III.1 shows it saturates once
HGrids are internally uniform, which is how a suitable N is selected.
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grids import GridSpec, grid_spec, with_grid_ids


def weekday_days(days: range | list[int]) -> list[int]:
    """Weekdays among ``days`` under the generator's convention (day 0 = Monday)."""
    return [d for d in days if d % 7 < 5]


def alpha_table(
    events: DataFrame, spec: GridSpec, *, slots: int, train_days: list[int]
) -> np.ndarray:
    """Dense ``(slots, fine_side^2)`` alphas, indexed ``[slot, hgrid]``.

    One Spark aggregation, ``groupBy(slot, hgrid)`` over ``train_days``,
    serves every slot of a grid size. HGrids that saw no event keep alpha 0
    (zero-alpha HGrids still carry expression error); alpha = total events
    divided by the number of training days (days with zero events count in
    the mean). Group HGrids by MGrid with ``spec.mgrid_of_hgrid``.
    """
    if not train_days:
        raise ValueError("train_days must be non-empty")
    pdf = (
        with_grid_ids(events, spec)
        .where(F.col("day").isin([int(d) for d in train_days]))
        .groupBy("slot", "hgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .toPandas()
    )
    dense = np.zeros((slots, spec.fine_side**2))
    dense[pdf["slot"].to_numpy(int), pdf["hgrid"].to_numpy(int)] = (
        pdf["cnt"].to_numpy(float) / len(train_days)
    )
    return dense


def d_alpha(alphas: np.ndarray) -> float:
    """``D_alpha(N) = sum_ij |alpha_ij - alpha_bar|`` (Eq. 2) over the lattice."""
    return float(np.abs(alphas - alphas.mean()).sum())


@dataclass(frozen=True)
class NSelection:
    """Result of the §III-A procedure: D_alpha per candidate N_side and the
    chosen N_side (first candidate past which relative growth of D_alpha,
    per doubling, falls under ``rel_tol``)."""

    candidates: list[int]
    d_values: list[float]
    chosen_N_side: int


def select_N(
    events: DataFrame,
    cfg,
    *,
    slot: int,
    slots: int,
    train_days: list[int],
    candidates: list[int] = (8, 16, 32, 64, 128),
    rel_tol: float = 0.10,
) -> NSelection:
    """Pick N by the saturation of D_alpha(N) (paper §III-A / Appendix C).

    Computes D_alpha on an ``N_side x N_side`` lattice for each candidate
    (n_side = N_side here, i.e. nm = N) and picks the first N_side whose
    next doubling grows D_alpha by less than ``rel_tol`` relatively — the
    "turning point" of Fig. 14. Falls back to the largest candidate.
    """
    cands = sorted(candidates)
    d_values = [
        d_alpha(
            alpha_table(
                events, grid_spec(cfg, s, s), slots=slots, train_days=train_days
            )[slot]
        )
        for s in cands
    ]
    chosen = cands[-1]
    for i in range(len(cands) - 1):
        prev = d_values[i]
        if prev > 0 and (d_values[i + 1] - prev) / prev < rel_tol:
            chosen = cands[i]
            break
    return NSelection(cands, d_values, chosen)
