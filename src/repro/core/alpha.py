"""Estimation of the HGrid Poisson means alpha_ij and the unevenness metric
D_alpha(N) (paper §III-A).

``alpha_ij`` is the mean number of events in HGrid ``r_ij`` for one time
slot, estimated — as in the paper — as the average count over the same slot
of the training weekdays ("the average number of events at the same period
of all workdays in last one month", §V-B). The alpha table of a grid size
is :meth:`repro.core.counts.GridCounts.alphas`.

``D_alpha(N) = sum_ij |alpha_ij - mean(alpha)|`` (Eq. 2) measures how
uneven the spatial distribution is; Theorem III.1 shows it saturates once
HGrids are internally uniform, which is how a suitable N is selected.
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.core.counts import GridCounts
from repro.core.grids import grid_spec


def weekday_days(days: range | list[int]) -> list[int]:
    """Weekdays among ``days`` under the generator's convention (day 0 = Monday)."""
    return [d for d in days if d % 7 < 5]


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
    days: int,
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
    counts = GridCounts(events, days=days, slots=slots)
    d_values = [
        d_alpha(counts.alphas(grid_spec(cfg, s, s), train_days)[slot]) for s in cands
    ]
    chosen = cands[-1]
    for i in range(len(cands) - 1):
        prev = d_values[i]
        if prev > 0 and (d_values[i + 1] - prev) / prev < rel_tol:
            chosen = cands[i]
            break
    return NSelection(cands, d_values, chosen)
