"""Table III — promotion of prediction-based algorithms at the tuned n.

The paper reruns POLAR, LS and DAIF at the n found by GridTuner instead of
the original papers' defaults (16x16 or 20x20 of 128) and reports the
improvement per (metric, algorithm). Here: the original sides are the
paper's values rescaled to our lattice, the tuned side comes from the
Iterative Method over the bound (the paper's preferred search), and every
algorithm is replayed on the synthetic test day at both grid sizes.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.counts import GridCounts
from repro.core.grids import grid_spec
from repro.core.search import iterative_method
from repro.core.upper_bound import UpperBoundEvaluator
from repro.dispatch.ls import ls_weights, mean_fare_by_cell
from repro.dispatch.polar import polar_weights
from repro.dispatch.simulator import DispatchMetrics, day_orders, simulate_day
from repro.experiments.config import CityData
from repro.models import MODELS
from repro.routing.daif import run_daif_day


@dataclass(frozen=True)
class CaseStudyRun:
    """All §V-D metrics for one grid side s on the test day."""

    s: int
    polar: DispatchMetrics
    ls: DispatchMetrics
    daif_served: int
    daif_cost: float


def _predictions_by_slot(
    data: CityData, s: int, model_name: str, oracle: bool
) -> tuple[np.ndarray, object]:
    """(slots, n) demand for the test day at grid side s: the model's
    forecasts (trained once per s on all slots, as the original systems
    train theirs), or with ``oracle`` the test day's actual counts."""
    st = data.settings
    spec = grid_spec(data.cfg, s, st.N_side)
    tensor = GridCounts(data.events, days=st.days, slots=st.slots).tensor(spec)
    if oracle:
        return tensor[st.test_day], spec
    model = MODELS[model_name]().fit(tensor, st.train_days)
    preds = np.stack(
        [model.predict(tensor, st.test_day, t) for t in range(st.slots)]
    )
    return preds, spec


def case_study_run(
    spark: SparkSession,
    data: CityData,
    s: int,
    *,
    model_name: str = "deepst",
    P: int | None = None,
    n_drivers: int | None = None,
    n_vehicles: int | None = None,
    oracle: bool = False,
) -> CaseStudyRun:
    """Replay POLAR / LS / DAIF on the test day with forecasts at side s.

    ``oracle=True`` replaces the forecast with the test day's *actual*
    per-MGrid counts (the paper's "real order data" mode: model error 0,
    real error = expression error only).
    """
    st = data.settings
    P = st.N_side if P is None else P
    orders = day_orders(data.events, data.cfg, day=st.test_day, P=P)
    preds, spec = _predictions_by_slot(data, s, model_name, oracle)
    n_drivers = max(50, int(0.02 * len(orders))) if n_drivers is None else n_drivers
    n_vehicles = max(30, int(0.008 * len(orders))) if n_vehicles is None else n_vehicles
    w_polar = polar_weights(preds, spec, P)
    fares = mean_fare_by_cell(data.events, data.cfg, P=P, train_days=st.train_days)
    w_ls = ls_weights(preds, spec, P, fares)
    polar = simulate_day(orders, w_polar, P=P, n_drivers=n_drivers, slots=st.slots)
    ls = simulate_day(orders, w_ls, P=P, n_drivers=n_drivers, slots=st.slots)
    daif = run_daif_day(
        orders,
        w_polar,
        P=P,
        width_km=data.cfg.width_km,
        height_km=data.cfg.height_km,
        n_vehicles=n_vehicles,
        slots=st.slots,
    )
    return CaseStudyRun(
        s=s, polar=polar, ls=ls, daif_served=daif.served, daif_cost=daif.unified_cost
    )


def find_optimal_s(
    spark: SparkSession, data: CityData, *, model_name: str = "deepst",
    slot: int | None = None, b: int = 3,
) -> int:
    """GridTuner's tuned side: Iterative Method (Alg. 5) over the bound."""
    st = data.settings
    evaluator = UpperBoundEvaluator.for_city(spark, data, model_name)
    slot = st.default_slot if slot is None else slot
    res = iterative_method(
        evaluator.bound_fn(slot), st.s_min, st.s_max, p=st.s_default, b=b
    )
    return res.s_opt


# (metric, algorithm, original side as a fraction of the paper's 128-lattice)
TABLE3_ROWS = (
    ("Served Order Number", "POLAR", 16),
    ("Total Revenue", "POLAR", 16),
    ("Total Revenue", "LS", 20),
    ("Served Order Number", "LS", 20),
    ("Unified Cost", "DAIF", 16),
    ("Served Requests", "DAIF", 20),
)


def run_table3(
    spark: SparkSession,
    data: CityData,
    *,
    model_name: str = "deepst",
    optimal_s: int | None = None,
    **case_kwargs,
) -> pd.DataFrame:
    """Produce Table III: one row per (metric, algorithm) with the original
    n, the tuned n, both metric values, and the improvement ratio."""
    st = data.settings
    if optimal_s is None:
        optimal_s = find_optimal_s(spark, data, model_name=model_name)
    runs: dict[int, CaseStudyRun] = {}

    def at(s: int) -> CaseStudyRun:
        if s not in runs:
            runs[s] = case_study_run(spark, data, s, model_name=model_name, **case_kwargs)
        return runs[s]

    def metric(run: CaseStudyRun, metric_name: str, algo: str) -> float:
        if algo == "POLAR":
            return run.polar.served if metric_name.startswith("Served") else run.polar.revenue
        if algo == "LS":
            return run.ls.served if metric_name.startswith("Served") else run.ls.revenue
        return run.daif_cost if metric_name == "Unified Cost" else run.daif_served

    rows = []
    for metric_name, algo, paper_orig in TABLE3_ROWS:
        s_orig = max(1, round(paper_orig * st.N_side / 128))
        v_orig = metric(at(s_orig), metric_name, algo)
        v_opt = metric(at(optimal_s), metric_name, algo)
        lower_better = metric_name == "Unified Cost"
        improve = (v_orig - v_opt) / v_orig if lower_better else (v_opt - v_orig) / v_orig
        rows.append(
            {
                "metric": metric_name,
                "algorithm": algo,
                "original_n": f"{s_orig}x{s_orig}",
                "optimal_n": f"{optimal_s}x{optimal_s}",
                "value_original": v_orig,
                "value_optimal": v_opt,
                "improve_ratio": improve,
            }
        )
    return pd.DataFrame(rows)
