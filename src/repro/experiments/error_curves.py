"""Error-vs-n curves (paper §V-C, Figures 3-5 — reproduced as data).

For a sweep of grid sizes n this computes, per the paper's definitions:
total expression error (Algorithm 2), total model error (Eq. 20), their sum
(the upper bound of Theorem II.1), and the *measured* real error on
held-out days. The bound is built from the same pieces as Algorithm 3's
search evaluator (:mod:`repro.core.upper_bound`). Figures are out of
scope; the trend assertions in ``tests/test_trends.py`` and the table
harnesses consume these frames.
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.counts import GridCounts
from repro.core.expression_error import total_expression_error_local
from repro.core.grids import grid_spec
from repro.core.model_error import total_model_error
from repro.core.real_error import measured_real_error
from repro.experiments.config import CityData
from repro.models import MODELS


def error_curves(
    spark: SparkSession,
    data: CityData,
    *,
    model_name: str = "deepst",
    n_sides: list[int],
    slot: int | None = None,
) -> pd.DataFrame:
    """One row per swept n: (n_side, n, m, model_error, expr_error, bound,
    real_error). The model is trained per (n, slot) on training weekdays;
    model and real error are measured on validation weekdays."""
    st = data.settings
    slot = st.default_slot if slot is None else slot
    counts = GridCounts(data.events, days=st.days, slots=st.slots)
    rows = []
    for s in n_sides:
        spec = grid_spec(data.cfg, s, st.N_side)
        tensor = counts.tensor(spec)
        model = MODELS[model_name]().fit(tensor, st.train_days, slot)
        me = total_model_error(tensor, model, eval_days=st.val_days, slot=slot)
        alphas = counts.alphas(spec, st.train_days)[slot]
        ee = total_expression_error_local(alphas, spec.mgrid_of_hgrid, spec.m, st.K)
        re = measured_real_error(
            counts, spec, tensor, model, slot=slot, eval_days=st.val_days
        )
        rows.append(
            {
                "n_side": s,
                "n": spec.n,
                "m": spec.m,
                "model_error": me,
                "expr_error": ee,
                "bound": me + ee,
                "real_error": re,
            }
        )
    return pd.DataFrame(rows)
