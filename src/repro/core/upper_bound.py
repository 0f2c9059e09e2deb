"""Upper bound e(sqrt(n)) of the total real error — paper Algorithm 3.

``UpperBound(n, N, X, Model)`` = total model error (n * MAE, Eq. 20)
+ total expression error (Algorithm 2 over every HGrid). The evaluator
below backs the §IV search algorithms. Its data prep is the count layer
(:class:`repro.core.counts.GridCounts`): one Spark aggregation per distinct
fine lattice, from which the demand tensor and the alpha table of every
grid size on that lattice are derived in numpy and memoised. Per
(n, slot) call it trains the model fresh and runs the O(mK) Algorithm-2
kernel on the driver, matching the paper's cost anatomy where "the time
cost of training the model is considerable when calculating e(sqrt(n))".
The error-curve harness composes the same pieces.
"""
import time
from dataclasses import dataclass, field
from typing import Self

from pyspark.sql import DataFrame, SparkSession

from repro.core.counts import GridCounts
from repro.core.expression_error import total_expression_error_local
from repro.core.grids import GridSpec, grid_spec
from repro.core.model_error import total_model_error
from repro.experiments.config import CityData
from repro.models import MODELS
from repro.synth_data import CityConfig


@dataclass(frozen=True)
class UpperBoundResult:
    """One e(sqrt(n)) evaluation: the bound and its two components."""

    n_side: int
    slot: int
    model_error: float
    expr_error: float

    @property
    def bound(self) -> float:
        return self.model_error + self.expr_error


@dataclass
class UpperBoundEvaluator:
    """Caching evaluator of Algorithm 3 over one city's events.

    ``evaluate(n_side, slot)`` returns the bound for n = n_side^2 at one
    time slot. Results are memoised per (n_side, slot); ``calls`` counts
    distinct bound computations and ``elapsed`` their total wall time —
    the quantities Table IV reports as search cost.
    """

    spark: SparkSession
    events: DataFrame
    cfg: CityConfig
    N_side: int
    model_factory: callable  # () -> Predictor
    days: int
    slots: int
    train_days: list[int]
    val_days: list[int]
    K: int | None = None
    calls: int = 0
    elapsed: float = 0.0
    _bounds: dict = field(default_factory=dict)
    counts: GridCounts = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = GridCounts(self.events, days=self.days, slots=self.slots)

    @classmethod
    def for_city(cls, spark: SparkSession, data: CityData, model_name: str) -> Self:
        """A fresh evaluator over ``data`` at its settings' scale."""
        st = data.settings
        return cls(
            spark, data.events, data.cfg, st.N_side, MODELS[model_name],
            days=st.days, slots=st.slots, train_days=st.train_days,
            val_days=st.val_days, K=st.K,
        )

    def spec(self, n_side: int) -> GridSpec:
        return grid_spec(self.cfg, n_side, self.N_side)

    def evaluate(self, n_side: int, slot: int) -> UpperBoundResult:
        key = (n_side, slot)
        if key in self._bounds:
            return self._bounds[key]
        t0 = time.perf_counter()
        spec = self.spec(n_side)
        tensor = self.counts.tensor(spec)
        model = self.model_factory().fit(tensor, self.train_days, slot)
        me = total_model_error(tensor, model, eval_days=self.val_days, slot=slot)
        ee = total_expression_error_local(
            self.counts.alphas(spec, self.train_days)[slot],
            spec.mgrid_of_hgrid, spec.m, self.K,
        )
        res = UpperBoundResult(n_side, slot, me, ee)
        self._bounds[key] = res
        self.calls += 1
        self.elapsed += time.perf_counter() - t0
        return res

    def bound_fn(self, slot: int):
        """e(sqrt(n)) as a plain ``s -> float`` for the §IV search loops."""
        return lambda n_side: self.evaluate(n_side, slot).bound
