"""The benchmark workloads.

Each workload loads one city through ``config.load_city`` (with the
benchmark's seed swapped into the city config), then repeats a body that
calls the program's public entry points, and checks what came back.

* ``tune-nyc`` — ``run_table4``: Ternary, Iterative and Brute-force
  search per slot, each with a fresh evaluator, plus the OR meter.
* ``casestudy-nyc`` — ``run_table3``: tune with Iterative, then replay
  POLAR, LS and DAIF at the original and tuned sides.
* ``curves-nyc`` — ``error_curves`` at a few sides of the sweep.

Every workload runs NYC at the unit-test scale (SF=0.01, N=16^2), which
keeps one run well inside the benchmark's time budget.
"""
import contextlib
import math
import time
from dataclasses import dataclass, field, replace

import checks
from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments import config, error_curves, table3, table4
from repro.experiments.config import TESTS
from repro.models import MODELS
from repro.synth_data import CITIES

MODEL = "deepst"
ALGOS = ("ternary", "iterative", "brute")
ITERATIVE_B = 3  # the b that run_table4 and find_optimal_s use by default


@dataclass
class Rep:
    """One timed repetition of a workload body and its checked outcome."""

    wall_s: float
    ops: int
    failed: int
    signature: tuple  # outputs that must repeat exactly across repetitions
    layer: dict = field(default_factory=dict)  # workload-specific layer metrics
    cpu_s: float = 0.0  # CPU seconds of the driver, the JVM and its workers


@contextlib.contextmanager
def _seeded_cities(city: str, seed: int):
    """Let ``config.load_city`` generate ``city`` with event seed
    ``cfg.seed + seed``; seed 0 gives the city's own (committed) events."""
    cfg = CITIES[city]
    saved = config.CITIES
    config.CITIES = {**saved, city: replace(cfg, seed=cfg.seed + seed)}
    try:
        yield
    finally:
        config.CITIES = saved


class Workload:
    name: str
    city: str

    st = TESTS
    #: timed repetitions a run makes at least, whatever ``--seconds`` is:
    #: enough that ``--seconds`` = 10 rarely adds one, so the median
    #: covers the same repetitions on a faster or slower box
    min_reps: int

    def __init__(self, spark, inst, seed: int):
        self.spark = spark
        self.inst = inst
        self.seed = seed
        self.data = None
        self.last = None  # outputs of the latest repetition
        self.cpu_clock = lambda: 0.0

    # -- set-up ------------------------------------------------------------
    def load(self) -> float:
        """Generate, cache and materialise the city; seconds taken."""
        if self.data is not None:
            self.data.events.unpersist(blocking=True)
        t0 = time.perf_counter()
        with _seeded_cities(self.city, self.seed):
            self.data = config.load_city(self.spark, self.city, self.st)
        return time.perf_counter() - t0

    def warm_up(self) -> float:
        """The body, or a reduced one, before timing, so the Spark queries,
        the Python workers and the numpy paths of a repetition are warm;
        seconds taken."""
        t0 = time.perf_counter()
        self.warm_body()
        return time.perf_counter() - t0

    def warm_body(self) -> None:
        self.body()

    # -- timed repetitions ---------------------------------------------------
    def rep(self) -> Rep:
        self.inst.captured.clear()
        c0 = self.cpu_clock()
        t0 = time.perf_counter()
        out = self.body()
        wall = time.perf_counter() - t0
        cpu = self.cpu_clock() - c0
        self.last = out
        ops, bad, signature, layer = self.check(out)
        return Rep(wall, ops, min(bad, ops), signature, layer, cpu)

    def body(self):
        raise NotImplementedError

    def check(self, out) -> tuple[int, int, tuple, dict]:
        """(operations, failed operations, signature, layer metrics)."""
        raise NotImplementedError

    # -- run-level checks (outside the timed region) ------------------------
    def run_problems(self) -> list[str]:
        problems = checks.count_oracle_problems(self.data, self.st.s_default)
        return problems + self.value_problems()

    def value_problems(self) -> list[str]:
        return []

    def _oracle(self, n_side: int, slot: int, me: float, ee: float) -> list[str]:
        return checks.oracle_problems(self.data, MODELS[MODEL], n_side, slot, me, ee)

    def _evaluations(self):
        """Captured ``(evaluator ordinal, n_side, slot, result)`` of this repetition."""
        return [
            (ev, res.n_side, res.slot, res)
            for ev, res in self.inst.captured.get("upper_bound.evaluate", [])
        ]


class TuneNYC(Workload):
    name = "tune-nyc"
    city = "nyc"
    min_reps = 1
    SLOTS = [17, 37]

    def body(self):
        return table4.run_table4(self.spark, self.data, model_name=MODEL, slots=self.SLOTS)

    def warm_body(self):
        """Three cold bound evaluations: a whole body (about 25 s cold)
        does not fit the run's time budget."""
        st = self.st
        ev = UpperBoundEvaluator(
            self.spark, self.data.events, self.data.cfg, st.N_side, MODELS[MODEL],
            days=st.days, slots=st.slots, train_days=st.train_days,
            val_days=st.val_days, K=st.K,
        )
        for s in (st.s_min, st.s_default, st.s_max):
            ev.evaluate(s, st.default_slot)

    def _records(self):
        recs = []
        for algo in ALGOS:
            calls = self.inst.captured.get(f"search.{algo}", [])
            recs += [(algo, self.SLOTS[i % len(self.SLOTS)], res) for i, res in enumerate(calls)]
        return recs

    def check(self, df):
        st = self.st
        recs = self._records()
        bad = checks.check_searches(recs, st.s_min, st.s_max, ITERATIVE_B)
        bad |= checks.check_table4(df, recs, self.SLOTS)
        order: dict[int, str] = {}
        for ev, _, slot, res in self._evaluations():
            algo = order.setdefault(ev, ALGOS[min(len(order), 2)])
            if not checks.bound_ok(res):
                bad.add((algo, slot))
        signature = (
            tuple((a, t, r.s_opt, tuple(sorted(r.evaluated.items()))) for a, t, r in recs),
            tuple(df[["bound_calls", "probability", "OR"]].itertuples(index=False)),
        )
        costs = df.set_index("algorithm")["cost_s"]
        layer = {
            "search_s.ternary": costs["Ternary Search"],
            "search_s.iterative": costs["Iterative Method"],
            "search_s.brute": costs["Brute-force Search"],
        }
        return 3 * len(self.SLOTS), len(bad), signature, layer

    def value_problems(self):
        for ev, n_side, slot, res in self._evaluations():
            if slot == self.st.default_slot and n_side == self.st.s_max:
                return self._oracle(n_side, slot, res.model_error, res.expr_error)
        return ["no bound captured at (s_max, default slot) for the oracle"]


class CaseStudyNYC(Workload):
    name = "casestudy-nyc"
    city = "nyc"
    min_reps = 2

    def body(self):
        return table3.run_table3(self.spark, self.data, model_name=MODEL)

    def check(self, df):
        st = self.st
        cap = self.inst.captured
        ops = 1 + len(df)
        tune = cap.get("casestudy.tune", [])
        searches = cap.get("search.iterative", [])
        tune_ok = len(tune) == 1 and len(searches) == 1
        if tune_ok:
            s, res = tune[0], searches[0]
            tune_ok = (
                s == res.s_opt
                and not checks.check_searches(
                    [("iterative", st.default_slot, res)], st.s_min, st.s_max, ITERATIVE_B
                )
                and all(checks.bound_ok(r) for *_, r in self._evaluations())
                and (df["optimal_n"] == f"{s}x{s}").all()
            )
        runs_ok = all(
            0 < r.polar.served <= r.polar.arrived
            and 0 < r.ls.served <= r.ls.arrived
            and r.daif_served > 0 and r.daif_cost > 0
            for r in cap.get("casestudy.replay", [])
        )
        bad_rows = 0
        for _, row in df.iterrows():
            v0, v1 = row["value_original"], row["value_optimal"]
            lower = row["metric"] == "Unified Cost"
            want = (v0 - v1) / v0 if lower else (v1 - v0) / v0
            ok = runs_ok and math.isfinite(v0) and math.isfinite(v1) and v0 > 0
            bad_rows += not (ok and checks.close(row["improve_ratio"], want))
        signature = tuple(df.itertuples(index=False))
        return ops, bad_rows if tune_ok else ops, signature, {}

    def value_problems(self):
        s = int(self.last["optimal_n"].iloc[0].split("x")[0])
        for _, n_side, slot, res in self._evaluations():
            if (n_side, slot) == (s, self.st.default_slot):
                return self._oracle(s, slot, res.model_error, res.expr_error)
        return [f"no bound captured at the tuned side s={s}"]


class CurvesNYC(Workload):
    name = "curves-nyc"
    city = "nyc"

    min_reps = 5
    SIDES = [4, 10]

    def body(self):
        return error_curves.error_curves(
            self.spark, self.data, model_name=MODEL, n_sides=self.SIDES
        )

    def check(self, df):
        bad = 0
        for _, r in df.iterrows():
            vals = (r["model_error"], r["expr_error"], r["real_error"])
            bad += not (
                all(math.isfinite(v) and v >= 0 for v in vals)
                and r["n"] == r["n_side"] ** 2
            )
        signature = tuple(df.itertuples(index=False))
        return len(self.SIDES), bad, signature, {}

    def value_problems(self):
        row = self.last.iloc[-1]
        return self._oracle(
            int(row["n_side"]), self.st.default_slot, row["model_error"], row["expr_error"]
        )


WORKLOADS = {w.name: w for w in (TuneNYC, CaseStudyNYC, CurvesNYC)}
