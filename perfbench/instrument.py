"""Call wrappers the benchmark installs around the program's public functions.

Each wrapper replaces a name where its caller looks it up (a module
attribute, a ``MODELS`` entry or an evaluator method), so nothing inside
``src/`` changes. Wrappers do two things:

* **capture** — always on: the results of the calls named in ``CAPTURED``
  are kept so the workloads can check them. Arguments are not kept, so
  capturing keeps no evaluator (and none of its caches) alive; a bound
  evaluation also records its evaluator's ordinal. This costs one extra
  Python call per wrapped call and reads no clock.
* **trace** — on only in a traced repetition: each call becomes a span
  ``(name, start, end, parent)`` and runs under a Spark job group named
  after its layer, so ``statusTracker().getJobIdsForGroup`` counts the
  Spark round trips of each layer.

A wrapped name that no longer exists is recorded in ``missing`` and its
layer is reported as unmeasured; the run goes on.
"""
import functools
import importlib
import itertools
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

#: (module, attribute, span name). The span name's first dotted part is
#: the layer, which also names the Spark job group.
WRAPPED = (
    ("repro.synth_data", "taxi_trips_pdf", "synth_data.generate"),
    ("repro.experiments.config", "load_city", "config.load"),
    ("repro.core.upper_bound", "demand_tensor", "model_error.demand_tensor"),
    ("repro.experiments.table4", "demand_tensor", "model_error.demand_tensor"),
    ("repro.experiments.table3", "demand_tensor", "model_error.demand_tensor"),
    ("repro.experiments.error_curves", "demand_tensor", "model_error.demand_tensor"),
    ("repro.core.upper_bound", "total_model_error", "model_error.total_model_error"),
    ("repro.experiments.error_curves", "total_model_error", "model_error.total_model_error"),
    ("repro.core.upper_bound:UpperBoundEvaluator", "evaluate", "upper_bound.evaluate"),
    ("repro.core.upper_bound", "total_expression_error_local", "expression_error.local"),
    ("repro.experiments.error_curves", "total_expression_error", "expression_error.spark"),
    ("repro.experiments.error_curves", "alpha_by_hgrid", "alpha.alpha_by_hgrid"),
    ("repro.experiments.error_curves", "measured_real_error", "real_error.measured"),
    ("repro.experiments.table4", "ternary_search", "search.ternary"),
    ("repro.experiments.table4", "iterative_method", "search.iterative"),
    ("repro.experiments.table4", "brute_force", "search.brute"),
    ("repro.experiments.table3", "iterative_method", "search.iterative"),
    ("repro.experiments.table3", "find_optimal_s", "casestudy.tune"),
    ("repro.experiments.table3", "case_study_run", "casestudy.replay"),
    ("repro.experiments.table4", "day_orders", "dispatch.day_orders"),
    ("repro.experiments.table3", "day_orders", "dispatch.day_orders"),
    ("repro.experiments.table3", "mean_fare_by_cell", "dispatch.mean_fare"),
    ("repro.experiments.table3", "simulate_day", "dispatch.simulate_day"),
    ("repro.experiments.table3", "run_daif_day", "routing.daif"),
)
#: ``MODELS`` entries whose instances get a traced ``fit``.
MODELS_AT = ("repro.models", "MODELS", "models.fit")

#: calls whose arguments and results the workloads check.
CAPTURED = frozenset(
    {
        "upper_bound.evaluate",
        "search.ternary",
        "search.iterative",
        "search.brute",
        "casestudy.tune",
        "casestudy.replay",
    }
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Instrument.spans, -1 for a root span


def _resolve(path: str):
    """``"pkg.mod"`` -> module; ``"pkg.mod:Class"`` -> that class."""
    mod, _, attr = path.partition(":")
    owner = importlib.import_module(mod)
    return getattr(owner, attr) if attr else owner


class Instrument:
    """Installs the wrappers; collects spans, counters and captured calls."""

    def __init__(self, spark_context=None):
        self.sc = spark_context
        self.tracing = False
        self.group_prefix = "perfbench"
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.captured: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._ordinals: dict[int, tuple] = {}  # id -> (weak reference, ordinal)
        self._next_ordinal = itertools.count()

    # -- installation ------------------------------------------------------
    def install(self, wrapped=WRAPPED, models_at=MODELS_AT) -> None:
        for path, attr, name in wrapped:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{path}.{attr}")
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name))
        self._install_models(*models_at)

    def _install_models(self, path: str, attr: str, name: str) -> None:
        try:
            table = getattr(importlib.import_module(path), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{path}.{attr}")
            return
        for key, cls in list(table.items()):
            self._restore.append((table, key, cls))
            table[key] = self._traced_factory(cls, name)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    def _traced_factory(self, cls, name):
        inst = self

        def factory(*args, **kwargs):
            model = cls(*args, **kwargs)
            model.fit = inst.wrap(model.fit, name)
            return model

        return factory

    # -- wrappers and spans ------------------------------------------------
    def wrap(self, fn, name: str):
        inst = self
        captured = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inst.tracing:
                with inst.span(name):
                    result = fn(*args, **kwargs)
                inst._count(name, args, result)
            else:
                result = fn(*args, **kwargs)
            if captured:
                inst.captured[name].append(inst._record(name, args, result))
            return result

        return wrapper

    def _record(self, name: str, args, result):
        """What a captured call keeps: its result, and for a bound evaluation
        ``(evaluator ordinal, result)``."""
        if name == "upper_bound.evaluate":
            return (self.ordinal(args[0]), result)
        return result

    def ordinal(self, obj) -> int:
        """A number per object, in order of first sight; holds no reference."""
        entry = self._ordinals.get(id(obj))
        if entry is None or entry[0]() is not obj:  # new, or its id was reused
            entry = (weakref.ref(obj), next(self._next_ordinal))
            self._ordinals[id(obj)] = entry
        return entry[1]

    def _group(self, layer: str) -> str:
        return f"{self.group_prefix}.{layer}"

    def span(self, name: str):
        return _SpanContext(self, name)

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name == "synth_data.generate":
            c["synth_data.rows"] += len(result)
        elif name == "expression_error.local":
            c["expression_error.hgrids"] += len(args[0])
        elif name.startswith("search."):
            algo = name.split(".", 1)[1]
            c[f"search.calls.{algo}"] += len(result.evaluated)

    def reset(self, group_prefix: str) -> None:
        """Forget spans, counters and captures; use a fresh job-group prefix."""
        self.spans.clear()
        self.counters.clear()
        self.captured.clear()
        self.group_prefix = group_prefix

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, busy time ``s`` and ``self_s`` (busy
        time minus the part covered by child spans)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        for i, sp in enumerate(self.spans):
            t = out[sp.name]
            t["calls"] += 1
            t["s"] += sp.end - sp.start
            t["self_s"] += sp.end - sp.start - child[i]
        return out

    def spark_jobs(self, layers) -> dict[str, int]:
        """Spark jobs per layer group under the current prefix."""
        if self.sc is None:
            return {layer: 0 for layer in layers}
        tracker = self.sc.statusTracker()
        return {
            layer: len(tracker.getJobIdsForGroup(self._group(layer))) for layer in layers
        }


class _SpanContext:
    """One span; sets the layer's Spark job group for its duration."""

    def __init__(self, inst: Instrument, name: str):
        self.inst = inst
        self.name = name

    def __enter__(self):
        inst = self.inst
        parent = inst._stack[-1] if inst._stack else -1
        self.idx = len(inst.spans)
        inst.spans.append(Span(self.name, time.perf_counter(), 0.0, parent))
        inst._stack.append(self.idx)
        if inst.sc is not None:
            self.prev_group = inst.sc.getLocalProperty("spark.jobGroup.id")
            layer = self.name.split(".", 1)[0]
            inst.sc.setLocalProperty("spark.jobGroup.id", inst._group(layer))
        return self

    def __exit__(self, *exc):
        inst = self.inst
        inst.spans[self.idx].end = time.perf_counter()
        inst._stack.pop()
        if inst.sc is not None:
            inst.sc.setLocalProperty("spark.jobGroup.id", self.prev_group)
        return False
