"""Self-tests of the benchmark's checks and wrappers; no Spark session.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
import json
import sys
import weakref
from pathlib import Path

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from instrument import Instrument  # noqa: E402
from repro.core import search  # noqa: E402
from repro.core.search import SearchResult  # noqa: E402
from repro.core.upper_bound import UpperBoundResult  # noqa: E402
from workloads import Rep, TuneNYC  # noqa: E402

SLOTS = TuneNYC.SLOTS


def _bound(s: int, slot: int) -> float:
    return (s - 6) ** 2 + 0.5 * s + slot / 100


def _tune_outputs():
    """A tune-nyc repetition as the wrappers capture it, and its table."""
    inst = Instrument()
    st = TuneNYC.st
    searches = {
        "ternary": lambda fn: search.ternary_search(fn, st.s_min, st.s_max),
        "iterative": lambda fn: search.iterative_method(
            fn, st.s_min, st.s_max, p=st.s_default, b=3
        ),
        "brute": lambda fn: search.brute_force(fn, st.s_min, st.s_max),
    }
    for ev, (algo, find) in enumerate(searches.items()):
        for slot in SLOTS:
            def fn(s, ev=ev, slot=slot):
                res = UpperBoundResult(s, slot, 1.0, _bound(s, slot) - 1.0)
                inst.captured["upper_bound.evaluate"].append((ev, res))
                return res.bound
            inst.captured[f"search.{algo}"].append(find(fn))
    calls = {a: sum(len(r.evaluated) for r in inst.captured[f"search.{a}"]) for a in searches}
    picks = {a: [r.s_opt for r in inst.captured[f"search.{a}"]] for a in searches}
    df = pd.DataFrame(
        [
            {"city": "nyc", "algorithm": label, "cost_s": 1.0, "bound_calls": calls[a],
             "probability": sum(p == b for p, b in zip(picks[a], picks["brute"])) / len(SLOTS),
             "OR": 1.0}
            for a, label in (("ternary", "Ternary Search"), ("iterative", "Iterative Method"),
                             ("brute", "Brute-force Search"))
        ]
    )
    wl = TuneNYC(None, inst, 0)
    return wl, inst, df


def test_consistent_repetition_has_no_failures():
    wl, _, df = _tune_outputs()
    ops, failed, _, layer = wl.check(df)
    assert (ops, failed) == (3 * len(SLOTS), 0)
    assert layer["search_s.brute"] == 1.0


def test_perturbed_bound_counts_as_failure():
    wl, inst, df = _tune_outputs()
    res = inst.captured["search.ternary"][0]
    s = next(iter(res.evaluated))
    res.evaluated[s] *= 1 + 1e-6  # no longer brute force's e(s)
    _, failed, _, _ = wl.check(df)
    assert failed == 1


def test_negative_error_term_counts_as_failure():
    wl, inst, df = _tune_outputs()
    ev, r = inst.captured["upper_bound.evaluate"][0]
    inst.captured["upper_bound.evaluate"][0] = (
        ev, UpperBoundResult(r.n_side, r.slot, -1.0, r.bound + 1.0)
    )
    _, failed, _, _ = wl.check(df)
    assert failed == 1


def test_wrong_chosen_s_counts_as_failure():
    wl, inst, df = _tune_outputs()
    r = inst.captured["search.brute"][1]
    wrong = r.s_opt + 1 if r.s_opt < wl.st.s_max else r.s_opt - 1
    inst.captured["search.brute"][1] = SearchResult(wrong, r.evaluated)
    _, failed, _, _ = wl.check(df)
    assert failed >= 1


def test_table_row_disagreeing_with_searches_fails_that_algorithm():
    wl, _, df = _tune_outputs()
    df.loc[df["algorithm"] == "Iterative Method", "bound_calls"] += 1
    _, failed, _, _ = wl.check(df)
    assert failed == len(SLOTS)


def test_missing_wrapped_name_is_reported_unmeasured():
    inst = Instrument()
    inst.install(
        wrapped=(
            ("repro.core.search", "no_such_search", "search.gone"),
            ("repro.no_such_module", "f", "gone.f"),
            ("repro.core.search", "brute_force", "search.brute"),
        ),
        models_at=("repro.models", "NO_SUCH_TABLE", "models.fit"),
    )
    try:
        assert len(inst.missing) == 3
        inst.tracing = True
        assert search.brute_force(lambda s: (s - 2) ** 2, 1, 4).s_opt == 2
        m = run.layer_metrics(inst, _rep())
    finally:
        inst.uninstall()
    assert search.brute_force.__name__ == "brute_force"
    assert not hasattr(search.brute_force, "__wrapped__")
    assert m["search.calls.brute"] == 4
    assert m["expression_error.spark_s"] == 0.0


def _rep():
    return Rep(wall_s=1.0, ops=1, failed=0, signature=())


def test_capture_keeps_no_evaluator_alive():
    class Evaluator:
        def evaluate(self, n_side, slot):
            return UpperBoundResult(n_side, slot, 1.0, 2.0)

    inst = Instrument()
    Evaluator.evaluate = inst.wrap(Evaluator.evaluate, "upper_bound.evaluate")
    first = Evaluator()
    first.evaluate(3, 17)
    ref = weakref.ref(first)
    del first
    assert ref() is None
    Evaluator().evaluate(4, 17)  # may reuse the first one's id
    assert [ev for ev, _ in inst.captured["upper_bound.evaluate"]] == [0, 1]


def test_spans_give_self_time():
    inst = Instrument()
    inst.tracing = True
    with inst.span("upper_bound.evaluate"):
        with inst.span("model_error.demand_tensor"):
            pass
    t = inst.totals()
    outer, inner = inst.spans
    assert inner.parent == 0 and outer.parent == -1
    assert t["upper_bound.evaluate"]["self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
