"""Correctness checks the benchmark applies to the program's outputs.

Per-operation checks return the operations they reject, so the caller can
count them toward ``failed``. Run-level checks (the DuckDB count oracle
and the independent bound recomputation) return a list of problems; any problem fails every operation of the run.
"""
import math

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.core.expression_error import expression_error_alg2
from repro.core.grids import grid_spec
from repro.core.model_error import demand_counts, total_model_error
from repro.oracle import assert_equivalent

#: relative tolerance for values that two code paths must agree on
#: (the ROADMAP bar for bound values).
REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def bound_ok(res) -> bool:
    """Both terms of e = E_m + E_e finite and non-negative. The sum itself
    holds by construction (``UpperBoundResult.bound``); whether the terms
    are right is for :func:`oracle_problems` and the brute-force cross-check."""
    me, ee = res.model_error, res.expr_error
    return math.isfinite(me) and math.isfinite(ee) and me >= 0 and ee >= 0


def check_searches(records, s_min: int, s_max: int, b: int) -> set:
    """Reject ``(algo, slot)`` searches whose outcome is inconsistent.

    ``records`` holds ``(algo, slot, SearchResult)``. Brute force must have
    probed every side and picked the argmin of its bounds; every search's
    pick must be a side it probed; Iterative's pick must be a local minimum
    over the probes within ``b``; and every probed e(s) must equal brute
    force's e(s) for the same slot, when brute force ran on it.
    """
    brute = {slot: r.evaluated for algo, slot, r in records if algo == "brute"}
    bad = set()
    for algo, slot, r in records:
        ev = r.evaluated
        ok = s_min <= r.s_opt <= s_max and r.s_opt in ev
        ok = ok and all(s_min <= s <= s_max for s in ev)
        ref = brute.get(slot, {})
        ok = ok and all(close(v, ref[s]) for s, v in ev.items() if s in ref)
        if ok and algo == "brute":
            ok = set(ev) == set(range(s_min, s_max + 1)) and r.s_opt == min(
                range(s_min, s_max + 1), key=ev.__getitem__
            )
        if ok and algo == "iterative":
            p = r.s_opt
            ok = all(
                ev[p] <= ev[q] for i in range(1, b + 1) for q in (p - i, p + i) if q in ev
            )
        if not ok:
            bad.add((algo, slot))
    return bad


def check_table4(df: pd.DataFrame, records, slots: list[int]) -> set:
    """Reject every search of an algorithm whose Table IV row disagrees
    with the searches it summarises."""
    name = {"ternary": "Ternary Search", "iterative": "Iterative Method",
            "brute": "Brute-force Search"}
    rows = df.set_index("algorithm")
    picks = {(a, slot): r.s_opt for a, slot, r in records}
    bad_algos = set()
    for algo, label in name.items():
        calls = sum(len(r.evaluated) for a, _, r in records if a == algo)
        hits = sum(picks.get((algo, t)) == picks.get(("brute", t)) for t in slots)
        row = rows.loc[label]
        if (
            row["bound_calls"] != calls
            or not close(row["probability"], hits / len(slots))
            or not (row["OR"] > 0 and math.isfinite(row["OR"]))
            or (algo != "brute" and calls >= rows.loc[name["brute"], "bound_calls"])
            or (algo == "brute" and (row["probability"] != 1.0 or row["OR"] != 1.0))
        ):
            bad_algos.add(algo)
    return {(a, t) for a in bad_algos for t in slots}


def count_oracle_problems(data, n_side: int) -> list[str]:
    """One DuckDB check of the (day, slot, mgrid) count aggregation on the
    test day (``repro.oracle.assert_equivalent``)."""
    st = data.settings
    spec = grid_spec(data.cfg, n_side, st.N_side)
    events = data.events.where(F.col("day") == st.test_day)
    w, h = data.cfg.width_km, data.cfg.height_km
    fs, ms, ns = spec.fine_side, spec.m_side, spec.n_side
    sql = f"""
        WITH cells AS (
          SELECT day, slot,
                 least(CAST(floor(x / {w / fs}) AS INT), {fs - 1}) AS fx,
                 least(CAST(floor(y / {h / fs}) AS INT), {fs - 1}) AS fy
          FROM events
        )
        SELECT day, slot,
               CAST(floor(fy / {ms}) AS INT) * {ns} + CAST(floor(fx / {ms}) AS INT) AS mgrid,
               count(*) AS cnt
        FROM cells GROUP BY day, slot, 3
    """
    try:
        assert_equivalent(demand_counts(events, spec), sql, events=events)
    except AssertionError as e:
        return [f"count oracle at n_side={n_side}: {str(e).splitlines()[0]}"]
    return []


def _auto_k(lam: float) -> int:
    return int(lam + 20.0 * math.sqrt(lam)) + 20


def oracle_bound(events: pd.DataFrame, cfg, st, model_factory, n_side: int, slot: int):
    """(E_m, E_e) at one (n, slot), recomputed without Spark and without the
    fast kernel: counts by numpy binning of the raw events, expression
    error by the literal Algorithm 2 per HGrid."""
    spec = grid_spec(cfg, n_side, st.N_side)
    fs, ms = spec.fine_side, spec.m_side
    fx = np.minimum(np.floor(events["x"].to_numpy() / (cfg.width_km / fs)).astype(int), fs - 1)
    fy = np.minimum(np.floor(events["y"].to_numpy() / (cfg.height_km / fs)).astype(int), fs - 1)
    day = events["day"].to_numpy(int)
    slot_col = events["slot"].to_numpy(int)
    mgrid = (fy // ms) * n_side + fx // ms
    tensor = np.zeros((st.days, st.slots, spec.n))
    np.add.at(tensor, (day, slot_col, mgrid), 1.0)
    model = model_factory().fit(tensor, st.train_days, slot)
    me = total_model_error(tensor, model, eval_days=st.val_days, slot=slot)

    sel = (slot_col == slot) & np.isin(day, st.train_days)
    alpha = np.bincount((fy * fs + fx)[sel], minlength=fs * fs) / len(st.train_days)
    h = np.arange(fs * fs)
    mg_of_h = (h // fs // ms) * n_side + (h % fs) // ms
    ee = 0.0
    for g in range(spec.n):
        a = alpha[mg_of_h == g]
        total = float(a.sum())
        for aj in a:
            beta = total - float(aj)
            k = max(_auto_k(aj), -(-_auto_k(beta) // (spec.m - 1)) if spec.m > 1 else 0)
            ee += expression_error_alg2(float(aj), beta, spec.m, k)
    return me, ee


def oracle_problems(data, model_factory, n_side: int, slot: int, me: float, ee: float) -> list[str]:
    """Compare the program's (E_m, E_e) at (n_side, slot) with :func:`oracle_bound`."""
    events = data.events.select("day", "slot", "x", "y").toPandas()
    o_me, o_ee = oracle_bound(events, data.cfg, data.settings, model_factory, n_side, slot)
    if close(me, o_me) and close(ee, o_ee, 1e-8):
        return []
    return [
        f"bound oracle at (s={n_side}, slot={slot}): program ({me!r}, {ee!r}) "
        f"vs oracle ({o_me!r}, {o_ee!r})"
    ]

