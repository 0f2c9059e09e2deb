"""spark-submit entrypoint: run GridTuner's OGSS search on one city/slot.

    python jobs/run_search.py [--city nyc] [--algo iterative] [--slot 17]
"""
import argparse
import sys

sys.path.insert(0, "src")

from repro.core.search import brute_force, iterative_method, ternary_search  # noqa: E402
from repro.core.upper_bound import UpperBoundEvaluator  # noqa: E402
from repro.experiments.config import BENCH, TESTS, load_city  # noqa: E402
from repro.session import get_spark  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--city", default="nyc", choices=["nyc", "chengdu", "xian"])
    ap.add_argument("--model", default="deepst", choices=["mlp", "deepst", "dmvst"])
    ap.add_argument("--algo", default="iterative", choices=["ternary", "iterative", "brute"])
    ap.add_argument("--scale", default="bench", choices=["bench", "tests"])
    ap.add_argument("--slot", type=int, default=None)
    args = ap.parse_args()
    st = BENCH if args.scale == "bench" else TESTS
    spark = get_spark("ogss-search")
    data = load_city(spark, args.city, st)
    slot = st.default_slot if args.slot is None else args.slot
    evaluator = UpperBoundEvaluator.for_city(spark, data, args.model)
    fn = evaluator.bound_fn(slot)
    if args.algo == "ternary":
        res = ternary_search(fn, st.s_min, st.s_max)
    elif args.algo == "iterative":
        res = iterative_method(fn, st.s_min, st.s_max, p=st.s_default, b=3)
    else:
        res = brute_force(fn, st.s_min, st.s_max)
    print(f"city={args.city} slot={slot} algo={args.algo}")
    for s in sorted(res.evaluated):
        print(f"  e({s:2d}) = {res.evaluated[s]:.3f}")
    print(
        f"optimal n = {res.s_opt}x{res.s_opt} ({res.calls} bound evaluations, "
        f"{evaluator.elapsed:.1f}s inside Algorithm 3)"
    )
    spark.stop()


if __name__ == "__main__":
    main()
