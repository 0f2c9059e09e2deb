"""spark-submit entrypoint: error-vs-n curves (paper Figures 3-5 as data).

    python jobs/run_error_curves.py [--city nyc] [--model deepst] [--scale bench]
"""
import argparse
import sys

sys.path.insert(0, "src")

from repro.experiments.config import BENCH, TESTS, load_city  # noqa: E402
from repro.experiments.error_curves import error_curves  # noqa: E402
from repro.session import get_spark  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--city", default="nyc", choices=["nyc", "chengdu", "xian"])
    ap.add_argument("--model", default="deepst", choices=["mlp", "deepst", "dmvst"])
    ap.add_argument("--scale", default="bench", choices=["bench", "tests"])
    ap.add_argument("--slot", type=int, default=None)
    args = ap.parse_args()
    st = BENCH if args.scale == "bench" else TESTS
    spark = get_spark("error-curves")
    data = load_city(spark, args.city, st)
    n_sides = list(range(st.s_min, st.s_max + 1))
    df = error_curves(spark, data, model_name=args.model, n_sides=n_sides, slot=args.slot)
    print(df.to_string(index=False))
    best = df.loc[df["bound"].idxmin()]
    print(f"\noptimal n by bound: {int(best.n_side)}x{int(best.n_side)}")
    spark.stop()


if __name__ == "__main__":
    main()
