"""spark-submit entrypoint: Table III (promotion of prediction-based
algorithms by tuning the grid size).

    python jobs/run_table3.py [--city nyc] [--model deepst] [--scale bench]
"""
import argparse
import sys

sys.path.insert(0, "src")

from repro.experiments.config import BENCH, TESTS, load_city  # noqa: E402
from repro.experiments.table3 import run_table3  # noqa: E402
from repro.session import get_spark  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--city", default="nyc", choices=["nyc", "chengdu", "xian"])
    ap.add_argument("--model", default="deepst", choices=["mlp", "deepst", "dmvst"])
    ap.add_argument("--scale", default="bench", choices=["bench", "tests"])
    ap.add_argument("--optimal-s", type=int, default=None)
    args = ap.parse_args()
    st = BENCH if args.scale == "bench" else TESTS
    spark = get_spark("table3")
    data = load_city(spark, args.city, st)
    df = run_table3(spark, data, model_name=args.model, optimal_s=args.optimal_s)
    print(df.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
