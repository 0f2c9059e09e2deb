"""spark-submit entrypoint: Table IV (search-algorithm cost / probability /
optimal ratio per city).

    python jobs/run_table4.py [--cities nyc chengdu xian] [--slots-stride 1]
"""
import argparse
import sys

sys.path.insert(0, "src")

import pandas as pd  # noqa: E402

from repro.experiments.config import BENCH, TESTS, load_city  # noqa: E402
from repro.experiments.table4 import run_table4  # noqa: E402
from repro.session import get_spark  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cities", nargs="+", default=["nyc", "chengdu", "xian"])
    ap.add_argument("--model", default="deepst", choices=["mlp", "deepst", "dmvst"])
    ap.add_argument("--scale", default="bench", choices=["bench", "tests"])
    ap.add_argument(
        "--slots-stride", type=int, default=1,
        help="evaluate every k-th slot (48/k OGSS instances per city)",
    )
    args = ap.parse_args()
    st = BENCH if args.scale == "bench" else TESTS
    spark = get_spark("table4")
    frames = []
    for city in args.cities:
        data = load_city(spark, city, st)
        slots = list(range(0, st.slots, args.slots_stride))
        frames.append(run_table4(spark, data, model_name=args.model, slots=slots))
        data.events.unpersist()
    print(pd.concat(frames, ignore_index=True).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
