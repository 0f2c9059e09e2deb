import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, from the
    shared bootstrap :func:`repro.session.get_spark`."""
    # imported here so that suites without Spark (perfbench's self-tests)
    # can load this conftest before ``src`` is on the path
    from repro.session import get_spark

    s = get_spark("repro")
    # One line in test_output.txt that tells whether the cgroup
    # derivation saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
