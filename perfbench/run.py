"""GridTuner benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tune-nyc --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The program under test is ``src/repro``
of that checkout. One run:

1. starts a local Spark session (the test suite's settings);
2. sets up three times — generate, cache and count the city's events —
   then warms up with the body or a reduced one; ``setup_s`` is the session start
   plus the median set-up plus the warm-up;
3. repeats the workload body until ``--seconds`` have passed and the
   workload's ``min_reps`` repetitions are done, and checks every
   repetition's outputs; ``peak_rss_mb`` covers these repetitions only;
4. runs the run-level checks outside the timed region: one DuckDB check
   of a count aggregation and an independent recomputation of one bound;
5. prints the metrics, one per line with its unit, then a JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics`` as the last
   line of standard output.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics and the
tracing overhead, and writes the spans to ``.perfbench/``. See README.md.
"""
import argparse
import functools
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
#: Spark task slots. At the benchmark's scale the jobs are bound by task
#: scheduling, not compute: two slots run the workloads as fast as four, and
#: leave cores to the JVM's compiler and GC threads and the Python workers,
#: so a run measures less of the host's scheduler.
CORES = min(2, os.cpu_count() or 1)

#: per-layer metrics in the order they are printed, with their units
PER_LAYER = {
    "synth_data.generate_s": "s",
    "synth_data.rows": "count",
    "config.load_s": "s",
    "model_error.demand_tensor_s": "s",
    "model_error.demand_tensor_calls": "count",
    "model_error.total_model_error_s": "s",
    "upper_bound.evaluate_s": "s",
    "upper_bound.evaluate_calls": "count",
    "upper_bound.self_s": "s",
    "upper_bound.distinct_n": "count",
    "models.fit_s": "s",
    "models.fit_calls": "count",
    "expression_error.local_s": "s",
    "expression_error.local_calls": "count",
    "expression_error.hgrids": "count",
    "expression_error.spark_s": "s",
    "alpha.alpha_by_hgrid_s": "s",
    "real_error.measured_s": "s",
    "search.calls.ternary": "count",
    "search.calls.iterative": "count",
    "search.calls.brute": "count",
    "search.distinct_n.ternary": "count",
    "search.distinct_n.iterative": "count",
    "search.distinct_n.brute": "count",
    "search_s.ternary": "s",
    "search_s.iterative": "s",
    "search_s.brute": "s",
    "tune_s": "s",
    "replay_s": "s",
    "dispatch.day_orders_s": "s",
    "dispatch.mean_fare_s": "s",
    "dispatch.simulate_day_s": "s",
    "routing.daif_s": "s",
    "spark.jobs.model_error": "count",
    "spark.jobs.upper_bound": "count",
    "spark.jobs.expression_error": "count",
    "spark.jobs.real_error": "count",
    "spark.jobs.dispatch": "count",
    "spark.jobs.total": "count",
    "spark.jvm_peak_rss_mb": "MB",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unmeasured_layers": "count",
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

#: span name -> (metric prefix, report calls too)
SPAN_METRICS = {
    "model_error.demand_tensor": ("model_error.demand_tensor", True),
    "model_error.total_model_error": ("model_error.total_model_error", False),
    "upper_bound.evaluate": ("upper_bound.evaluate", True),
    "models.fit": ("models.fit", True),
    "expression_error.local": ("expression_error.local", True),
    "expression_error.spark": ("expression_error.spark", False),
    "alpha.alpha_by_hgrid": ("alpha.alpha_by_hgrid", False),
    "real_error.measured": ("real_error.measured", False),
    "casestudy.tune": ("tune", False),
    "casestudy.replay": ("replay", False),
    "dispatch.day_orders": ("dispatch.day_orders", False),
    "dispatch.mean_fare": ("dispatch.mean_fare", False),
    "dispatch.simulate_day": ("dispatch.simulate_day", False),
    "routing.daif": ("routing.daif", False),
}
#: every job group the wrappers can set, plus the repetition's own
JOB_LAYERS = (
    "synth_data", "config", "model_error", "upper_bound", "models",
    "expression_error", "alpha", "real_error", "search", "casestudy",
    "dispatch", "routing", "bench",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _meminfo_kb(key: str, path: str = "/proc/meminfo") -> int:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def start_spark(driver_mem: str):
    for d in ("spark", "tmp"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    # Python workers (applyInPandas) import repro from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {driver_mem} "
        f"--driver-java-options -Djava.io.tmpdir={OUT / 'tmp'} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={OUT / 'spark'} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # keep every job's status so job groups can be counted
        .config("spark.ui.retainedJobs", 1_000_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> list[int]:
    """Pids of every live process below ``pid`` (from /proc)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def cpu_seconds(jvm_pid: int | None) -> float:
    """User + system CPU seconds so far of this process, the Spark JVM and
    the JVM's children (the Python workers), waited-for children included."""
    pids = [os.getpid()]
    if jvm_pid is not None:
        pids += [jvm_pid] + _descendants(jvm_pid)
    ticks = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def stop_spark(spark) -> None:
    """Stop Spark, let its JVM exit, and wait for the JVM's children
    (the Python worker daemon) to end."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    kids = _descendants(proc.pid) if proc is not None else []
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
    try:
        proc.wait(timeout=60)
    except Exception:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while kids and time.monotonic() < deadline:
        kids = [k for k in kids if Path(f"/proc/{k}").exists()]
        time.sleep(0.1)
    for k in kids:
        try:
            os.kill(k, 9)
        except OSError:
            pass


def drain_listener(sc) -> None:
    """Wait until Spark has recorded every finished job's status."""
    if sc is None:
        return
    try:
        sc._jsc.sc().listenerBus().waitUntilEmpty()
    except Exception:
        time.sleep(1.0)


def layer_metrics(inst, rep) -> dict:
    """Per-layer metrics of one traced repetition."""
    totals = inst.totals()
    m = {k: 0.0 for k in PER_LAYER}
    for span, (prefix, calls) in SPAN_METRICS.items():
        t = totals.get(span)
        if t is None:
            continue
        m[prefix + "_s"] = t["s"]
        if calls:
            m[prefix + "_calls"] = t["calls"]
    if "upper_bound.evaluate" in totals:
        m["upper_bound.self_s"] = totals["upper_bound.evaluate"]["self_s"]
    evals = inst.captured.get("upper_bound.evaluate", [])
    m["upper_bound.distinct_n"] = len({(ev, res.n_side) for ev, res in evals})
    for key in ("expression_error.hgrids", "search.calls.ternary",
                "search.calls.iterative", "search.calls.brute"):
        m[key] = inst.counters.get(key, 0)
    for algo in ("ternary", "iterative", "brute"):
        probed = set()
        for res in inst.captured.get(f"search.{algo}", []):
            probed |= set(res.evaluated)
        m[f"search.distinct_n.{algo}"] = len(probed)
    drain_listener(inst.sc)
    jobs = inst.spark_jobs(JOB_LAYERS)
    for layer in ("model_error", "upper_bound", "expression_error", "real_error", "dispatch"):
        m[f"spark.jobs.{layer}"] = jobs[layer]
    m["spark.jobs.total"] = sum(jobs.values())
    m.update(rep.layer)
    return m


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def environment(driver_mem: str) -> dict:
    import numpy
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "cores_used": CORES,
        "mem_total_kb": _meminfo_kb("MemTotal"),
        "spark_driver_mem": driver_mem,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }


def reset_peak_rss() -> None:
    """Start the driver's peak-memory window here (Linux: VmHWM := VmRSS)."""
    gc.collect()
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(spark) -> dict[str, float]:
    """Peak resident memory of this process (the driver) since
    :func:`reset_peak_rss`, and of the Spark JVM since it started. The JVM's
    peak follows its heap growth and varies by about a third between
    identical runs, so only the driver's is end-to-end."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    jvm = _meminfo_kb("VmHWM", f"/proc/{proc.pid}/status") if proc is not None else 0
    return {"driver": _meminfo_kb("VmHWM", "/proc/self/status") / 1024.0, "jvm": jvm / 1024.0}


def measure(spark, inst, wl, seconds: float, trace: bool, session_s: float) -> dict:
    """Set up, repeat, check; returns the result fields and diagnostics."""
    inst.tracing = trace
    loads, ingest = [], []
    for i in range(SETUP_REPS):
        inst.reset(f"perfbench.setup{i}")
        loads.append(wl.load())
        t = inst.totals()
        ingest.append({
            "synth_data.generate_s": t["synth_data.generate"]["s"],
            "synth_data.rows": inst.counters.get("synth_data.rows", 0),
            "config.load_s": t["config.load"]["s"],
        })
    inst.tracing = False
    warm_s = wl.warm_up()
    setup_s = session_s + statistics.median(loads) + warm_s

    sc = spark.sparkContext
    jvm = getattr(sc._gateway, "proc", None)
    wl.cpu_clock = functools.partial(cpu_seconds, jvm.pid if jvm is not None else None)
    plain, traced, layers = [], [], []
    spans = []
    # The first repetition after the warm-up still runs 15-30% slow; in a
    # traced run it would bias the overhead, so it is checked but not timed.
    extra = [wl.rep()] if trace else []
    reset_peak_rss()
    deadline = time.perf_counter() + seconds
    # untraced repetitions bracket every traced one: U T U [T U ...]
    while True:
        plain.append(wl.rep())
        done = time.perf_counter() >= deadline and len(plain) >= wl.min_reps
        if done and (traced or not trace):
            break
        if trace:
            inst.reset(f"perfbench.rep{len(traced)}")
            inst.tracing = True
            sc.setLocalProperty("spark.jobGroup.id", inst._group("bench"))
            traced.append(wl.rep())
            sc.setLocalProperty("spark.jobGroup.id", None)
            inst.tracing = False
            layers.append(layer_metrics(inst, traced[-1]))
            spans += [{"rep": len(traced) - 1, **s.__dict__} for s in inst.spans]
    if trace:
        with open(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl", "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)

    rss = peak_rss_mb(spark)
    reps = extra + plain + traced
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    problems = []
    if any(r.signature != reps[0].signature for r in reps):
        problems.append("outputs differ between repetitions")
    problems += wl.run_problems()
    if problems:
        failed = attempted
    wall = statistics.median(r.wall_s for r in plain)
    if trace:
        metrics = {**median_of(layers), **median_of(ingest)}
        t_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.traced_wall_s"] = t_wall
        metrics["trace.overhead_frac"] = t_wall / wall - 1.0
        metrics["trace.unmeasured_layers"] = len(inst.missing)
        metrics["spark.jvm_peak_rss_mb"] = rss["jvm"]
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": rss["driver"],
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "problems": problems,
        "repetitions": {
            "untraced_s": [r.wall_s for r in plain],
            "traced_s": [r.wall_s for r in traced],
            "cpu_s": [r.cpu_s for r in reps],
        },
        "peak_rss_mb": rss,
        "setup": {"session_s": session_s, "loads_s": loads, "warm_up_s": warm_s},
    }


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to run: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from instrument import Instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    driver_mem = os.environ.get("SPARK_DRIVER_MEM", "4g")
    spark = start_spark(driver_mem)
    session_s = time.perf_counter() - t0
    try:
        inst = Instrument(spark.sparkContext)
        inst.install()
        wl = WORKLOADS[args.workload](spark, inst, args.seed)
        result = measure(spark, inst, wl, args.seconds, bool(args.trace), session_s)
        inst.uninstall()
    finally:
        t_stop = time.perf_counter()
        stop_spark(spark)
        print(f"perfbench: spark stopped in {time.perf_counter() - t_stop:.3g} s")

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("perfbench: repetitions " + json.dumps(result["repetitions"]))
    print("perfbench: peak_rss_mb " + json.dumps(result["peak_rss_mb"]))
    print("perfbench: environment " + json.dumps(environment(driver_mem)))
    print("perfbench: setup " + json.dumps(result["setup"]))
    for name in inst.missing:
        print(f"perfbench: unmeasured layer, wrapped name missing: {name}")
    for p in result["problems"]:
        print(f"perfbench: check failed: {p}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench: failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, m in result["metrics"].items():
        print(f"perfbench: {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
