#!/usr/bin/env python3
"""GEqO cascade benchmark: closed-loop GEqO_SET calls on fixed workloads.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. One process, one client: a single
GEqO_SET call (SF → VMF → EMF → AV) at a time, for ``--seconds``
seconds. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print each metric with its unit. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/README.md``).

Calls alternate between the seed's submission order and its reverse, so
every pair is scored once with each plan first: the EMF is not
symmetric in its two inputs, and pooling both orders makes ``recall``,
``epsilon`` and the survivor counts the same for every seed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
RESULTS = os.path.join(CACHE, "results")  # the benchmark's own EMF cache
READY = os.path.join(RESULTS, "READY.json")

# Load shape, pinned for every run.
BLAS_THREADS = "1"
SPARK_CORES = max(1, min(4, os.cpu_count() or 1))
SHUFFLE_PARTITIONS = 2 * SPARK_CORES
SETUP_REPEATS = 5
PROBE_SHARE = 0.5  # speed probe before a call: half the previous call's time
SPARK_SETUP_PROBES = 5  # probes before the Spark start (one before a local set-up)
MIN_CALLS = 2  # one call in each submission order

WORKLOADS = ("table1", "wide2k", "reuse", "table1-spark")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="n≈40 workloads, for the benchmark's smoke test")
    return ap.parse_args(argv)


def pin_environment() -> None:
    """Thread counts, temp dirs and the model cache, before any import
    of numpy or pyspark; every file the run writes stays in CACHE."""
    tmp = os.path.join(CACHE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(CACHE, "spark-local")
    os.environ["REPRO_RESULTS_DIR"] = RESULTS
    # The JVM reads its master and heap at launch, from here.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 1g pyspark-shell"
    )
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, SRC)


def prepare() -> float:
    """Train the EMF once per checkout in a child process (so training
    memory stays out of ``peak_rss_mb``); returns the training seconds
    recorded when it ran."""
    if not os.path.exists(READY):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py")], check=True,
            stdout=sys.stderr,
        )
    with open(READY) as f:
        return json.load(f)["train_s"]


# ---------------------------------------------------------------------------
# Spark session
# ---------------------------------------------------------------------------


def start_spark():
    from pyspark.sql import SparkSession

    tmp = os.environ["TMPDIR"]
    return (
        SparkSession.builder.master(f"local[{SPARK_CORES}]")
        .appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", os.environ["SPARK_LOCAL_DIRS"])
        .config("spark.sql.warehouse.dir", os.path.join(CACHE, "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .config("spark.executorEnv.OPENBLAS_NUM_THREADS", BLAS_THREADS)
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM (and so its Python
    workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, args):
        import workloads

        self.args = args
        self.spec = (workloads.TINY if args.tiny else workloads.SPECS)[args.workload]
        self.spark = None
        self.calls: list[dict] = []  # one record per GEqO_SET call
        self.results: dict[int, object] = {}  # call index -> PipelineResult
        self.tracer = None
        self.peak_rss_kb = 0  # ru_maxrss once each order has run once
        self.last_wall_s = 0.0

    # -- set-up ------------------------------------------------------
    def setup(self) -> float:
        """Median of SETUP_REPEATS set-ups (model load, workload
        generation, τ calibration), plus Spark start and the first
        (warm-up) call where Spark is used; each part is scaled to the
        reference speed by a probe right before it."""
        import speed
        import workloads
        from repro.nn.pretrained import default_model

        times = []
        self.setup_raw = []
        for _ in range(SETUP_REPEATS):
            p = speed.probe()
            t0 = time.perf_counter()
            model = default_model()
            w = workloads.build(self.spec, self.args.seed, model)
            self.setup_raw.append(time.perf_counter() - t0)
            times.append(speed.scaled(self.setup_raw[-1], p))
        self.model, self.w = model, w
        n = len(w.plans)
        # Order 0 is the seed's permutation, order 1 its reverse.
        self.orders = [w.plans, w.plans[::-1]]
        self.planted = [w.planted, {(n - 1 - j, n - 1 - i) for i, j in w.planted}]
        setup = statistics.median(times)
        if self.spec.spark:
            p = speed.probe_for(0.0, SPARK_SETUP_PROBES)
            t0 = time.perf_counter()
            self.spark = start_spark()
            self.call(0, record=False)
            self.setup_raw.append(time.perf_counter() - t0)
            setup += speed.scaled(self.setup_raw[-1], p)
        return setup

    # -- calls -------------------------------------------------------
    def call(self, k: int, *, record: bool = True, traced: bool = False) -> None:
        import speed
        from repro.core.pipeline import geqo_set_local, geqo_set_spark
        from repro.verifier.av import Verifier

        plans = self.orders[k % 2]
        verifier = Verifier()
        rec = {"order": k % 2, "traced": traced, "error": None}
        if self.spark is not None:
            sc = self.spark.sparkContext
            group = f"perfbench-{len(self.calls)}-{int(record)}"
            sc.setJobGroup(group, group)
        lo = len(self.tracer.spans) if traced else 0
        if record:
            # Slow swings of the host's speed are seen by both the probe
            # and the call that follows it.
            rec["probe_s"] = speed.probe_for(PROBE_SHARE * self.last_wall_s, 2)
        t0 = time.perf_counter()
        try:
            if traced:
                root = self.tracer.open(
                    "pipeline.geqo_set_spark" if self.spark else "pipeline.geqo_set_local"
                )
            try:
                if self.spark is not None:
                    res = geqo_set_spark(self.spark, plans, self.model, tau=self.w.tau)
                else:
                    res = geqo_set_local(plans, self.model, tau=self.w.tau,
                                         verifier=verifier)
            finally:
                if traced:
                    self.tracer.close(root)
        except Exception:  # counted in failed_share; the run goes on
            rec["error"] = traceback.format_exc()
            res = None
        rec["wall_s"] = self.last_wall_s = time.perf_counter() - t0
        if not record:
            return
        rec["scaled_s"] = speed.scaled(rec["wall_s"], rec["probe_s"])
        if traced:
            rec["spans"] = (lo, len(self.tracer.spans))
        rec["solver_calls"] = verifier.solver_calls
        if self.spark is not None:
            st = sc.statusTracker()
            jobs = st.getJobIdsForGroup(group)
            rec["spark_jobs"] = len(jobs)
            rec["spark_stages"] = sum(
                len(info.stageIds) for info in map(st.getJobInfo, jobs) if info
            )
        if res is not None:
            self.results[len(self.calls)] = res
        self.calls.append(rec)

    def warm_up(self) -> None:
        """One untimed call before the timed loop, in the order the
        Spark set-up's warm-up call did not use."""
        self.call(1 if self.spark is not None else 0, record=False)

    def loop(self, seconds: float, *, traced: bool = False) -> None:
        """Closed loop: call after call until ``seconds`` have passed
        and each submission order has run at least once."""
        start, k = time.perf_counter(), 0
        while k < MIN_CALLS or time.perf_counter() - start < seconds:
            self.call(k, traced=traced)
            k += 1
            if k == MIN_CALLS and not self.peak_rss_kb:
                self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- correctness gate (untimed) ----------------------------------
    def gate(self) -> list[str]:
        """Reasons the outputs are wrong; empty if they are right."""
        from repro.core.pipeline import geqo_set_local
        from repro.verifier.model_check import counterexample

        problems: list[str] = []
        by_order: dict[int, set] = {}
        for k, res in self.results.items():
            order = self.calls[k]["order"]
            if by_order.setdefault(order, res.pairs) != res.pairs:
                problems.append(f"call {k}: pairs differ from an earlier call in the same order")
        if not by_order:
            problems.append("no GEqO_SET call returned")
        for order, pairs in by_order.items():
            plans = self.orders[order]
            for i, j in sorted(pairs - self.planted[order]):
                seed = counterexample(plans[i], plans[j])
                if seed is not None:
                    problems.append(
                        f"order {order}: reported pair ({i}, {j}) is not planted "
                        f"and differs on instance seed {seed}"
                    )
            if self.spark is not None:
                local = geqo_set_local(plans, self.model, tau=self.w.tau).pairs
                if local != pairs:
                    problems.append(
                        f"order {order}: Spark pairs differ from geqo_set_local "
                        f"({len(pairs ^ local)} pairs in the symmetric difference)"
                    )
        return problems

    # -- metrics -----------------------------------------------------
    def quality(self) -> dict[str, float]:
        """recall and ε pooled over one call per submission order."""
        first: dict[int, object] = {}
        for k, res in self.results.items():
            first.setdefault(self.calls[k]["order"], res)
        found = sum(len(r.pairs & self.planted[o]) for o, r in first.items())
        planted = sum(len(self.planted[o]) for o in first)
        checked = sum(r.av_pairs_checked for r in first.values())
        confirmed = sum(len(r.pairs) for r in first.values())
        return {
            "recall": found / planted if planted else 0.0,
            "epsilon": (checked - confirmed) / confirmed if confirmed else 0.0,
        }

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        ok = [c["scaled_s"] for c in self.calls if c["error"] is None]
        q = self.quality()
        return {
            "geqo_s": (statistics.fmean(ok or [c["scaled_s"] for c in self.calls]), "s"),
            "recall": (q["recall"], "ratio"),
            "epsilon": (q["epsilon"], "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
            "completed_share": (len(ok) / len(self.calls), "ratio"),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no source tree at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_environment()
    train_s = prepare()

    import layers
    from speed import NOMINAL_S

    bench = Bench(args)
    try:
        setup_s = bench.setup()
        bench.warm_up()
        if args.trace:
            from tracing import Tracer, instrument

            bench.loop(args.seconds / 2)
            bench.tracer = Tracer()
            undo = instrument(bench.tracer, spark=bench.spark is not None)
            try:
                bench.loop(args.seconds / 2, traced=True)
            finally:
                undo()
        else:
            bench.loop(args.seconds)
        problems = bench.gate()
    finally:
        if bench.spark is not None:
            stop_spark(bench.spark)

    if args.trace:
        metrics = layers.per_layer(bench)
    else:
        metrics = bench.end_to_end(setup_s)
    attempted = len(bench.calls)
    failed = sum(c["error"] is not None for c in bench.calls)

    out_dir = os.path.join(CACHE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "train_s": train_s, "setup_s": setup_s,
        "setup_raw_s": bench.setup_raw, "nominal_probe_s": NOMINAL_S,
        "load": {"processes": 1, "clients": 1, "blas_threads": int(BLAS_THREADS),
                 "spark_master": f"local[{SPARK_CORES}]" if bench.spec.spark else None,
                 "shuffle_partitions": SHUFFLE_PARTITIONS if bench.spec.spark else None},
        "survivors": [bench.results[k].survivors for k in sorted(bench.results)],
        "calls": bench.calls,  # a traced call's "spans" is its [lo, hi) in spans
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": bench.tracer.spans if bench.tracer is not None else [],
    }
    name = f"{args.workload}{'-tiny' if args.tiny else ''}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f)

    walls = [c["wall_s"] for c in bench.calls if c["error"] is None]
    probes = [c["probe_s"] for c in bench.calls]
    print(f"workload {args.workload}: {attempted} calls, {failed} raised, "
          f"failed_share {failed / attempted:.4f}; call as measured: mean "
          f"{statistics.fmean(walls) if walls else float('nan'):.4f} s, median "
          f"{statistics.median(walls) if walls else float('nan'):.4f} s; "
          f"mean probe {statistics.fmean(probes):.4f} s (reference {NOMINAL_S} s); "
          f"EMF training {train_s:.1f} s (excluded)")
    for k in sorted(bench.results)[:2]:
        print(f"survivors (order {bench.calls[k]['order']}): {bench.results[k].survivors}")
    for p in problems:
        print(f"CORRECTNESS: {p}")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
