"""Per-layer metrics of a traced run (``--trace 1``).

Each per-call figure is the median over the traced calls; AV per-pair
latency percentiles pool the pairs of every traced call. A layer that a
workload does not reach reports 0 (for example ``spark.*`` on the local
workloads, or the in-worker layers on ``table1-spark``, whose functions
run inside Spark's Python workers where the tracer cannot see them).
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import END, NAME, N, START, percentile_tail, self_times

STAGES = ("SF", "VMF", "EMF", "AV")

# metric -> (span name, what): "s" inclusive seconds, "calls" span count,
# "n" summed item counts
SPAN_METRICS = {
    "sf.s": ("sf.sf_groups", "s"),
    "encoding.canonical_s": ("encoding.canonical", "s"),
    "encoding.canonical_calls": ("encoding.canonical", "calls"),
    "encoding.group_s": ("encoding.group", "s"),
    "encoding.group_plans": ("encoding.group", "n"),
    "encoding.pair_s": ("encoding.pair", "s"),
    "encoding.pair_calls": ("encoding.pair", "calls"),
    "encoding.pad_s": ("encoding.pad", "s"),
    "nn.embed_s": ("nn.embed", "s"),
    "nn.embed_rows": ("nn.embed", "n"),
    "nn.predict_s": ("nn.predict", "s"),
    "nn.predict_pairs": ("nn.predict", "n"),
    "ann.build_s": ("ann.build", "s"),
    "ann.build_points": ("ann.build", "n"),
    "ann.search_s": ("ann.search", "s"),
    "ann.search_calls": ("ann.search", "calls"),
    "av.flatten_s": ("av.flatten", "s"),
    "av.flatten_calls": ("av.flatten", "calls"),
    "solver.implies_s": ("solver.implies", "s"),
    "solver.implies_calls": ("solver.implies", "calls"),
    "solver.sat_s": ("solver.sat", "s"),
    "solver.sat_calls": ("solver.sat", "calls"),
    "spark.action_s": ("spark.action", "s"),
}
COUNTERS = ("encoding.passthrough", "vmf.passthrough_groups", "av.errors")


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("av.pair_ms."):
        return "pct" if name.endswith("_pct") else "ms"
    if "ratio" in name or name.endswith("_per_pair"):
        return "ratio"
    return "count"


def call_metrics(spans, lo: int, hi: int, rec: dict, res, sf_stats) -> dict[str, float]:
    """Per-layer figures of one traced call (spans[lo:hi] is its tree)."""
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    items: dict[str, int] = defaultdict(int)
    for s in spans[lo:hi]:
        incl[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        items[s[NAME]] += s[N]
    selfs = self_times(spans, lo, hi)
    root = spans[lo][NAME]
    m: dict[str, float] = {}
    for metric, (span, what) in SPAN_METRICS.items():
        m[metric] = {"s": incl, "calls": calls, "n": items}[what].get(span, 0)
    surv = res.survivors if res is not None else {}
    times = res.times if res is not None else {}
    spark = root == "pipeline.geqo_set_spark"
    for st in STAGES:
        m[f"pipeline.{st.lower()}_s"] = times.get(st, 0.0)
        m[f"pipeline.{st.lower()}_out"] = surv.get(st, 0)
        m[f"spark.{st.lower()}_s"] = times.get(st, 0.0) if spark else 0.0
    m["pipeline.self_s"] = selfs[root]
    m["sf.groups"], m["sf.max_group"] = sf_stats
    rows = m["nn.embed_rows"] + 2 * m["nn.predict_pairs"]
    m["nn.conv_rows_per_pair"] = rows / m["nn.predict_pairs"] if m["nn.predict_pairs"] else 0.0
    m["vmf.pass_ratio"] = surv["VMF"] / surv["SF"] if surv.get("SF") else 0.0
    m["emf.pass_ratio"] = surv["EMF"] / surv["VMF"] if surv.get("VMF") else 0.0
    m["av.pairs"] = res.av_pairs_checked if res is not None else calls["av.equivalent"]
    m["av.confirmed"] = surv.get("AV", 0)
    m["av.useful_ratio"] = m["av.confirmed"] / m["av.pairs"] if m["av.pairs"] else 0.0
    m["av.self_s"] = selfs.get("av.equivalent", 0.0)
    m["solver.verifier_calls"] = rec.get("solver_calls", 0)
    m["spark.jobs"] = rec.get("spark_jobs", 0)
    m["spark.stages"] = rec.get("spark_stages", 0)
    m["trace.spans"] = hi - lo
    return m


def accounting(spans, lo: int, hi: int, wall_s: float) -> dict[str, float]:
    """Self times of all spans of one call, the root's (``pipeline.self_s``)
    included, against the call's wall time measured outside the root."""
    return {
        "wall_s": wall_s,
        "root_s": spans[lo][END] - spans[lo][START],
        "self_sum_s": sum(self_times(spans, lo, hi).values()),
    }


def per_layer(bench) -> dict[str, tuple[float, str]]:
    from repro.filters.schema_filter import sf_groups

    spans = bench.tracer.spans
    groups = sf_groups(bench.w.plans)
    sf_stats = (len(groups), max(len(g) for g in groups.values()))
    per_call, pair_ms = [], []
    for k, rec in enumerate(bench.calls):
        if not rec["traced"]:
            continue
        lo, hi = rec["spans"]
        per_call.append(call_metrics(spans, lo, hi, rec, bench.results.get(k), sf_stats))
        rec["accounting"] = accounting(spans, lo, hi, rec["wall_s"])
        pair_ms += [
            (s[END] - s[START]) * 1e3 for s in spans[lo:hi] if s[NAME] == "av.equivalent"
        ]
    out = {
        name: (statistics.median(c[name] for c in per_call), unit(name))
        for name in per_call[0]
    }
    counters = bench.tracer.counters
    for name in COUNTERS:
        out[name] = (counters[name] / len(per_call), "count")
    p50, tail, pct = percentile_tail(pair_ms)
    out["av.pair_ms.p50"] = (p50, "ms")
    out["av.pair_ms.tail"] = (tail, "ms")
    out["av.pair_ms.tail_pct"] = (pct, "pct")
    walls = defaultdict(list)
    for rec in bench.calls:
        walls[rec["traced"]].append(rec["scaled_s"])
    out["trace.overhead_s"] = (
        statistics.fmean(walls[True]) - statistics.fmean(walls[False]), "s"
    )
    return dict(sorted(out.items()))
