"""The GEqO cascade (§2.2): SF → VMF → EMF → AV.

Two implementations of ``GEqO_SET`` (Equation 1):

- :func:`geqo_set_spark` — the distributed pipeline. The workload is a
  Spark DataFrame; SF grouping/pairing is a self-join, the VMF runs one
  `applyInPandas` task per SF-group, EMF scoring and AV verification run
  under `mapInPandas` with broadcast model weights. Filters
  short-circuit by construction: a pair dropped by a stage never
  reaches the next.
- :func:`geqo_set_local` — same semantics on the driver, used by the
  SSFL inner loop and micro-benchmarks where Spark task overhead would
  drown the measured quantity. Each plan is canonicalized and
  instance-encoded once, inside the VMF stage; every SF-group's n-ary
  encoding and every EMF pair's encoding is then a matrix conversion
  (§4.2.1, :func:`repro.filters.vmf.encode_workload`).

Both return a :class:`PipelineResult` with per-stage survivor counts
and wall-clock times, which is what the Table 1 / ablation experiments
report.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.plan import Plan, from_json
from repro.filters.emf_filter import (
    DEFAULT_EMF_THRESHOLD,
    emf_scores_spark,
    emf_scores_workload,
)
from repro.filters.schema_filter import sf_candidate_pairs, sf_groups, workload_to_df
from repro.filters.vmf import (
    DEFAULT_TAU,
    encode_workload,
    vmf_candidates,
    vmf_candidates_spark,
)
from repro.nn.model import EMF
from repro.verifier.av import Verifier


@dataclass
class PipelineResult:
    pairs: set[tuple[int, int]]  # AV-confirmed equivalent pairs
    n_total_pairs: int
    survivors: dict[str, int] = field(default_factory=dict)  # per stage
    times: dict[str, float] = field(default_factory=dict)  # seconds
    av_pairs_checked: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.times.values())


def geqo_set_local(
    plans: list[Plan],
    model: EMF | None,
    *,
    filters: tuple[str, ...] = ("SF", "VMF", "EMF"),
    tau: float = DEFAULT_TAU,
    emf_threshold: float = DEFAULT_EMF_THRESHOLD,
    verifier: Verifier | None = None,
) -> PipelineResult:
    """Driver-side GEqO_SET; ``filters`` selects the cascade (ablation)."""
    n = len(plans)
    total = n * (n - 1) // 2
    res = PipelineResult(set(), total)
    verifier = verifier or Verifier()

    pairs: set[tuple[int, int]] | None = None
    groups = None
    if "SF" in filters:
        t0 = time.perf_counter()
        groups = sf_groups(plans)
        pairs = set()
        for idxs in groups.values():
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    pairs.add((idxs[a], idxs[b]))
        res.times["SF"] = time.perf_counter() - t0
        res.survivors["SF"] = len(pairs)
    encoded = None  # (instance encodings, vocab): each plan encoded once
    if "VMF" in filters:
        if model is None:
            raise ValueError("VMF requires a trained model")
        t0 = time.perf_counter()
        if groups is None:
            groups = sf_groups(plans)
        encoded = encode_workload(plans)
        cand = vmf_candidates(model, *encoded, groups.values(), tau=tau)
        pairs = cand if pairs is None else (pairs & cand)
        res.times["VMF"] = time.perf_counter() - t0
        res.survivors["VMF"] = len(pairs)
    if pairs is None:  # no pair-pruning filter ran yet: all pairs
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
    if "EMF" in filters:
        if model is None:
            raise ValueError("EMF requires a trained model")
        t0 = time.perf_counter()
        encs, vocab = encoded or encode_workload(plans)
        ordered = sorted(pairs)
        proba = emf_scores_workload(model, encs, ordered, vocab)
        pairs = {p for p, s in zip(ordered, proba) if s >= emf_threshold}
        res.times["EMF"] = time.perf_counter() - t0
        res.survivors["EMF"] = len(pairs)

    t0 = time.perf_counter()
    confirmed = {
        (i, j) for i, j in pairs if verifier.equivalent(plans[i], plans[j])
    }
    res.times["AV"] = time.perf_counter() - t0
    res.av_pairs_checked = len(pairs)
    res.pairs = confirmed
    res.survivors["AV"] = len(confirmed)
    return res


def geqo_set_spark(
    spark: SparkSession,
    plans: list[Plan],
    model: EMF,
    *,
    tau: float = DEFAULT_TAU,
    emf_threshold: float = DEFAULT_EMF_THRESHOLD,
) -> PipelineResult:
    """Distributed GEqO_SET: SF ∘ VMF ∘ EMF ∘ AV over Spark."""
    n = len(plans)
    res = PipelineResult(set(), n * (n - 1) // 2)

    t0 = time.perf_counter()
    wdf = workload_to_df(spark, plans).cache()
    n_sf = sf_candidate_pairs(wdf).count()
    res.times["SF"] = time.perf_counter() - t0
    res.survivors["SF"] = n_sf

    # VMF inside SF-groups (group key carries the SF semantics)
    t0 = time.perf_counter()
    cand = vmf_candidates_spark(wdf, model, tau=tau).cache()
    res.survivors["VMF"] = cand.count()
    res.times["VMF"] = time.perf_counter() - t0

    # attach plan JSON for downstream stages
    plans_df = wdf.select("id", "plan")
    pairs_df = (
        cand.join(plans_df.withColumnRenamed("id", "id1")
                  .withColumnRenamed("plan", "plan1"), on="id1")
        .join(plans_df.withColumnRenamed("id", "id2")
              .withColumnRenamed("plan", "plan2"), on="id2")
    )

    t0 = time.perf_counter()
    scored = emf_scores_spark(pairs_df, model)
    emf_pass = scored.where(F.col("proba") >= emf_threshold).cache()
    res.survivors["EMF"] = emf_pass.count()
    res.times["EMF"] = time.perf_counter() - t0

    # AV on survivors, distributed
    t0 = time.perf_counter()
    to_verify = (
        emf_pass.join(plans_df.withColumnRenamed("id", "id1")
                      .withColumnRenamed("plan", "plan1"), on="id1")
        .join(plans_df.withColumnRenamed("id", "id2")
              .withColumnRenamed("plan", "plan2"), on="id2")
    )

    def av_verify(batches):
        import pandas as pd

        v = Verifier()
        for pdf in batches:
            if len(pdf) == 0:
                continue
            ok = [
                v.equivalent(from_json(a), from_json(b))
                for a, b in zip(pdf["plan1"], pdf["plan2"])
            ]
            yield pd.DataFrame(
                {"id1": pdf["id1"], "id2": pdf["id2"], "equivalent": ok}
            )

    verified = to_verify.mapInPandas(
        av_verify, schema="id1 long, id2 long, equivalent boolean"
    )
    rows = verified.where(F.col("equivalent")).select("id1", "id2").collect()
    res.times["AV"] = time.perf_counter() - t0
    res.av_pairs_checked = res.survivors["EMF"]
    res.pairs = {(int(r.id1), int(r.id2)) for r in rows}
    res.survivors["AV"] = len(res.pairs)
    wdf.unpersist()
    cand.unpersist()
    emf_pass.unpersist()
    return res
