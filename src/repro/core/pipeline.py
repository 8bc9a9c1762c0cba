"""The GEqO cascade (§2.2): SF → VMF → EMF → AV, one definition, two
executors.

Every pair that survives the schema filter lies inside one SF-group,
so the cascade after SF runs group by group. :func:`run_group` is that
per-group cascade: it canonicalizes and instance-encodes each plan of
the group once (:func:`repro.filters.vmf.encode_workload`), keeps the
pairs within embedding radius τ (VMF), scores them with the EMF through
the §4.2.1 converter, and verifies the EMF survivors with the AV,
flattening each plan at most once. It returns the confirmed pairs and
one metric row (:data:`ROW_FIELDS`).

- :func:`geqo_set_local` loops over :func:`sf_groups` in-process.
  The experiments, the SSFL inner loop and the micro-benchmarks use it.
- :func:`geqo_set_spark` is one Spark job:
  ``workload_to_df(...).groupBy("sf_key").applyInPandas(...)`` runs
  :func:`run_group` in one task per SF-group with broadcast model
  weights, and a single ``collect()`` brings back each group's pairs
  and metric row.

Both build their :class:`PipelineResult` from the summed metric rows,
so survivor counts, pass-throughs and AV unknowns are counted the same
way in both.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.plan import Plan, from_json
from repro.filters.emf_filter import DEFAULT_EMF_THRESHOLD, emf_scores_workload
from repro.filters.schema_filter import sf_groups, workload_to_df
from repro.filters.vmf import DEFAULT_TAU, encode_workload, vmf_candidates
from repro.nn.model import EMF
from repro.verifier.av import Verifier

STAGES = ("SF", "VMF", "EMF", "AV")
FULL_CASCADE = ("SF", "VMF", "EMF")

# One group's metric row. ``<stage>_out`` counts the pairs after the
# stage (a filter that is off lets every pair through); seconds are spent
# inside the group. VMF pass-throughs are groups that exceed the agnostic
# space, EMF pass-throughs pairs that skipped scoring; AV unknowns are
# pairs given up on at the verifier's budgets.
ROW_FIELDS = (
    "SF_out", "VMF_out", "EMF_out", "AV_out",
    "VMF_s", "EMF_s", "AV_s",
    "VMF_passthrough", "EMF_passthrough", "AV_unknown",
)


@dataclass
class PipelineResult:
    pairs: set[tuple[int, int]]  # AV-confirmed equivalent pairs
    n_total_pairs: int
    survivors: dict[str, int] = field(default_factory=dict)  # per stage
    times: dict[str, float] = field(default_factory=dict)  # seconds
    av_pairs_checked: int = 0
    passthrough: dict[str, int] = field(default_factory=dict)  # VMF, EMF
    av_unknown: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.times.values())

    def to_dict(self) -> dict:
        """Machine-readable record: per stage that ran, its seconds,
        pairs in and out and pass-throughs (VMF: groups, EMF: pairs);
        for the AV, pairs checked, confirmed and unknown."""
        stages, pairs_in = {}, self.n_total_pairs
        for st in STAGES:
            if st not in self.survivors:
                continue
            stages[st] = {
                "seconds": self.times.get(st, 0.0),
                "pairs_in": pairs_in,
                "pairs_out": self.survivors[st],
                "passthrough": self.passthrough.get(st, 0),
            }
            pairs_in = self.survivors[st]
        return {
            "n_total_pairs": self.n_total_pairs,
            "stages": stages,
            "av": {
                "checked": self.av_pairs_checked,
                "confirmed": len(self.pairs),
                "unknown": self.av_unknown,
            },
        }


def run_group(
    model: EMF | None,
    plans: list[Plan],
    *,
    filters: tuple[str, ...] = FULL_CASCADE,
    tau: float = DEFAULT_TAU,
    emf_threshold: float = DEFAULT_EMF_THRESHOLD,
    verifier: Verifier | None = None,
) -> tuple[list[tuple[int, int]], dict[str, float]]:
    """The cascade after SF on one group of ``plans``, given in ascending
    global-id order; ``filters`` says whether the VMF and the EMF run.

    Returns the AV-confirmed pairs as local indices ``(i, j)``, i < j,
    and the group's metric row (:data:`ROW_FIELDS`)."""
    n = len(plans)
    row = dict.fromkeys(ROW_FIELDS, 0)
    row["SF_out"] = n * (n - 1) // 2
    if n < 2:
        return [], row
    verifier = verifier or Verifier()

    encoded = None  # (instance encodings, vocab): each plan encoded once
    if "VMF" in filters:
        t0 = time.perf_counter()
        encoded = encode_workload(plans)
        cand, row["VMF_passthrough"] = vmf_candidates(
            model, *encoded, [range(n)], tau=tau
        )
        pairs = sorted(cand)
        row["VMF_s"] = time.perf_counter() - t0
    else:
        pairs = list(itertools.combinations(range(n), 2))
    row["VMF_out"] = len(pairs)

    if "EMF" in filters:
        t0 = time.perf_counter()
        encs, vocab = encoded or encode_workload(plans)
        proba, row["EMF_passthrough"] = emf_scores_workload(model, encs, pairs, vocab)
        pairs = [p for p, s in zip(pairs, proba) if s >= emf_threshold]
        row["EMF_s"] = time.perf_counter() - t0
    row["EMF_out"] = len(pairs)

    t0 = time.perf_counter()
    unknown = verifier.unknown
    with verifier.flatten_once():
        confirmed = [(i, j) for i, j in pairs if verifier.equivalent(plans[i], plans[j])]
    row["AV_s"] = time.perf_counter() - t0
    row["AV_out"] = len(confirmed)
    row["AV_unknown"] = verifier.unknown - unknown
    return confirmed, row


def _result(
    n: int, pairs: set[tuple[int, int]], total: dict, stages: list[str], sf_s: float
) -> PipelineResult:
    """PipelineResult of the stages that ran, from summed metric rows and
    the executor's SF grouping time."""
    res = PipelineResult(
        pairs, n * (n - 1) // 2,
        av_pairs_checked=int(total["EMF_out"]),
        av_unknown=int(total["AV_unknown"]),
    )
    for st in stages:
        res.survivors[st] = int(total[f"{st}_out"])
        res.times[st] = sf_s if st == "SF" else float(total[f"{st}_s"])
        if st in ("VMF", "EMF"):
            res.passthrough[st] = int(total[f"{st}_passthrough"])
    if "SF" not in stages and "VMF" in stages:
        res.times["VMF"] += sf_s  # the VMF needs the SF-groups
    return res


def _add(total: dict, row) -> None:
    for f in ROW_FIELDS:
        total[f] += row[f]


def geqo_set_local(
    plans: list[Plan],
    model: EMF | None,
    *,
    filters: tuple[str, ...] = FULL_CASCADE,
    tau: float = DEFAULT_TAU,
    emf_threshold: float = DEFAULT_EMF_THRESHOLD,
    verifier: Verifier | None = None,
) -> PipelineResult:
    """In-process GEqO_SET: :func:`run_group` over each SF-group.
    ``filters`` selects the cascade (ablation); without SF and VMF the
    whole workload is one group."""
    if model is None and {"VMF", "EMF"} & set(filters):
        raise ValueError("the VMF and the EMF require a trained model")
    verifier = verifier or Verifier()
    t0 = time.perf_counter()
    if "SF" in filters or "VMF" in filters:
        groups = list(sf_groups(plans).values())
    else:
        groups = [list(range(len(plans)))]
    sf_s = time.perf_counter() - t0

    pairs: set[tuple[int, int]] = set()
    total = dict.fromkeys(ROW_FIELDS, 0)
    for idxs in groups:
        found, row = run_group(
            model, [plans[i] for i in idxs], filters=filters, tau=tau,
            emf_threshold=emf_threshold, verifier=verifier,
        )
        pairs.update((idxs[a], idxs[b]) for a, b in found)
        _add(total, row)
    stages = [st for st in STAGES if st in filters or st == "AV"]
    return _result(len(plans), pairs, total, stages, sf_s)


_SPARK_SCHEMA = "id1 array<long>, id2 array<long>, " + ", ".join(
    f"{f} {'double' if f.endswith('_s') else 'long'}" for f in ROW_FIELDS
)


def geqo_set_spark(
    spark: SparkSession,
    plans: list[Plan],
    model: EMF,
    *,
    tau: float = DEFAULT_TAU,
    emf_threshold: float = DEFAULT_EMF_THRESHOLD,
) -> PipelineResult:
    """Distributed GEqO_SET: one Spark job that runs :func:`run_group`
    in one ``applyInPandas`` task per SF-group. Stage times are the sums
    of in-task seconds; the SF time is the keying of the plans in
    :func:`workload_to_df`."""
    import pandas as pd

    t0 = time.perf_counter()
    wdf = workload_to_df(spark, plans)
    sf_s = time.perf_counter() - t0
    weights = spark.sparkContext.broadcast(model.to_bytes())
    tau, emf_threshold = float(tau), float(emf_threshold)
    task_model: list[EMF] = []  # deserialized once per task, on first use

    def per_group(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("id")
        ids = pdf["id"].tolist()
        group = [from_json(s) for s in pdf["plan"]]
        if len(group) > 1 and not task_model:
            task_model.append(EMF.from_bytes(weights.value))
        found, row = run_group(
            task_model[0] if task_model else None,
            group, tau=tau, emf_threshold=emf_threshold,
        )
        return pd.DataFrame([{
            "id1": [ids[a] for a, _ in found],
            "id2": [ids[b] for _, b in found],
            **row,
        }])

    try:
        rows = wdf.groupBy("sf_key").applyInPandas(per_group, _SPARK_SCHEMA).collect()
    finally:
        weights.destroy()
    pairs: set[tuple[int, int]] = set()
    total = dict.fromkeys(ROW_FIELDS, 0)
    for r in rows:
        pairs.update(zip(r.id1, r.id2))
        _add(total, r)
    return _result(len(plans), pairs, total, list(STAGES), sf_s)
