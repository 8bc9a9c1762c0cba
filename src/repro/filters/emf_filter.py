"""Equivalence model filter (EMF) as a pipeline stage (§2.2).

Scores candidate pairs with the trained tree-conv MLP. Driver-side
batched scoring, from plans (:func:`emf_scores`) or from per-plan
instance encodings through the §4.2.1 converter
(:func:`emf_scores_workload`, the local cascade's path), plus a Spark
`mapInPandas` variant with broadcast weights for the distributed
pipeline.

The filter threshold defaults to 0.2, *below* the 0.5 classification
threshold: as the paper stresses (§7.1.1), false negatives are missed
equivalences and "should be minimized at all costs", while false
positives only cost wasted verifier work.
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import Plan, from_json
from repro.encoding.agnostic import (
    DEFAULT_SPACE,
    AgnosticSpace,
    convert_pair,
    encode_pair_agnostic,
)
from repro.encoding.canonical_form import canonical_plan
from repro.encoding.instance import TreeEnc, Vocab
from repro.nn.model import EMF
from repro.nn.train import pad_encs

DEFAULT_EMF_THRESHOLD = 0.2


def _score(model: EMF, encoded, n: int, batch_size: int) -> np.ndarray:
    """Probabilities for ``n`` pairs. ``encoded`` yields ``(k, ea, eb)``
    for each pair that fits the agnostic space; the others keep proba
    1.0 (pass). Each batch is padded to its largest plan."""
    out = np.ones(n)
    batch: list[tuple[int, TreeEnc, TreeEnc]] = []

    def flush() -> None:
        keep, ea, eb = zip(*batch)
        m = max(e.X.shape[0] for e in ea + eb)
        out[np.array(keep)] = model.predict_proba(pad_encs(ea, m), pad_encs(eb, m))
        batch.clear()

    for item in encoded:
        batch.append(item)
        if len(batch) >= batch_size:
            flush()
    if batch:
        flush()
    return out


def emf_scores(
    model: EMF,
    pairs: list[tuple[Plan, Plan]],
    *,
    space: AgnosticSpace = DEFAULT_SPACE,
    batch_size: int = 256,
) -> np.ndarray:
    """Equivalence probabilities for plan pairs, each encoded from
    scratch (driver-side)."""

    def encoded():
        for k, (p1, p2) in enumerate(pairs):
            try:
                ea, eb = encode_pair_agnostic(
                    canonical_plan(p1), canonical_plan(p2), space
                )
            except ValueError:
                continue
            yield k, ea, eb

    return _score(model, encoded(), len(pairs), batch_size)


def emf_scores_workload(
    model: EMF,
    encs: list[TreeEnc],
    pairs: list[tuple[int, int]],
    vocab: Vocab,
    *,
    space: AgnosticSpace = DEFAULT_SPACE,
    batch_size: int = 256,
) -> np.ndarray:
    """Workload-scale EMF scoring via the §4.2.1 converter.

    ``encs`` are the instance encodings (over ``vocab``) of the
    workload's canonical plans, computed once per plan (see
    :func:`repro.filters.vmf.encode_workload`); each pair ``(i, j)`` is
    converted to the db-agnostic space from ``encs[i]`` and ``encs[j]``,
    avoiding the O(n²) re-walk of plans that naive pairwise encoding
    costs. This is the paper's "lightweight converter" fast path; §4.2.1
    reports it 1.8× faster than encoding pairs from scratch (we measure
    our own factor in EXPERIMENTS.md). Batches are formed as in
    :func:`emf_scores`, so equal encodings give equal probabilities.
    """

    def encoded():
        for k, (i, j) in enumerate(pairs):
            try:
                ea, eb = convert_pair(encs[i], encs[j], vocab, space)
            except ValueError:
                continue
            yield k, ea, eb

    return _score(model, encoded(), len(pairs), batch_size)


def emf_scores_spark(pairs_df, model: EMF):
    """Spark EMF scoring over a (id1, id2, plan1, plan2) DataFrame.

    Returns (id1, id2, proba). Weights are broadcast once; each
    `mapInPandas` batch deserializes them (cheap: a few ms)."""
    import pandas as pd

    spark = pairs_df.sparkSession
    weights = spark.sparkContext.broadcast(model.to_bytes())

    def score(batches):
        model = EMF.from_bytes(weights.value)
        for pdf in batches:
            if len(pdf) == 0:
                continue
            pairs = [
                (from_json(a), from_json(b))
                for a, b in zip(pdf["plan1"], pdf["plan2"])
            ]
            proba = emf_scores(model, pairs)
            yield pd.DataFrame(
                {"id1": pdf["id1"], "id2": pdf["id2"], "proba": proba}
            )

    return pairs_df.mapInPandas(score, schema="id1 long, id2 long, proba double")
