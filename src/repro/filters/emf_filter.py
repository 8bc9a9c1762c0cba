"""Equivalence model filter (EMF) as a pipeline stage (§2.2).

Scores candidate pairs with the trained tree-conv MLP, in batches:
from plans, each pair encoded from scratch (:func:`emf_scores`), or
from per-plan instance encodings through the §4.2.1 converter
(:func:`emf_scores_workload`, the cascade's path in both executors).

The filter threshold defaults to 0.2, *below* the 0.5 classification
threshold: as the paper stresses (§7.1.1), false negatives are missed
equivalences and "should be minimized at all costs", while false
positives only cost wasted verifier work.
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import Plan
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


def _score(model: EMF, encoded, n: int, batch_size: int) -> tuple[np.ndarray, int]:
    """Probabilities for ``n`` pairs, and how many skipped scoring.
    ``encoded`` yields ``(k, ea, eb)`` for each pair that fits the
    agnostic space; the others keep proba 1.0 (pass). Each batch is
    padded to its largest plan."""
    out = np.ones(n)
    scored = 0
    batch: list[tuple[int, TreeEnc, TreeEnc]] = []

    def flush() -> None:
        nonlocal scored
        keep, ea, eb = zip(*batch)
        scored += len(keep)
        m = max(e.X.shape[0] for e in ea + eb)
        out[np.array(keep)] = model.predict_proba(pad_encs(ea, m), pad_encs(eb, m))
        batch.clear()

    for item in encoded:
        batch.append(item)
        if len(batch) >= batch_size:
            flush()
    if batch:
        flush()
    return out, n - scored


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

    return _score(model, encoded(), len(pairs), batch_size)[0]


def emf_scores_workload(
    model: EMF,
    encs: list[TreeEnc],
    pairs: list[tuple[int, int]],
    vocab: Vocab,
    *,
    space: AgnosticSpace = DEFAULT_SPACE,
    batch_size: int = 256,
) -> tuple[np.ndarray, int]:
    """Workload-scale EMF scoring via the §4.2.1 converter: the
    probabilities, and the number of pairs that skipped scoring (proba
    1.0) because they exceed the agnostic space.

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

