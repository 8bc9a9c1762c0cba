"""Vector matching filter (VMF) — §2.2, Definition 2.1.

Per SF-group: apply the *n*-ary db-agnostic encoding (§4.2.2), embed
every subexpression with the EMF's trained tree-convolution stack
(eval mode), and emit pairs within Euclidean radius τ as
likely-equivalent candidates.

The radius query is exact: SF-groups hold at most a few dozen plans, so
a blocked pairwise distance computation is cheaper than building an
approximate index and cannot miss a pair the way a beam search can.

Each plan is canonicalized and instance-encoded once
(:func:`encode_workload`); every group's agnostic encoding is then a
matrix conversion (§4.2.1), and the EMF stage reuses the same instance
encodings. Both executors of the cascade reach the VMF through
:func:`repro.core.pipeline.run_group`, which calls :func:`vmf_candidates`
on one SF-group at a time.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable

import numpy as np

from repro.core.plan import Plan
from repro.encoding.agnostic import (
    DEFAULT_SPACE,
    AgnosticSpace,
    convert_group,
    encode_group_agnostic,
)
from repro.encoding.canonical_form import canonical_plan
from repro.encoding.instance import TreeEnc, Vocab, encode_tree, workload_vocab
from repro.filters.schema_filter import sf_groups
from repro.nn.model import EMF
from repro.nn.train import pad_encs

DEFAULT_TAU = 1.0  # paper: FAISS radius d = 1 (§7 Implementation)
_BLOCK_FLOATS = 1 << 20  # difference tensor per row block (8 MB of float64)


def embed_group(
    model: EMF, plans: list[Plan], space: AgnosticSpace = DEFAULT_SPACE
) -> np.ndarray:
    """(n, h) embeddings of one SF-group under the group-wise n-ary
    db-agnostic encoding."""
    canon = [canonical_plan(p) for p in plans]
    encs = encode_group_agnostic(canon, space)
    X, L, R, mask = pad_encs(encs)
    return model.embed_eval(X, L, R, mask)


def encode_workload(plans: list[Plan]) -> tuple[list[TreeEnc], Vocab]:
    """Instance encodings of the canonical plans over the workload's own
    vocabulary — the per-plan work the VMF and EMF stages share."""
    canon = [canonical_plan(p) for p in plans]
    vocab = workload_vocab(canon)
    return [encode_tree(p, vocab) for p in canon], vocab


def radius_pairs(Z: np.ndarray, tau: float) -> set[tuple[int, int]]:
    """All (i, j), i < j, with ‖Z[i] − Z[j]‖² ≤ τ², by exact search over
    row blocks of bounded memory."""
    n, h = Z.shape
    r2 = tau * tau
    rows = max(1, _BLOCK_FLOATS // max(1, n * h))
    out: set[tuple[int, int]] = set()
    for lo in range(0, n, rows):
        d = Z[lo : lo + rows, None, :] - Z[None, lo:, :]
        close = np.triu(np.einsum("ijk,ijk->ij", d, d) <= r2, k=1)
        ii, jj = np.nonzero(close)
        out.update(zip((ii + lo).tolist(), (jj + lo).tolist()))
    return out


def group_candidate_pairs(
    model: EMF,
    encs: list[TreeEnc],
    vocab: Vocab,
    *,
    tau: float = DEFAULT_TAU,
    space: AgnosticSpace = DEFAULT_SPACE,
) -> set[tuple[int, int]]:
    """Candidate pairs (local indices, i < j) within one SF-group, from
    the instance encodings ``encs`` (over ``vocab``) of its canonical
    plans. Raises ValueError if the group exceeds the agnostic space."""
    if len(encs) < 2:
        return set()
    X, L, R, mask = pad_encs(convert_group(encs, vocab, space))
    return radius_pairs(model.embed_eval(X, L, R, mask), tau)


def vmf_candidates(
    model: EMF,
    encs: list[TreeEnc],
    vocab: Vocab,
    groups: Iterable[list[int]],
    *,
    tau: float = DEFAULT_TAU,
    space: AgnosticSpace = DEFAULT_SPACE,
) -> tuple[set[tuple[int, int]], int]:
    """Candidate pairs (global ids) over SF-groups of a workload whose
    instance encodings are ``encs``, and the number of groups passed
    through whole because they exceed the agnostic space."""
    out: set[tuple[int, int]] = set()
    passthrough = 0
    for idxs in groups:
        try:
            pairs = group_candidate_pairs(
                model, [encs[i] for i in idxs], vocab, tau=tau, space=space
            )
        except ValueError:
            # the filter must not drop true equivalences it cannot judge
            passthrough += 1
            pairs = itertools.combinations(range(len(idxs)), 2)
        for a, b in pairs:
            i, j = idxs[a], idxs[b]
            out.add((min(i, j), max(i, j)))
    return out, passthrough


def calibrate_tau(
    model: EMF,
    positive_pairs: list[tuple[Plan, Plan]],
    *,
    target_recall: float = 0.98,
    space: AgnosticSpace = DEFAULT_SPACE,
) -> float:
    """Pick τ as the ``target_recall`` quantile of positive-pair
    embedding distances — the VMF must admit (nearly) all equivalences
    (§1: "ensure that equivalence pairs are admitted with high recall").
    """
    dists = []
    for p1, p2 in positive_pairs:
        try:
            Z = embed_group(
                model, [canonical_plan(p1), canonical_plan(p2)], space
            )
        except ValueError:
            continue
        dists.append(float(np.linalg.norm(Z[0] - Z[1])))
    if not dists:
        return DEFAULT_TAU
    tau = float(np.quantile(dists, target_recall))
    return max(tau, 1e-3)  # equivalent pairs often embed identically


class VMF:
    """Stateful wrapper holding the embedding model and threshold."""

    def __init__(self, model: EMF, *, tau: float = DEFAULT_TAU,
                 space: AgnosticSpace = DEFAULT_SPACE):
        self.model = model
        self.tau = tau
        self.space = space

    def candidate_pairs(self, plans: list[Plan]) -> set[tuple[int, int]]:
        """SF-group-wise candidates over a whole workload (global ids)."""
        encs, vocab = encode_workload(plans)
        pairs, _ = vmf_candidates(
            self.model, encs, vocab, sf_groups(plans).values(),
            tau=self.tau, space=self.space,
        )
        return pairs

    def pair_distance(self, p1: Plan, p2: Plan) -> float:
        """Pairwise embedding distance (the ``≈_VMF`` predicate)."""
        Z = embed_group(self.model, [canonical_plan(p1), canonical_plan(p2)],
                        self.space)
        return float(np.linalg.norm(Z[0] - Z[1]))

    def pair_pass(self, p1: Plan, p2: Plan) -> bool:
        try:
            return self.pair_distance(p1, p2) < self.tau
        except ValueError:
            return True

