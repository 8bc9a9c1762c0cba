"""The benchmark's workloads: TPC-DS-lite subexpression pools.

Each workload's content is pinned to one generator seed, so its planted
pairs, survivor counts, ``recall`` and ``epsilon`` are the same in every
run. The run's ``--seed`` permutes the order in which the subexpressions
are submitted (plan ids, SF-group member order, HNSW insertion order,
EMF batch composition, Spark partitioning): each seed is a different
input with the same equivalence structure.

τ is calibrated the way ``repro.experiments.table1`` does it:
``calibrate_tau`` on 80 ``make_positive_pairs`` drawn with the
workload's generator seed + 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import Plan
from repro.experiments.table1 import FAMILY_TIERS, TABLE_SETS
from repro.filters.vmf import calibrate_tau
from repro.nn.model import EMF
from repro.workload.labeler import (
    make_planted_workload,
    make_positive_pairs,
    make_reuse_workload,
)
from repro.workload.schema import TPCDS_LITE


@dataclass(frozen=True)
class Spec:
    kind: str  # "planted" | "reuse"
    gen_seed: int
    n: int  # planted: subexpressions; reuse: 4 * classes + singletons
    n_equiv: int = 0  # planted pairs ("planted" only)
    table1_shape: bool = False  # table1's dense table pools and tiers
    spark: bool = False


SPECS = {
    "table1": Spec("planted", 100, 320, 50, table1_shape=True),
    "wide2k": Spec("planted", 200, 2000, 100),
    "reuse": Spec("reuse", 300, 500),
    "table1-spark": Spec("planted", 100, 320, 50, table1_shape=True, spark=True),
}

# --tiny sizes for the smoke test: same generators, n≈40.
TINY = {
    "table1": Spec("planted", 100, 40, 6, table1_shape=True),
    "wide2k": Spec("planted", 200, 40, 6),
    "reuse": Spec("reuse", 300, 40),
    "table1-spark": Spec("planted", 100, 40, 6, table1_shape=True, spark=True),
}

CLASS_SIZE = 4  # reuse workload: members per equivalence class


@dataclass
class Workload:
    plans: list[Plan]
    planted: set[tuple[int, int]]  # (i, j), i < j, in permuted ids
    tau: float


def generate(spec: Spec, seed: int) -> tuple[list[Plan], set[tuple[int, int]]]:
    if spec.kind == "reuse":
        n_classes = spec.n // (CLASS_SIZE + 1)
        w = make_reuse_workload(
            TPCDS_LITE,
            n_classes=n_classes,
            class_size=CLASS_SIZE,
            n_singletons=spec.n - CLASS_SIZE * n_classes,
            seed=spec.gen_seed,
            min_tables=2,
        )
    elif spec.table1_shape:
        w = make_planted_workload(
            TPCDS_LITE,
            n_subexpr=spec.n,
            n_equiv=spec.n_equiv,
            seed=spec.gen_seed,
            table_sets=TABLE_SETS,
            max_proj=2,
            family_tiers=FAMILY_TIERS,
        )
    else:
        w = make_planted_workload(
            TPCDS_LITE, n_subexpr=spec.n, n_equiv=spec.n_equiv, seed=spec.gen_seed
        )
    # The run's seed only reorders the pool: new id = perm[old id].
    perm = np.random.default_rng(seed).permutation(len(w.plans))
    plans: list[Plan] = [None] * len(w.plans)  # type: ignore[list-item]
    for old, p in enumerate(w.plans):
        plans[perm[old]] = p
    planted = {
        (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in w.planted
    }
    return plans, {(int(i), int(j)) for i, j in planted}


def build(spec: Spec, seed: int, model: EMF) -> Workload:
    plans, planted = generate(spec, seed)
    cal = make_positive_pairs(TPCDS_LITE, 80, seed=spec.gen_seed + 1)
    tau = calibrate_tau(model, [(p.p1, p.p2) for p in cal])
    return Workload(plans, planted, tau)
