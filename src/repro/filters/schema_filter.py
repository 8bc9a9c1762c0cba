"""Schema filter (SF) — §2.2.1.

Groups workload subexpressions by (table multiset, output arity); only
same-group pairs survive. O(n): one pass to key each subexpression,
then a hash grouping — a dict in-process (:func:`sf_groups`), or a
``groupBy("sf_key")`` over :func:`workload_to_df` under Spark. No pair
is materialized: the rest of the cascade runs inside each group.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.plan import Plan, to_json
from repro.filters.keys import sf_key, sf_key_str


def workload_to_df(spark: SparkSession, plans: list[Plan]) -> DataFrame:
    """Workload as a Spark DataFrame: (id, plan JSON, sf_key). Built from
    pandas, so it ships to the JVM as Arrow batches where Arrow is on."""
    import pandas as pd

    rows = pd.DataFrame(
        [(i, to_json(p), sf_key_str(p)) for i, p in enumerate(plans)],
        columns=["id", "plan", "sf_key"],
    )
    return spark.createDataFrame(rows, "id long, plan string, sf_key string")


def sf_groups(plans: list[Plan]) -> dict[tuple, list[int]]:
    """Driver-side grouping (used by the VMF and the SSFL sampler)."""
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(plans):
        groups.setdefault(sf_key(p), []).append(i)
    return groups


def sf_pair_pass(p1: Plan, p2: Plan) -> bool:
    """Pairwise SF check (the ``≈_SF`` predicate of §2.2)."""
    return sf_key(p1) == sf_key(p2)
