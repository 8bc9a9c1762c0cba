"""DB-agnostic encoding tests (§4.2) — symbolization, converter parity,
transfer invariance. Covers the Table 2 symbolization example."""
import itertools

import numpy as np
import pytest

from repro.core.plan import rename_aliases
from repro.encoding.canonical_form import canonical_plan
from repro.experiments import table1
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import encode_workload
from repro.encoding.agnostic import (
    AgnosticSpace,
    convert_group,
    convert_pair,
    encode_group_agnostic,
    encode_pair_agnostic,
    symbol_maps,
)
from repro.encoding.instance import encode_tree, schema_vocab, workload_vocab
from repro.workload.generator import random_plans
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from tests.test_plan import fig1_q1, fig1_q2


def test_symbol_maps_table2_example():
    """Table 2: A→t1, B→t2 (0-indexed here), columns in lexicographic order."""
    tmap, cmap = symbol_maps([fig1_q1(), fig1_q2()])
    assert tmap == {"A": "t0", "B": "t1"}
    assert cmap["A.joinKey"] == "t0.c0"
    assert cmap["A.val"] == "t0.c1"
    assert cmap["A.x"] == "t0.c2"
    assert cmap["B.joinKey"] == "t1.c0"
    assert cmap["B.val"] == "t1.c1"
    assert cmap["B.y"] == "t1.c2"


def test_symbol_maps_bounds_enforced():
    with pytest.raises(ValueError):
        symbol_maps([fig1_q1()], AgnosticSpace(n_tables=1))
    with pytest.raises(ValueError):
        symbol_maps([fig1_q1()], AgnosticSpace(cols_per_table=2))


def test_agnostic_encoding_invariant_under_schema_renaming():
    """§4.2's motivation: renaming tables/columns must not change NV_α."""
    q1, q2 = fig1_q1(), fig1_q2()
    e1, e2 = encode_pair_agnostic(q1, q2)
    # rename A→C (alias-level rename keeps base tables; simulate a new
    # database by renaming aliases AND base tables consistently)
    from repro.core.plan import Filter, Join, Project, Scan

    def retable(p):
        if isinstance(p, Scan):
            return Scan({"A": "C", "B": "D"}[p.table], p.alias)
        if isinstance(p, Filter):
            return Filter(p.pred, retable(p.child))
        if isinstance(p, Join):
            return Join(retable(p.left), retable(p.right), p.pred, p.jointype)
        return Project(p.cols, retable(p.child))

    r1 = rename_aliases(retable(q1), {"A": "C", "B": "D"})
    r2 = rename_aliases(retable(q2), {"A": "C", "B": "D"})
    f1, f2 = encode_pair_agnostic(r1, r2)
    assert np.array_equal(e1.X, f1.X)
    assert np.array_equal(e2.X, f2.X)


def test_converter_matches_direct_fig1():
    vocab = schema_vocab_ab()
    i1 = encode_tree(fig1_q1(), vocab)
    i2 = encode_tree(fig1_q2(), vocab)
    c1, c2 = convert_pair(i1, i2, vocab)
    d1, d2 = encode_pair_agnostic(fig1_q1(), fig1_q2())
    assert np.array_equal(c1.X, d1.X)
    assert np.array_equal(c2.X, d2.X)
    assert np.array_equal(c1.left, d1.left)


def schema_vocab_ab():
    from repro.encoding.instance import Vocab

    return Vocab(
        ("A", "B"),
        ("A.joinKey", "A.val", "A.x", "B.joinKey", "B.val", "B.y"),
    )


@pytest.mark.parametrize("schema", [TPCH_LITE, TPCDS_LITE], ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_converter_matches_direct_random_pairs(schema, seed):
    """The §4.2.1 converter must agree bit-for-bit with re-encoding."""
    vocab = schema_vocab(schema)
    plans = random_plans(schema, 12, seed=seed)
    for i in range(0, 10, 2):
        p1, p2 = plans[i], plans[i + 1]
        try:
            d1, d2 = encode_pair_agnostic(p1, p2)
        except ValueError:
            continue  # exceeds agnostic space — skip
        c1, c2 = convert_pair(encode_tree(p1, vocab), encode_tree(p2, vocab), vocab)
        assert np.array_equal(c1.X, d1.X), f"pair {i} mismatch"
        assert np.array_equal(c2.X, d2.X)


def test_nary_group_encoding_matches_direct():
    vocab = schema_vocab(TPCH_LITE)
    plans = random_plans(TPCH_LITE, 6, seed=5)
    direct = encode_group_agnostic(plans)
    conv = convert_group([encode_tree(p, vocab) for p in plans], vocab)
    for d, c in zip(direct, conv):
        assert np.array_equal(d.X, c.X)


def test_pairwise_encoding_depends_on_partner():
    """§4.2.1: the encoding of one subexpression differs by partner."""
    plans = random_plans(TPCH_LITE, 30, seed=6)
    # find partners with different table sets
    from repro.core.plan import base_tables

    p = plans[0]
    partners = [q for q in plans[1:] if base_tables(q) != base_tables(p)]
    same = [q for q in plans[1:] if base_tables(q) == base_tables(p)]
    assert partners and same
    e_diff, _ = encode_pair_agnostic(p, partners[0])
    e_same, _ = encode_pair_agnostic(p, same[0])
    assert e_diff.X.shape == e_same.X.shape  # fixed NV_α size
    assert not np.array_equal(e_diff.X, e_same.X)


def _same(c, d):
    return (
        np.array_equal(c.X, d.X)
        and np.array_equal(c.left, d.left)
        and np.array_equal(c.right, d.right)
    )


def test_converter_on_workload_vocab_matches_direct_table1():
    """Instance encodings over the workload's own vocabulary, converted,
    equal direct encoding for every SF-group (n-ary) and every SF pair —
    the encodings the VMF and EMF stages of the cascade use."""
    w = table1.workload()
    canon = [canonical_plan(p) for p in w.plans]
    encs, vocab = encode_workload(w.plans)
    n_pairs = 0
    for idxs in sf_groups(w.plans).values():
        group = convert_group([encs[i] for i in idxs], vocab)
        direct = encode_group_agnostic([canon[i] for i in idxs])
        assert all(_same(c, d) for c, d in zip(group, direct))
        for i, j in itertools.combinations(idxs, 2):
            c1, c2 = convert_pair(encs[i], encs[j], vocab)
            d1, d2 = encode_pair_agnostic(canon[i], canon[j])
            assert _same(c1, d1) and _same(c2, d2), (i, j)
            n_pairs += 1
    assert n_pairs == 6996


def test_workload_vocab_is_ordered_subset_of_schema_vocab():
    plans = random_plans(TPCDS_LITE, 20, seed=3)
    full, sub = schema_vocab(TPCDS_LITE), workload_vocab(plans)
    assert set(sub.tables) <= set(full.tables)
    assert list(sub.columns) == [c for c in full.columns if c in set(sub.columns)]
    for p in plans:  # every column the encoder touches is in the vocabulary
        encode_tree(p, sub)
