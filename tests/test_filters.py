"""SF / VMF / EMF filter tests, driver-side and Spark-side."""
import itertools

import numpy as np
import pytest

import repro.filters.vmf as vmf_mod
from repro.core.pipeline import geqo_set_local
from repro.core.plan import from_json
from repro.experiments import table1
from repro.encoding.agnostic import AgnosticSpace
from repro.filters.emf_filter import (
    DEFAULT_EMF_THRESHOLD,
    emf_scores,
    emf_scores_workload,
)
from repro.filters.keys import sf_key
from repro.filters.schema_filter import sf_groups, sf_pair_pass, workload_to_df
from repro.filters.vmf import (
    VMF,
    calibrate_tau,
    embed_group,
    encode_workload,
    radius_pairs,
    vmf_candidates,
)
from repro.verifier.av import Verifier
from repro.workload.labeler import make_planted_workload, make_positive_pairs
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from tests.test_plan import fig1_q1, fig1_q2


@pytest.fixture(scope="module")
def workload():
    return make_planted_workload(TPCH_LITE, n_subexpr=60, n_equiv=6, seed=3)


@pytest.fixture(scope="module")
def tau(emf_model):
    pos = make_positive_pairs(TPCH_LITE, 60, seed=9)
    return calibrate_tau(emf_model, [(p.p1, p.p2) for p in pos])


def test_sf_pair_pass_figure1():
    assert sf_pair_pass(fig1_q1(), fig1_q2())


def test_sf_groups_partition(workload):
    groups = sf_groups(workload.plans)
    assert sum(len(v) for v in groups.values()) == len(workload.plans)
    for key, idxs in groups.items():
        for i in idxs:
            assert sf_key(workload.plans[i]) == key


def test_sf_admits_all_planted(workload):
    """SF must not reject any true equivalence (planted pairs share keys)."""
    for i, j in workload.planted:
        assert sf_pair_pass(workload.plans[i], workload.plans[j])


def test_vmf_high_recall_on_planted(emf_model, tau, workload):
    vmf = VMF(emf_model, tau=tau)
    cand = vmf.candidate_pairs(workload.plans)
    found = sum(1 for p in workload.planted if p in cand)
    assert found >= len(workload.planted) - 1  # near-perfect recall
    # and it prunes: candidates well below SF-pair count
    sf_pairs = sum(
        len(v) * (len(v) - 1) // 2 for v in sf_groups(workload.plans).values()
    )
    assert len(cand) < sf_pairs


def test_vmf_pair_distance_zero_for_identical(emf_model):
    vmf = VMF(emf_model)
    assert vmf.pair_distance(fig1_q1(), fig1_q1()) < 1e-9


@pytest.fixture(scope="module")
def table1_workload(emf_model):
    """The Table 1 workload and its τ, calibrated as Table 1 does."""
    w = table1.workload()
    cal = make_positive_pairs(TPCDS_LITE, 80, seed=101)
    return w, calibrate_tau(emf_model, [(p.p1, p.p2) for p in cal])


def test_radius_pairs_blocked_matches_brute_force(monkeypatch):
    Z = np.random.default_rng(4).standard_normal((50, 3))
    expect = {
        (i, j) for i, j in itertools.combinations(range(50), 2)
        if np.linalg.norm(Z[i] - Z[j]) <= 1.0
    }
    assert expect and radius_pairs(Z, 1.0) == expect
    monkeypatch.setattr(vmf_mod, "_BLOCK_FLOATS", 7 * 50 * 3)  # 7-row blocks
    assert radius_pairs(Z, 1.0) == expect


def test_vmf_exact_matches_brute_force_on_table1(emf_model, table1_workload):
    """Exact per-group radius search = brute-force distances between
    directly encoded embeddings, on every SF-group; no planted pair lost."""
    w, tau = table1_workload
    expect = set()
    for idxs in sf_groups(w.plans).values():
        try:
            Z = embed_group(emf_model, [w.plans[i] for i in idxs])
        except ValueError:  # out of the agnostic space: all pairs pass
            Z = np.zeros((len(idxs), 1))
        for a, b in itertools.combinations(range(len(idxs)), 2):
            if np.linalg.norm(Z[a] - Z[b]) <= tau:
                expect.add((min(idxs[a], idxs[b]), max(idxs[a], idxs[b])))
    got = VMF(emf_model, tau=tau).candidate_pairs(w.plans)
    assert got == expect
    assert w.planted <= got  # planted-pair recall 1.0


def test_geqo_set_local_matches_per_pair_emf_path(emf_model, table1_workload):
    """Encode-once cascade = SF ∩ VMF, then per-pair from-scratch EMF
    scoring (``emf_scores``), then the AV."""
    w, tau = table1_workload
    res = geqo_set_local(w.plans, emf_model, tau=tau)
    sf = {
        p for idxs in sf_groups(w.plans).values()
        for p in itertools.combinations(idxs, 2)
    }
    vmf = sorted(sf & VMF(emf_model, tau=tau).candidate_pairs(w.plans))
    proba = emf_scores(emf_model, [(w.plans[i], w.plans[j]) for i, j in vmf])
    emf = {p for p, s in zip(vmf, proba) if s >= DEFAULT_EMF_THRESHOLD}
    v = Verifier()
    av = {(i, j) for i, j in emf if v.equivalent(w.plans[i], w.plans[j])}
    assert res.survivors == {
        "SF": len(sf), "VMF": len(vmf), "EMF": len(emf), "AV": len(av)
    }
    assert res.pairs == av
    assert set(res.times) == {"SF", "VMF", "EMF", "AV"}


def test_out_of_space_passthroughs_are_counted(emf_model, workload):
    """Groups and pairs the agnostic space cannot hold pass every pair
    on, and are counted."""
    none = AgnosticSpace(n_tables=0, cols_per_table=0)
    encs, vocab = encode_workload(workload.plans)
    groups = list(sf_groups(workload.plans).values())
    pairs, passthrough = vmf_candidates(emf_model, encs, vocab, groups, space=none)
    assert passthrough == sum(len(g) > 1 for g in groups) > 0
    assert pairs == {p for g in groups for p in itertools.combinations(g, 2)}
    proba, skipped = emf_scores_workload(emf_model, encs, sorted(pairs), vocab, space=none)
    assert skipped == len(pairs) and np.all(proba == 1.0)
    _, passthrough = vmf_candidates(emf_model, encs, vocab, groups)
    _, skipped = emf_scores_workload(emf_model, encs, sorted(pairs), vocab)
    assert passthrough == skipped == 0


def test_emf_scores_shape_and_range(emf_model, workload):
    pairs = [(workload.plans[i], workload.plans[j]) for i, j in list(workload.planted)[:4]]
    s = emf_scores(emf_model, pairs)
    assert s.shape == (4,)
    assert np.all((s >= 0) & (s <= 1))


def test_emf_scores_separate_planted_from_random(emf_model, workload):
    planted = [(workload.plans[i], workload.plans[j]) for i, j in workload.planted]
    g = np.random.default_rng(0)
    groups = [v for v in sf_groups(workload.plans).values() if len(v) > 1]
    rand_pairs = []
    planted_set = set(workload.planted)
    while len(rand_pairs) < 10:
        idxs = groups[int(g.integers(0, len(groups)))]
        i, j = g.choice(idxs, 2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        if (i, j) not in planted_set:
            rand_pairs.append((workload.plans[i], workload.plans[j]))
    sp = emf_scores(emf_model, planted)
    sr = emf_scores(emf_model, rand_pairs)
    assert sp.mean() > sr.mean() + 0.2


# ---------------------------------------------------------------- Spark


def test_workload_df_roundtrip(spark, workload):
    df = workload_to_df(spark, workload.plans)
    rows = df.orderBy("id").collect()
    assert len(rows) == len(workload.plans)
    assert from_json(rows[0].plan) == workload.plans[0]
