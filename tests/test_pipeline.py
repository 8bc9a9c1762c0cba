"""End-to-end GEqO cascade tests (Equation 1/2 semantics)."""
import pytest

import repro.verifier.av as av_mod
from repro.core.pipeline import STAGES, geqo_set_local, geqo_set_spark
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import calibrate_tau
from repro.verifier.av import Verifier
from repro.workload.labeler import make_planted_workload, make_positive_pairs
from repro.workload.schema import TPCDS_LITE


@pytest.fixture(scope="module")
def workload():
    return make_planted_workload(TPCDS_LITE, n_subexpr=50, n_equiv=6, seed=17)


@pytest.fixture(scope="module")
def tau(emf_model):
    pos = make_positive_pairs(TPCDS_LITE, 60, seed=18)
    return calibrate_tau(emf_model, [(p.p1, p.p2) for p in pos])


def test_local_pipeline_finds_planted(emf_model, tau, workload):
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    found = workload.planted & res.pairs
    # near-perfect recall (paper: GEqO TPR ≈ 0.88–0.93)
    assert len(found) >= len(workload.planted) - 1
    # perfect precision by construction: every reported pair is AV-verified
    v = Verifier()
    for i, j in res.pairs:
        assert v.equivalent(workload.plans[i], workload.plans[j])


def test_pipeline_prunes_monotonically(emf_model, tau, workload):
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    assert res.survivors["SF"] <= res.n_total_pairs
    assert res.survivors["VMF"] <= res.survivors["SF"]
    assert res.survivors["EMF"] <= res.survivors["VMF"]
    assert res.survivors["AV"] <= res.survivors["EMF"]
    # the filters must prune hard: AV workload ≪ total pairs
    assert res.av_pairs_checked < res.n_total_pairs * 0.25


def test_ablation_subsets_run(emf_model, tau, workload):
    """Every nonempty filter subset is executable and sound (Fig 14)."""
    subsets = [("SF",), ("VMF",), ("EMF",), ("SF", "EMF"), ("SF", "VMF"),
               ("VMF", "EMF"), ("SF", "VMF", "EMF")]
    full = geqo_set_local(workload.plans, emf_model, tau=tau).pairs
    for fs in subsets:
        res = geqo_set_local(workload.plans, emf_model, filters=fs, tau=tau)
        v = Verifier()
        for i, j in res.pairs:
            assert v.equivalent(workload.plans[i], workload.plans[j])


def _counts(res) -> dict:
    """``res.to_dict()`` without the timings."""
    d = res.to_dict()
    for stage in d["stages"].values():
        del stage["seconds"]
    return d


def test_to_dict_chains_stages(emf_model, tau, workload):
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    d = res.to_dict()
    assert list(d["stages"]) == list(STAGES)
    pairs_in = res.n_total_pairs
    for st in STAGES:
        assert d["stages"][st]["pairs_in"] == pairs_in
        assert d["stages"][st]["pairs_out"] == res.survivors[st]
        assert d["stages"][st]["seconds"] == res.times[st]
        pairs_in = res.survivors[st]
    assert d["av"] == {
        "checked": res.survivors["EMF"],
        "confirmed": res.survivors["AV"],
        "unknown": 0,
    }
    # ablations report only the stages that ran
    d = geqo_set_local(workload.plans, emf_model, filters=("EMF",)).to_dict()
    assert list(d["stages"]) == ["EMF", "AV"]
    assert d["stages"]["EMF"]["pairs_in"] == res.n_total_pairs


def test_av_flattens_each_plan_once(monkeypatch, emf_model, tau, workload):
    calls = []

    def counting(plan):
        calls.append(id(plan))
        return flatten(plan)

    flatten = av_mod.flatten
    monkeypatch.setattr(av_mod, "flatten", counting)
    res = geqo_set_local(workload.plans, emf_model, filters=("SF",), tau=tau)
    in_pairs = sum(len(g) for g in sf_groups(workload.plans).values() if len(g) > 1)
    assert len(calls) == len(set(calls)) == in_pairs < 2 * res.av_pairs_checked


def test_spark_pipeline_matches_local(spark, emf_model, tau, workload):
    """Equal pairs, survivors and counts in both submission orders."""
    for plans in (workload.plans, workload.plans[::-1]):
        local = geqo_set_local(plans, emf_model, tau=tau)
        dist = geqo_set_spark(spark, plans, emf_model, tau=tau)
        assert dist.pairs == local.pairs
        assert list(dist.survivors) == list(STAGES)
        assert dist.survivors == local.survivors
        assert _counts(dist) == _counts(local)


def test_spark_pipeline_empty_and_singleton_groups(spark, emf_model):
    res = geqo_set_spark(spark, [], emf_model)
    assert res.pairs == set() and res.n_total_pairs == 0
    assert res.survivors == dict.fromkeys(STAGES, 0)
    w = make_planted_workload(TPCDS_LITE, n_subexpr=40, n_equiv=4, seed=2)
    plans = [w.plans[idxs[0]] for idxs in sf_groups(w.plans).values()]
    assert len(plans) > 1
    res = geqo_set_spark(spark, plans, emf_model)
    assert res.pairs == set()
    assert res.survivors == dict.fromkeys(STAGES, 0)


def test_spark_pipeline_is_one_job(spark, emf_model, tau, workload):
    """Fewer Spark jobs per call than the four actions (SF, VMF and EMF
    counts, AV collect) of a stage-by-stage executor."""
    sc = spark.sparkContext
    group = "test-geqo-set-spark-jobs"
    sc.setJobGroup(group, group)
    try:
        geqo_set_spark(spark, workload.plans, emf_model, tau=tau)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert 1 <= len(sc.statusTracker().getJobIdsForGroup(group)) < 4


def test_pipeline_empty_and_tiny_workloads(emf_model):
    res = geqo_set_local([], emf_model)
    assert res.pairs == set() and res.n_total_pairs == 0
    w = make_planted_workload(TPCDS_LITE, n_subexpr=2, n_equiv=1, seed=1)
    res = geqo_set_local(w.plans, emf_model, tau=5.0)
    assert w.planted <= res.pairs
