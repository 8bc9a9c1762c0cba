"""Tests for the automated verifier (AV) — the SPES substitute.

The headline case is Figure 1 from the paper: two syntactically
different subexpressions that the AV must prove equivalent. Soundness
is cross-validated against the randomized DuckDB model checker.
"""
import numpy as np
import pytest

from repro.core.plan import (
    Col,
    Comparison,
    Const,
    Filter,
    Join,
    Project,
    Scan,
)
from repro.verifier.av import Verifier, verify
from repro.verifier.canonical import flatten
from repro.verifier.model_check import counterexample
from tests.test_plan import fig1_q1, fig1_q2


def test_flatten_shape():
    f = flatten(fig1_q1())
    assert f.aliases == (("A", "A"), ("B", "B"))
    assert len(f.constraints) == 3
    assert f.projection == ("A.x", "B.y")


def test_flatten_dedups_constraints():
    base = Join(
        Scan("A", "A"), Scan("B", "B"),
        Comparison(Col("A", "k"), "=", Col("B", "k")),
    )
    p = Project(
        (Col("A", "k"),),
        Filter(Comparison(Col("A", "v"), ">", Const(1.0)),
               Filter(Comparison(Col("A", "v"), ">", Const(1.0)), base)),
    )
    assert len(flatten(p).constraints) == 2


def test_figure1_equivalent():
    assert verify(fig1_q1(), fig1_q2())


def test_figure1_model_check_agrees():
    assert counterexample(fig1_q1(), fig1_q2(), trials=6) is None


def test_self_equivalence():
    assert verify(fig1_q1(), fig1_q1())


def test_different_constant_not_equivalent():
    q1 = fig1_q1()
    q2 = Project(
        q1.cols,
        Filter(Comparison(Col("B", "val"), ">", Const(11.0)), q1.child.child),
    )
    assert not verify(q1, q2)
    assert counterexample(q1, q2, trials=10, rows=60) is not None


def test_different_projection_not_equivalent():
    q1 = fig1_q1()
    q2 = Project((Col("A", "x"), Col("A", "val")), q1.child)
    assert not verify(q1, q2)


def test_projection_arity_mismatch():
    q1 = fig1_q1()
    q2 = Project((Col("A", "x"),), q1.child)
    assert not verify(q1, q2)


def test_different_tables_not_equivalent():
    q1 = fig1_q1()
    q2 = Project(
        (Col("A", "x"), Col("C", "y")),
        Join(Scan("A", "A"), Scan("C", "C"),
             Comparison(Col("A", "joinKey"), "=", Col("C", "joinKey"))),
    )
    assert not verify(q1, q2)


def test_alias_renaming_is_equivalent():
    from repro.core.plan import rename_aliases

    q1 = fig1_q1()
    q2 = rename_aliases(fig1_q2(), {"A": "x1", "B": "x2"})
    assert verify(q1, q2)


def test_projection_equal_modulo_join_equality():
    """Projecting A.k vs B.k is equivalent when A.k = B.k is a join pred."""
    def mk(side):
        join = Join(Scan("A", "A"), Scan("B", "B"),
                    Comparison(Col("A", "k"), "=", Col("B", "k")))
        return Project((Col(side, "k"),), join)

    assert verify(mk("A"), mk("B"))
    assert counterexample(mk("A"), mk("B")) is None


def test_projection_order_matters():
    join = Join(Scan("A", "A"), Scan("B", "B"),
                Comparison(Col("A", "k"), "=", Col("B", "k")))
    q1 = Project((Col("A", "u"), Col("B", "w")), join)
    q2 = Project((Col("B", "w"), Col("A", "u")), join)
    assert not verify(q1, q2)


def test_vacuously_empty_plans_equivalent():
    def empty(op_pair):
        lo, hi = op_pair
        s = Scan("A", "A")
        f = Filter(Comparison(Col("A", "v"), lo, Const(5.0)),
                   Filter(Comparison(Col("A", "v"), hi, Const(5.0)), s))
        return Project((Col("A", "v"),), f)

    # v > 5 and v < 5 vs v > 5 and v < 5 written differently: both empty
    q1 = empty((">", "<"))
    s = Scan("A", "A")
    q2 = Project(
        (Col("A", "v"),),
        Filter(Comparison(Col("A", "v"), ">", Const(9.0)),
               Filter(Comparison(Col("A", "v"), "<", Const(9.0)), s)),
    )
    assert verify(q1, q2)
    assert counterexample(q1, q2) is None


def test_self_join_bijection_search():
    """Two A-A self-joins that differ only in alias roles."""
    def mk(flip):
        l, r = Scan("A", "a1"), Scan("A", "a2")
        pred = Comparison(Col("a1", "k"), "=", Col("a2", "ref"))
        f = Filter(Comparison(Col("a1", "v"), ">", Const(3.0)), Join(l, r, pred))
        q = Project((Col("a1", "k"),), f)
        if flip:
            q = Project(
                (Col("a2", "k"),),
                Filter(Comparison(Col("a2", "v"), ">", Const(3.0)),
                       Join(Scan("A", "a1"), Scan("A", "a2"),
                            Comparison(Col("a2", "k"), "=", Col("a1", "ref")))),
            )
        return q

    assert verify(mk(False), mk(True))


def test_verifier_counts_work():
    v = Verifier()
    v.equivalent(fig1_q1(), fig1_q2())
    assert v.pairs_checked == 1
    assert v.solver_calls > 0


def test_non_inner_join_rejected_conservatively():
    q1 = Project(
        (Col("A", "k"),),
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "k"), "=", Col("B", "k")), "left"),
    )
    assert not verify(q1, q1_inner := Project(
        (Col("A", "k"),),
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "k"), "=", Col("B", "k"))),
    ))


def _self_join(n_aliases: int, filters=()) -> Project:
    """``n_aliases`` scans of one table, chained by key equalities."""
    plan = Scan("T", "t0")
    for i in range(1, n_aliases):
        plan = Join(
            plan, Scan("T", f"t{i}"),
            Comparison(Col(f"t{i - 1}", "k"), "=", Col(f"t{i}", "k")),
        )
    for pred in filters:
        plan = Filter(pred, plan)
    return Project((Col("t0", "k"),), plan)


def test_bijection_budget_is_unknown_not_error():
    """8 aliases of one table: 8! = 40320 alias maps exceed the budget."""
    v = Verifier()
    p = _self_join(8, [Comparison(Col("t0", "v"), ">", Const(1.0))])
    q = _self_join(8, [Comparison(Col("t7", "v"), ">", Const(1.0))])
    assert not v.equivalent(p, q)
    assert v.unknown == 1 and v.pairs_checked == 1


def test_disequality_budget_is_unknown_not_error():
    """More disequalities than the FM solver splits on."""
    diseqs = [Comparison(Col("t0", "v"), "!=", Const(float(c))) for c in range(13)]
    v = Verifier()
    assert not v.equivalent(_self_join(1, diseqs), _self_join(1, diseqs[::-1]))
    assert v.unknown == 1
