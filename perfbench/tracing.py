"""In-memory span tracer for the GEqO cascade's layers.

A span is ``(name, start, end, parent, n)``: wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (-1 for a root)
and an item count (rows embedded, plans encoded, ...). Spans live in a
list while the run lasts and are written out once at its end.

:func:`instrument` wraps the public functions of each layer *where the
cascade looks them up* (for example ``repro.filters.vmf.canonical_plan``
rather than its defining module), so nested helper calls inside a layer
are not double counted. Nothing under ``src/`` is modified: the patches
are installed for the traced calls only and undone afterwards.
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np

NAME, START, END, PARENT, N = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, n: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[N] = n
        popped = self._stack.pop()
        assert popped == idx, "spans must close in LIFO order"

    def wrap(self, fn, name: str, count=None, error_counter: str | None = None):
        """``fn`` timed as span ``name``; ``count(args, result)`` gives
        the span's item count; exceptions bump ``error_counter`` and
        propagate unchanged."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.close(idx)
                if error_counter:
                    self.counters[error_counter] += 1
                raise
            self.close(idx, count(args, out) if count else 0)
            return out

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-name self time (span minus its direct children) over
    ``spans[lo:hi]``, which must hold whole trees."""
    child = [0.0] * (hi - lo)
    for k in range(lo, hi):
        p = spans[k][PARENT]
        if p >= lo:
            child[p - lo] += spans[k][END] - spans[k][START]
    out: dict[str, float] = {}
    for k in range(lo, hi):
        s = spans[k]
        out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child[k - lo]
    return out


def _rows(args, out) -> int:
    return int(args[1].shape[0])  # EMF method: args[0] is self, args[1] is X


def _pairs(args, out) -> int:
    return int(args[1][0].shape[0])  # predict_proba(self, a, b): a[0] is X


def _len_arg0(args, out) -> int:
    return len(args[0])


def _len_arg1(args, out) -> int:
    return len(args[1])


def instrument(tracer: Tracer, *, spark: bool = False):
    """Patch every timed layer entry point; returns an undo callable."""
    patches = _spark_patches(tracer) if spark else _local_patches(tracer)
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    for obj, attr, fn in patches:
        setattr(obj, attr, fn)

    def undo() -> None:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)

    return undo


def _local_patches(t: Tracer) -> list:
    import repro.core.pipeline as pipeline
    import repro.filters.emf_filter as emf_filter
    import repro.filters.vmf as vmf
    import repro.verifier.av as av
    from repro.ann.hnsw import HNSW
    from repro.nn.model import EMF
    from repro.verifier.av import Verifier

    return [
        # filters.schema_filter (called by the SF stage and again by the VMF)
        (pipeline, "sf_groups", t.wrap(pipeline.sf_groups, "sf.sf_groups")),
        (vmf, "sf_groups", t.wrap(vmf.sf_groups, "sf.sf_groups")),
        # encoding
        (vmf, "canonical_plan", t.wrap(vmf.canonical_plan, "encoding.canonical")),
        (emf_filter, "canonical_plan",
         t.wrap(emf_filter.canonical_plan, "encoding.canonical")),
        (vmf, "encode_group_agnostic",
         t.wrap(vmf.encode_group_agnostic, "encoding.group", _len_arg0)),
        (emf_filter, "encode_pair_agnostic",
         t.wrap(emf_filter.encode_pair_agnostic, "encoding.pair",
                error_counter="encoding.passthrough")),
        (vmf, "pad_encs", t.wrap(vmf.pad_encs, "encoding.pad", _len_arg0)),
        (emf_filter, "pad_encs", t.wrap(emf_filter.pad_encs, "encoding.pad", _len_arg0)),
        # filters.vmf: a group the agnostic space cannot hold passes through
        (vmf, "group_candidate_pairs",
         _counting(vmf.group_candidate_pairs, t, "vmf.passthrough_groups", ValueError)),
        # nn.model
        (EMF, "embed_eval", t.wrap(EMF.embed_eval, "nn.embed", _rows)),
        (EMF, "predict_proba", t.wrap(EMF.predict_proba, "nn.predict", _pairs)),
        # ann.hnsw
        (HNSW, "build", t.wrap(HNSW.build, "ann.build", _len_arg1)),
        (HNSW, "radius_search", t.wrap(HNSW.radius_search, "ann.search")),
        # verifier + solver.fm as bound in verifier.av
        (Verifier, "equivalent",
         t.wrap(Verifier.equivalent, "av.equivalent", error_counter="av.errors")),
        (av, "flatten", t.wrap(av.flatten, "av.flatten")),
        (av, "implies", t.wrap(av.implies, "solver.implies")),
        (av, "satisfiable", t.wrap(av.satisfiable, "solver.sat")),
    ]


def _spark_patches(t: Tracer) -> list:
    """Under ``geqo_set_spark`` the layer functions run inside Spark's
    Python workers, out of the tracer's reach (and patching them would
    pickle the tracer into the tasks). On the driver, time the waits on
    Spark jobs instead."""
    import repro.core.pipeline as pipeline
    from pyspark.sql.classic.dataframe import DataFrame

    return [
        (DataFrame, "count", t.wrap(DataFrame.count, "spark.action")),
        (DataFrame, "collect", t.wrap(DataFrame.collect, "spark.action")),
        (pipeline, "workload_to_df",
         t.wrap(pipeline.workload_to_df, "spark.workload_to_df")),
    ]


def _counting(fn, tracer: Tracer, counter: str, exc: type):
    def counted(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except exc:
            tracer.counters[counter] += 1
            raise

    counted.__wrapped__ = fn
    return counted


def percentile_tail(samples_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile): the tail is the highest of
    p99.9/p99/p95/p90/p75 with at least ten samples beyond it (p50 if
    there are too few samples for any)."""
    if not samples_ms:
        return 0.0, 0.0, 50.0
    a = np.asarray(samples_ms)
    p50 = float(np.percentile(a, 50))
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(a) * (1 - pct / 100) >= 10:
            return p50, float(np.percentile(a, pct)), pct
    return p50, p50, 50.0
