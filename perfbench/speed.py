"""Speed probe: how fast the benchmark's core runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts
by up to 1.7x, from second to second and over minutes, with the load of
its other tenants. The process's CPU time swings with it and the host
reports almost no steal time, so neither can take it out. A call's wall
time therefore mixes the program's work
with the host's load. ``probe`` times fixed work that nothing under
``src/`` touches: a pure-Python loop and a small dense
``tanh(x @ A)`` chain in numpy, about the interpreter and BLAS mix of a
GEqO_SET call. ``run.py`` probes right before each timed call and each
set-up, and reports every time scaled to a probe of ``NOMINAL_S``:

    reported = measured * NOMINAL_S / probe

A change to the program moves ``measured`` and not ``probe``, so it
shows in full; a slow patch of the host moves both, though not exactly
alike (see ``README.md``).
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.2  # the reference speed: about the probe's time on an idle 4-vCPU VM

_A = np.random.default_rng(0).standard_normal((64, 64))


def _python_loop() -> int:
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return s


def _numpy_chain() -> np.ndarray:
    x = _A
    for _ in range(2000):
        x = np.tanh(x @ _A * 0.01)
    return x


def probe() -> float:
    """Seconds the fixed reference work takes now (about 0.2 s)."""
    t0 = time.perf_counter()
    _python_loop()
    _numpy_chain()
    return time.perf_counter() - t0


def probe_for(seconds: float, pieces: int = 1) -> float:
    """Mean time of one probe, over at least ``pieces`` probes and at
    least ``seconds`` of probing: fast swings of the host's speed
    average out over the pieces."""
    times = [probe() for _ in range(pieces)]
    while sum(times) < seconds:
        times.append(probe())
    return sum(times) / len(times)


def scaled(measured_s: float, probe_s: float) -> float:
    """``measured_s`` at the reference speed."""
    return measured_s * NOMINAL_S / probe_s
