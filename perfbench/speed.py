"""The host's speed, measured next to the timed operations.

The benchmark's host is a small VM on a shared machine. Its speed for
single-threaded Python moves by up to 1.7x in phases from a second to a
few minutes, as other tenants come and go, and the two vCPUs drift apart.
A wall-clock time therefore says as much about the host as about
chromabound. ``probe()`` times a fixed pure-Python computation that shares
no code with chromabound (a hash-and-sort loop and two of the benchmark's
own oracles); ``run.py`` runs it between the operations and divides each
operation's time by the probes around it. Over 150 s in one process, the
wall-clock time of a fixed block of ``chromatic_polynomial`` or
``verify_zero_free`` calls moved by 1.6-1.7x, and its ratio to the probe
by 4% (10 s windows).

A time ``t`` measured where the probe takes ``p`` seconds is reported as
``t * REF_PROBE_S / p``: the time the operation would take on a host where
the probe takes ``REF_PROBE_S``, about its median on a 2-vCPU Xeon VM at
2.0 GHz, so that the reported times are close to that host's wall-clock
times. A change that makes chromabound x% faster moves the
reported times by x%, as it moves the wall-clock times.
"""

from __future__ import annotations

from time import perf_counter

import oracles

REF_PROBE_S = 0.015

# Petersen graph and K6: fixed inputs of the two oracle calls
_PETERSEN = sorted(
    (min(u, v), max(u, v))
    for i in range(5)
    for u, v in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))
)
_K6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]


def _hash_and_sort() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        k = (i * 2654435761) & 0xFFFF
        counts[k] = counts.get(k, 0) + 1
        acc += bin(k).count("1")
    return acc + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


def _reference_work() -> None:
    _hash_and_sort()
    for _ in range(2):
        oracles.chromatic_coefficients(10, _PETERSEN)
        oracles.neighborhood_profile(6, _K6)


def probe() -> float:
    """Seconds that the fixed reference computation takes now."""
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two probes into
    seconds at the reference speed."""
    return 2.0 * REF_PROBE_S / (before + after)
