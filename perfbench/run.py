"""Benchmark of chromabound: one workload per run, on one thread.

    python3 perfbench/run.py --workload containment --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, then runs whole rounds of its
operations, timing each operation, for at most ``--seconds`` of operation
time: it stops when one more round would pass that limit, after at least
one round. Afterwards it checks every output against the oracles in
``oracles.py`` and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. Their times are
given at the reference speed of ``speed.py``: a fixed probe runs before
each round and after every PROBE_EVERY_S of operation time, and each time
is scaled by the probes around it, so that the host's drifting speed
cancels out. The wall-clock figures are printed on the lines before the
JSON.
- ``ops_per_s``: operations per second of operation time, the median
  over the rounds;
- ``op_ms_p50``: the median time of one operation: each operation of a
  round gets its median time over the rounds, and the metric is the
  median of those, so that it does not move with the number of rounds;
- ``setup_s``: import of chromabound plus building the inputs, the median
  of SETUP_SAMPLES set-ups, each but the first in a fresh interpreter;
- ``peak_rss_mb``: the peak resident set of this process at the end of
  the timed phase.

With ``--trace 1`` chromabound's layer functions are wrapped (see
``spans.py``), one set-up and the rounds are traced, and the metrics are
the per-layer ones: wall-clock self seconds per layer and work counts,
for one set-up plus one round. All spans go to ``perfbench/out/``.

chromabound is imported from ``src/`` next to this directory, so the run
needs a checkout of the repository; without one it exits with an error.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS (np.linalg.det in spanning_tree_count) must not
# start a pool. This has to happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
PROBE_EVERY_S = 0.25    # operation time between two speed probes
WARMUP_OPS = 3          # untimed operations before the first round

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> span name; the counts come from Tracer.counts
LAYER_SPANS = {
    "corpus.build_s": "corpus.build",
    "graphs.canonical_form_s": "graphs.canonical_form",
    "graphs.neighborhood_profile_s": "graphs.neighborhood_profile",
    "chromatic.polynomial_s": "chromatic.polynomial",
    "roots.polynomial_roots_s": "roots.polynomial_roots",
    "bounds.cstar_graph_s": "bounds.cstar_graph",
    "bounds.cstar_graph_series_s": "bounds.cstar_graph_series",
    "series.solve_tree_series_s": "series.solve_tree_series",
    "polymer.penrose_report_s": "polymer.penrose_report",
    "polymer.hardcore_partition_s": "polymer.hardcore_partition",
    "polymer.verify_cn_bound_s": "polymer.verify_cn_bound",
    "cli.verify_s": "cli.verify",
    "cli.bounds_s": "cli.bounds",
    "cli.series_s": "cli.series",
}
LAYER_COUNTS = ["chromatic.memo_entries", "optimize.evaluations", "polymer.spanning_trees"]


def _use_checkout_source() -> None:
    """Import chromabound from this checkout's src/ and nowhere else."""
    if not (SRC / "chromabound" / "__init__.py").is_file():
        sys.exit(f"error: no chromabound sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def _check_imported_from_checkout() -> None:
    import chromabound

    origin = Path(chromabound.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: chromabound was imported from {origin}, not {SRC}")


def _timed_setup(wl, seed: int):
    """One set-up: its inputs, and its wall-clock and reference-speed seconds."""
    speed.probe()  # the first probe of a process runs cold
    before = speed.probe()
    t0 = perf_counter()
    inputs = wl.setup(seed)
    wall = perf_counter() - t0
    return inputs, wall, wall * speed.scale(before, speed.probe())


def _setup_child(workload: str, seed: int) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    wall, scaled = proc.stdout.split()[-2:]
    return float(wall), float(scaled)


def _run_op(wl, item):
    wl.before_op()
    t0 = perf_counter()
    try:
        result = wl.run(item)
    except Exception as exc:  # a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        result = exc
    return result, perf_counter() - t0


def _run_rounds(wl, inputs, seconds: float, on_round_end=None):
    """Whole rounds, until one more would pass ``seconds`` of operation time.

    Returns the items and results, and per round the wall-clock seconds of
    each operation and the same seconds at the reference speed.
    """
    items, results, rounds, scaled_rounds = [], [], [], []
    elapsed = 0.0
    while not rounds or elapsed + sum(rounds[-1]) <= seconds:
        wl.before_round()
        times, scaled = [], []
        before = speed.probe()
        start = 0  # first operation since the last probe
        for item in inputs:
            result, t = _run_op(wl, item)
            times.append(t)
            items.append(item)
            results.append(result)
            if sum(times[start:]) >= PROBE_EVERY_S or len(times) == len(inputs):
                after = speed.probe()
                factor = speed.scale(before, after)
                scaled += [x * factor for x in times[start:]]
                before, start = after, len(times)
        rounds.append(times)
        scaled_rounds.append(scaled)
        elapsed += sum(times)
        if on_round_end is not None:
            on_round_end()
    return items, results, rounds, scaled_rounds


def _quantile_line(times_ms: list[float]) -> str:
    """The median and the highest percentile with ten samples beyond it."""
    n = len(times_ms)
    parts = [f"n={n}", f"p50={statistics.median(times_ms):.4f}ms"]
    qs = statistics.quantiles(times_ms, n=100, method="inclusive") if n >= 2 else []
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            parts.append(f"p{pct}={qs[pct - 1]:.4f}ms")
            break
    return " ".join(parts)


def _report_checks(outcomes) -> tuple[int, bool]:
    failed = sum(1 for o in outcomes if o.failed)
    wrong = [msg for o in outcomes for msg in o.wrong]
    known = sorted({msg for o in outcomes for msg in o.known})
    for msg in wrong[:20]:
        print(f"WRONG: {msg}", file=sys.stderr)
    if known:
        print(f"known fault, {failed} failed operations; first: {known[0]}", file=sys.stderr)
    return failed, not wrong


def _summary(rounds, setups) -> str:
    all_ms = [t * 1000.0 for times in rounds for t in times]
    rates = statistics.median(len(t) / sum(t) for t in rounds)
    return (
        f"{rates:.3f} ops/s; {_quantile_line(all_ms)}; "
        f"setup {', '.join(f'{s:.3f}' for s in setups)} s"
    )


def run_plain(wl, seed: int, seconds: float) -> dict:
    inputs, wall, scaled = _timed_setup(wl, seed)
    setups, scaled_setups = [wall], [scaled]
    _check_imported_from_checkout()
    for _ in range(SETUP_SAMPLES - 1):
        wall, scaled = _setup_child(wl.name, seed)
        setups.append(wall)
        scaled_setups.append(scaled)

    for item in inputs[:WARMUP_OPS]:
        _run_op(wl, item)
    items, results, rounds, scaled_rounds = _run_rounds(wl, inputs, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, correct = _report_checks(wl.check(items, results))
    print(f"{wl.name}: {len(rounds)} rounds of {len(rounds[0])} ops")
    print(f"  wall clock:      {_summary(rounds, setups)}")
    print(f"  reference speed: {_summary(scaled_rounds, scaled_setups)}")
    values = {
        "ops_per_s": statistics.median(len(t) / sum(t) for t in scaled_rounds),
        "op_ms_p50": 1000.0 * statistics.median(
            statistics.median(op) for op in zip(*scaled_rounds)
        ),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_mb,
    }
    return {
        "correct": correct,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def run_traced(wl, seed: int, seconds: float) -> dict:
    wl.setup(seed)  # imports chromabound, untraced
    _check_imported_from_checkout()
    tracer = Tracer()
    wl.trace(tracer)
    try:
        wl.cb.corpus._LEVELS.clear()  # trace the corpus build as set-up meets it
        t0 = perf_counter()
        inputs = wl.setup(seed)
        setup_wall = perf_counter() - t0
        setup_end = len(tracer.start)
        per_round_counts = []

        def snapshot():
            per_round_counts.append(dict(tracer.counts))

        items, results, rounds, _ = _run_rounds(wl, inputs, seconds, snapshot)
    finally:
        tracer.unwrap()
    failed, correct = _report_checks(wl.check(items, results))

    uncalled = tracer.uncalled()
    if uncalled:
        sys.exit(f"error: wrapped functions recorded no call: {', '.join(uncalled)}")
    deltas = []
    before: dict[str, int] = {}
    for snap in per_round_counts:
        deltas.append({k: snap.get(k, 0) - before.get(k, 0) for k in LAYER_COUNTS})
        before = snap
    if any(d != deltas[0] for d in deltas):
        sys.exit(f"error: work counts differ between rounds: {deltas}")

    n_rounds = len(rounds)
    setup_self = tracer.self_times(0, setup_end)
    round_self = tracer.self_times(setup_end)
    values = {}
    for metric, span in LAYER_SPANS.items():
        values[metric] = setup_self.get(span, 0.0) + round_self.get(span, 0.0) / n_rounds
    units = {metric: "s" for metric in LAYER_SPANS}
    for metric in LAYER_COUNTS:
        values[metric] = deltas[0][metric]
        units[metric] = "count"

    path = OUT / f"trace-{wl.name}-seed{seed}.json.gz"
    tracer.write(path)
    round_wall = sum(sum(t) for t in rounds) / n_rounds
    print(
        f"{wl.name} traced: setup {setup_wall:.3f} s, {n_rounds} rounds of {len(rounds[0])} ops, "
        f"{round_wall:.3f} s of operations per round, {len(tracer.start)} spans -> {path.relative_to(HERE.parent)}"
    )
    return {
        "correct": correct,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up; print its wall-clock and reference-speed seconds")
    args = parser.parse_args(argv)

    _use_checkout_source()
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        _, wall, scaled = _timed_setup(wl, args.seed)
        print(f"{wall!r} {scaled!r}")
        return 0
    run = run_traced if args.trace else run_plain
    result = run(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
