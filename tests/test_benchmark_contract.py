"""The benchmark's contract with the package.

``perfbench/`` drives chromabound through names it imports, wraps and
clears: ``before_op`` empties caches by name, ``Containment.run`` passes
``tol=``, and a traced run exits with an error when a wrapped function
records no call. Each test sets up one workload, wraps what its
``trace`` wraps, runs operations that reach every wrapped name, and
asserts that every wrapped name was called and that every output passes
the workload's own oracle check. The benchmark's files are imported from
their directory, and nothing is written there.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        import spans
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads, spans


# The operations each workload runs: every one of verify-cli's, and the
# named (not enumerated or random) graphs of the other two.
SELECT = {
    "containment": lambda label: not label.startswith("n"),
    "chromatic": lambda label: label.startswith(("grid", "petersen")),
    "verify-cli": lambda label: True,
}


@pytest.mark.parametrize("name", sorted(SELECT))
def test_workload_reaches_every_name_it_wraps(bench, name):
    workloads, spans = bench
    wl = workloads.WORKLOADS[name]()
    wl.setup(1)
    tracer = spans.Tracer()
    wl.trace(tracer)
    try:
        wl.cb.corpus._LEVELS.clear()  # the corpus build runs traced, as in a traced run
        items = [item for item in wl.setup(1) if SELECT[name](item[0])]
        wl.before_round()
        results = []
        for item in items:
            wl.before_op()
            results.append(wl.run(item))
    finally:
        tracer.unwrap()
    assert items
    assert tracer.uncalled() == []
    failed = [(item[0], o.known + o.wrong) for item, o in zip(items, wl.check(items, results))
              if o.failed]
    assert failed == []
