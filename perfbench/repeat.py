"""Repeat each workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workload chromatic --first-seed 11

Runs ``run.py --trace 0`` once per seed, one run at a time, with the run
length of BENCHMARK.json. For every workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, next to the metric's bound. It also
prints the share of failed operations, which must be the same in every
run. The raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list[dict], end_to_end: list[dict]) -> list[str]:
    lines = [f"== {workload}: {len(results)} runs"]
    for spec in end_to_end:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        lines.append(
            f"  {spec['name']:<12} {spec['unit']:>4}  median {med:12.6g}  q1 {q1:12.6g}  "
            f"q3 {q3:12.6g}  spread {spread:6.2%}  bound {spec['bound']:.0%}"
            f"  ({spread / spec['bound']:.2f} of bound)"
        )
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    same = len({f / a for f, a in shares}) == 1
    correct = all(r["correct"] for r in results)
    lines.append(
        f"  failed/attempted {', '.join(f'{f}/{a}' for f, a in shares)}"
        f" ({'one share' if same else 'SHARES DIFFER'}); correct in every run: {correct}"
    )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat only this workload (may be given more than once)")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, spec["run_seconds"]))
        report[workload] = results
        print("\n".join(summarise(workload, results, spec["end_to_end"])), flush=True)

    out = HERE / "out" / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": spec["run_seconds"], "first_seed": args.first_seed,
                               "results": report}, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
