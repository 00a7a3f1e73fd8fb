"""All of P against inclusion-exclusion at 16 and 18 vertices: an opt-in
check outside tier-1, which pytest does not collect.

    python tests/check_eighteen_vertices.py

For random-regular(18, 3, seed 1) and grid 4x4, it compares
``chromatic_polynomial`` at q = 0..n with
``reference_oracles.colorings_by_inclusion_exclusion``, which sums over
all 2^n vertex subsets and shares no code with the package. n + 1 values
fix a polynomial of degree n, so the two agree as polynomials. The
oracle takes minutes at 18 vertices, which is why the check is not in
tier-1. It prints one line per graph and exits 1 if any differs.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from chromabound import chromatic_polynomial, generate_graph  # noqa: E402
from reference_oracles import colorings_by_inclusion_exclusion  # noqa: E402


def main() -> int:
    graphs = {
        "random-regular(18, 3, seed 1)": generate_graph("random-regular", n=18, degree=3, seed=1),
        "grid 4x4": generate_graph("grid", rows=4, cols=4),
    }
    ok = True
    for label, g in graphs.items():
        start = time.perf_counter()
        p = chromatic_polynomial(g)
        engine = time.perf_counter() - start
        start = time.perf_counter()
        oracle = colorings_by_inclusion_exclusion(g, range(g.n + 1))
        reference = time.perf_counter() - start
        same = [p(q) for q in range(g.n + 1)] == oracle
        ok &= same
        print(f"{label}: {'agree' if same else 'DIFFER'} at q = 0..{g.n} "
              f"(chromatic_polynomial {engine:.3f} s, inclusion-exclusion {reference:.1f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
