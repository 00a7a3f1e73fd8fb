"""The three workloads: their inputs, one operation each, and output checks.

Each workload is a class with
- ``setup(seed)``: import chromabound and return the operations of one
  round, built from the seed in a seeded order (``setup_s`` times this);
- ``before_round`` / ``before_op``: put chromabound's caches in the state
  a user of the workload meets them;
- ``run(item)``: one operation, the only code inside the timer;
- ``check(items, results)``: compare every output with the oracles in
  ``oracles.py``, outside the timed phase;
- ``trace(tracer)``: wrap the layer functions this workload reaches.

chromabound is imported inside ``setup`` so that the import is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import oracles

REL_BOUND = 1e-8        # recomputed radii against reported radii
REL_MODULUS = 1e-6      # exact largest root modulus against the reported one
ORDER_SLACK = 1e-9      # the ordering delta < complete <= per-graph <= degree-only


def _edges(g) -> list[tuple[int, int]]:
    return sorted(g.edges)


def _relabeled(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Outcome:
    """Problems found in one operation's output.

    ``known`` holds deviations caused by a fault the benchmark counts
    (the operation is failed, and ``correct`` stays true); ``wrong``
    holds every other deviation (the operation is failed and the run is
    not correct).
    """

    def __init__(self):
        self.known: list[str] = []
        self.wrong: list[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.known or self.wrong)


def _wrap_all(tracer, wraps) -> None:
    for module, attr, span, count in wraps:
        tracer.wrap(module, attr, span, count)


def _corpus_wraps(cb) -> list:
    """The corpus build and its canonical labeling, reached from setup."""
    return [
        (cb.corpus, "connected_graphs", "corpus.build", None),
        (cb.corpus, "canonical_form", "graphs.canonical_form", None),
        (cb.chromatic, "_canonical_masks", "graphs.canonical_form", None),
    ]


def _memo_entries(args, kwargs, result):
    return "chromatic.memo_entries", len(kwargs["cache"])


def _with_fresh_memo(tracer, module, attr):
    """Trace ``module.attr`` (a chromatic_polynomial) and hand each call a
    fresh memo dict, so that its size can be counted. Without a cache
    argument chromatic_polynomial makes the same fresh dict itself."""
    tracer.wrap(module, attr, "chromatic.polynomial", _memo_entries)
    traced = getattr(module, attr)

    def with_memo(g, *args, cache=None, **kwargs):
        return traced(g, *args, cache={} if cache is None else cache, **kwargs)

    tracer.patch(module, attr, with_memo)


def _evaluations(args, kwargs, result):
    return "optimize.evaluations", result.evaluations


def _tree_census(args, kwargs, result):
    return "polymer.spanning_trees", result.tree_count


class Workload:
    """Hooks that leave chromabound's caches as they are."""

    def before_round(self):
        pass

    def before_op(self):
        pass


# ---------------------------------------------------------------------------
# containment: verify_zero_free over every connected graph on <= 7 vertices
# ---------------------------------------------------------------------------

class Containment(Workload):
    """``verify_zero_free(g, tol=1e-10)`` over the 996 connected graphs on at
    most 7 vertices and the 7 graphs of ``named_corpus()``.

    The graphs do not depend on the seed; the seed sets their order. A
    round is one sweep, so the bound caches start empty at each round.
    """

    name = "containment"

    def setup(self, seed: int):
        import chromabound as cb

        items = [
            (f"n{n}-{i}", g)
            for n in range(1, 8)
            for i, g in enumerate(cb.corpus.connected_graphs(n))
        ]
        items += list(cb.corpus.named_corpus())
        random.Random(seed).shuffle(items)
        self.cb = cb
        return items

    def before_round(self):
        bounds = self.cb.bounds
        bounds.sokal_bound.cache_clear()
        bounds.cstar_delta.cache_clear()

    def run(self, item):
        return self.cb.bounds.verify_zero_free(item[1], tol=1e-10)

    def check(self, items, results) -> list[Outcome]:
        oracle: dict[str, dict] = {}
        memo: dict = {}  # graphs share polynomials, profiles and degrees
        out = []
        for (label, g), report in zip(items, results):
            if label not in oracle:
                oracle[label] = self._oracle(g, memo)
            out.append(self._compare(oracle[label], report))
        return out

    @staticmethod
    def _oracle(g, memo: dict) -> dict:
        def once(key, fn, *args):
            if key not in memo:
                memo[key] = fn(*args)
            return memo[key]

        edges = _edges(g)
        poly = oracles.chromatic_coefficients(g.n, edges)
        delta, t, t_tilde = oracles.neighborhood_profile(g.n, edges)
        ref_delta = max(delta, 2)
        return {
            "poly": poly,
            "modulus": once(("modulus", tuple(poly)), oracles.max_root_modulus, poly),
            "delta": delta,
            "t": t,
            "t_tilde": t_tilde,
            "per_graph": (
                once(("per-graph", t, t_tilde), oracles.per_graph_bound, t, t_tilde)
                if delta >= 2 else None
            ),
            "degree_only": once(("degree-only", ref_delta), oracles.degree_only_bound, ref_delta),
            "sokal": once(("sokal", ref_delta), oracles.sokal_radius, ref_delta),
            "complete": oracles.complete_form(ref_delta),
        }

    @staticmethod
    def _compare(o: dict, report) -> Outcome:
        res = Outcome()
        if isinstance(report, BaseException):
            res.wrong.append(f"raised {report!r}")
            return res
        wrong = res.wrong
        reference = report.c_star_graph if report.c_star_graph is not None else report.c_star_delta
        if not report.zero_free_verified:
            wrong.append("zero_free_verified is false")
        if not oracles.roots_inside(o["poly"], oracles.round_down(reference)):
            wrong.append(f"some root lies outside |q| < {reference}")
        if report.delta != o["delta"]:
            wrong.append(f"delta {report.delta} != {o['delta']}")
        if o["delta"] >= 1:
            prof = report.profile
            if prof is None or (prof.t, prof.t_tilde) != (o["t"], o["t_tilde"]):
                wrong.append("neighbourhood profile differs from the counted one")
        if (report.c_star_graph is None) != (o["per_graph"] is None):
            wrong.append("per-graph bound present for the wrong degree")
        elif o["per_graph"] is not None:
            if not _close(report.c_star_graph, o["per_graph"], REL_BOUND):
                wrong.append(f"per-graph bound {report.c_star_graph} != {o['per_graph']}")
            if not (
                o["delta"] < o["complete"] <= report.c_star_graph + ORDER_SLACK
                and report.c_star_graph <= report.c_star_delta + ORDER_SLACK
            ):
                wrong.append("bound ordering violated")
        if not _close(report.c_star_delta, o["degree_only"], REL_BOUND):
            wrong.append(f"degree-only bound {report.c_star_delta} != {o['degree_only']}")
        if not _close(report.c_sokal, o["sokal"], REL_BOUND):
            wrong.append(f"classical bound {report.c_sokal} != {o['sokal']}")

        lo, hi = o["modulus"]
        m = Fraction(report.max_root_modulus)
        if not lo * (1 - Fraction(REL_MODULUS)) <= m <= hi * (1 + Fraction(REL_MODULUS)):
            res.known.append(
                f"max_root_modulus {report.max_root_modulus!r}, exact {float(hi)!r}"
            )
        return res

    def trace(self, tracer):
        cb = self.cb
        b = cb.bounds
        _wrap_all(tracer, _corpus_wraps(cb) + [
            (cb.corpus, "named_corpus", "corpus.build", None),
            (b, "canonical_form", "graphs.canonical_form", None),
            (b, "neighborhood_profile", "graphs.neighborhood_profile", None),
            (b, "polynomial_roots", "roots.polynomial_roots", None),
            (b, "cstar_graph", "bounds.cstar_graph", None),
            (b, "minimize_scalar", None, _evaluations),
        ])
        _with_fresh_memo(tracer, b, "chromatic_polynomial")


# ---------------------------------------------------------------------------
# chromatic: deletion-contraction alone
# ---------------------------------------------------------------------------

# (vertices, degree, graphs per round) of the seeded random-regular graphs
RANDOM_REGULAR = [(12, 3, 4), (14, 3, 8), (12, 4, 4)]


class Chromatic(Workload):
    """``chromatic_polynomial(g, cache={})`` with a fresh memo per graph.

    Inputs: the 853 connected seven-vertex graphs, grid 3x4, grid 4x4 and
    Petersen, each relabeled by a seeded permutation, and seeded
    random-regular graphs (``RANDOM_REGULAR``).
    """

    name = "chromatic"

    def setup(self, seed: int):
        import chromabound as cb

        rng = random.Random(seed)
        fixed = [(f"n7-{i}", g) for i, g in enumerate(cb.corpus.connected_graphs(7))]
        fixed += [
            ("grid-3x4", cb.generate_graph("grid", rows=3, cols=4)),
            ("grid-4x4", cb.generate_graph("grid", rows=4, cols=4)),
            ("petersen", cb.generate_graph("petersen")),
        ]
        items = [(label, _relabeled(g, rng)) for label, g in fixed]
        for n, d, count in RANDOM_REGULAR:
            for _ in range(count):
                s = rng.randrange(1 << 30)
                g = cb.generate_graph("random-regular", n=n, degree=d, seed=s)
                items.append((f"rr-{n}-{d}-{s}", g))
        rng.shuffle(items)
        self.cb = cb
        return items

    def run(self, item):
        return self.cb.chromatic.chromatic_polynomial(item[1], cache={})

    def check(self, items, results) -> list[Outcome]:
        oracle: dict[str, list[int]] = {}
        out = []
        for (label, g), p in zip(items, results):
            res = Outcome()
            if isinstance(p, BaseException):
                res.wrong.append(f"raised {p!r}")
            else:
                if label not in oracle:
                    oracle[label] = oracles.chromatic_coefficients(g.n, _edges(g))
                if list(p.coefficients) != oracle[label]:
                    res.wrong.append(f"{label}: polynomial differs from the frontier oracle")
            out.append(res)
        return out

    def trace(self, tracer):
        cb = self.cb
        _wrap_all(tracer, _corpus_wraps(cb))
        _with_fresh_memo(tracer, cb.chromatic, "chromatic_polynomial")


# ---------------------------------------------------------------------------
# verify-cli: the command line, in process
# ---------------------------------------------------------------------------

def _connected_regular_seed(cb, n: int, rng: random.Random) -> int:
    """A seed whose cubic random-regular graph on n vertices is connected.

    ``verify`` exits 1 on every disconnected graph (the signed sum is
    defined for connected graphs only), so the workload leaves them out.
    """
    while True:
        seed = rng.randrange(1 << 30)
        if cb.generate_graph("random-regular", n=n, degree=3, seed=seed).is_connected():
            return seed


def _family_flags(cb, rng: random.Random) -> list[tuple[str, list[str]]]:
    rr8 = _connected_regular_seed(cb, 8, rng)
    rr12 = _connected_regular_seed(cb, 12, rng)
    return [
        ("petersen", ["--family", "petersen"]),
        ("complete-6", ["--family", "complete", "--n", "6"]),
        ("cycle-8", ["--family", "cycle", "--n", "8"]),
        ("cycle-12", ["--family", "cycle", "--n", "12"]),
        ("grid-3x3", ["--family", "grid", "--n", "3"]),
        ("star-7", ["--family", "star", "--n", "7"]),
        ("rr-8", ["--family", "random-regular", "--n", "8", "--seed", str(rr8)]),
        ("rr-12", ["--family", "random-regular", "--n", "12", "--seed", str(rr12)]),
        ("path-8", ["--family", "path", "--n", "8"]),
    ]


SERIES_ORDER = 40
SERIES_B = 1.5
DELTA_SERIES = 6
# Draws the random-regular family graphs. Their Penrose census is half of
# a round and its size varies by more than 2x between random cubic graphs
# on 12 vertices (3840 to 8901 spanning trees over seeds 1-10), so the
# graphs are the same in every run and --seed sets the command order.
FAMILY_SEED = 1


class VerifyCli(Workload):
    """``cli.main`` in process with JSON output.

    Each family graph gets ``verify``, ``bounds --order 64`` and
    ``series --order 40 --b 1.5``; a round adds ``table`` and
    ``series --delta 6 --order 40``. Every command starts from the caches
    of a fresh process, as on the command line. The seed shuffles the
    commands.
    """

    name = "verify-cli"

    def setup(self, seed: int):
        import chromabound as cb
        import chromabound.cli  # noqa: F401  (timed with the rest of the import)

        items = []
        for label, flags in _family_flags(cb, random.Random(FAMILY_SEED)):
            # the graph exactly as the command line resolves these flags
            g = cb.cli._resolve_graph(cb.cli._build_parser().parse_args(["verify", *flags]), None)
            items.append((label, g, ["verify", *flags]))
            items.append((label, g, ["bounds", *flags, "--order", "64"]))
            items.append((label, g, ["series", *flags, "--order", str(SERIES_ORDER), "--b", str(SERIES_B)]))
        items.append(("table", None, ["table"]))
        items.append((f"delta-{DELTA_SERIES}", None, ["series", "--delta", str(DELTA_SERIES), "--order", str(SERIES_ORDER)]))
        items = [(label, g, argv + ["--format", "json"]) for label, g, argv in items]
        random.Random(seed).shuffle(items)
        self.cb = cb
        return items

    def before_op(self):
        cb = self.cb
        cb.polymer._CHROM_CACHE.clear()
        for fn in (
            cb.bounds.sokal_bound,
            cb.bounds.cstar_delta,
            cb.bounds.cstar_delta_a_form,
            cb.bounds.constants,
            cb.series.t_n_delta,
            cb.chromatic._edge_bit_masks,
        ):
            fn.cache_clear()

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cb.cli.main(item[2])
        return code, out.getvalue(), err.getvalue()

    def check(self, items, results) -> list[Outcome]:
        oracle: dict[str, dict] = {}
        out = []
        for (label, g, argv), result in zip(items, results):
            res = Outcome()
            out.append(res)
            if isinstance(result, BaseException):
                res.wrong.append(f"{argv}: raised {result!r}")
                continue
            code, stdout, stderr = result
            if code != 0:
                res.wrong.append(f"{argv}: exit {code}: {stderr.strip()}")
                continue
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError as exc:
                res.wrong.append(f"{argv}: output is not JSON ({exc})")
                continue
            if g is not None and label not in oracle:
                oracle[label] = self._oracle(g)
            command = argv[0]
            if command == "table":
                problems = self._check_table(payload)
            elif command == "series" and g is None:
                problems = self._check_delta_series(payload)
            elif command == "series":
                problems = self._check_series(oracle[label], payload)
            elif command == "bounds":
                problems = self._check_bounds(oracle[label], payload)
            else:
                problems = self._check_verify(oracle[label], g, payload)
            res.wrong += [f"{' '.join(argv)}: {p}" for p in problems]
        return out

    @staticmethod
    def _oracle(g) -> dict:
        edges = _edges(g)
        delta, t, t_tilde = oracles.neighborhood_profile(g.n, edges)
        return {
            "poly": oracles.chromatic_coefficients(g.n, edges),
            "trees": oracles.spanning_trees(g.n, edges),
            "delta": delta,
            "t": t,
            "t_tilde": t_tilde,
        }

    @staticmethod
    def _check_verify(o: dict, g, payload) -> list[str]:
        problems = []
        if payload.get("ok") is not True:
            problems.append(f"ok is {payload.get('ok')!r}")
        checks = {c["name"]: c for c in payload.get("checks", [])}
        penrose = checks.get("penrose-identity")
        if penrose is None or penrose["status"] != "PASS":
            problems.append("penrose-identity did not pass")
        else:
            fields = dict(part.split("=") for part in penrose["detail"].split(", "))
            if int(fields["S"]) != o["poly"][1]:
                problems.append(f"S={fields['S']}, oracle linear coefficient {o['poly'][1]}")
            if int(fields["trees"]) != o["trees"]:
                problems.append(f"trees={fields['trees']}, Kirchhoff {o['trees']}")
        partition = checks.get("partition-identity")
        expected = "PASS" if g.n <= 8 else "SKIP"
        if partition is None or partition["status"] != expected:
            problems.append(f"partition-identity is not {expected}")
        for name in ("activity-bound", "zero-free"):
            if name not in checks or checks[name]["status"] != "PASS":
                problems.append(f"{name} did not pass")
        return problems

    @staticmethod
    def _check_bounds(o: dict, payload) -> list[str]:
        problems = []
        delta = o["delta"]
        prof = payload["profile"]
        if payload["delta"] != delta:
            problems.append(f"delta {payload['delta']} != {delta}")
        if [int(x) for x in prof["t"]] != list(o["t"]) or [
            int(x) for x in prof["t_tilde"]
        ] != list(o["t_tilde"]):
            problems.append("profile differs from the counted one")
        per_graph = oracles.per_graph_bound(o["t"], o["t_tilde"])
        expect = [
            ("c_star_graph", per_graph, REL_BOUND),
            ("c_star_delta", oracles.degree_only_bound(delta), REL_BOUND),
            ("c_sokal", oracles.sokal_radius(delta), REL_BOUND),
            # the series form inflates an empirical tail ratio; it agrees
            # with the closed form only to about 1e-4
            ("c_star_graph_series", per_graph, 1e-3),
        ]
        for key, value, rel in expect:
            if not _close(payload[key], value, rel):
                problems.append(f"{key} {payload[key]} != {value}")
        return problems

    @staticmethod
    def _check_series(o: dict, payload) -> list[str]:
        problems = []
        z = (1,) + o["t"]
        zt = (1,) + o["t_tilde"]
        coeffs = [int(c) for c in payload["coefficients"]]
        if coeffs != oracles.tree_series_lagrange(z, zt, SERIES_ORDER):
            problems.append("coefficients differ from Lagrange inversion")
        if len(zt) > 2:
            radius = oracles.series_radius(zt)
        else:
            radius = 1.0 / zt[1] if len(zt) == 2 else math.inf
        reported = payload["radius"]
        if math.isinf(radius) != (reported == "inf") or (
            math.isfinite(radius) and not _close(reported, radius, REL_BOUND)
        ):
            problems.append(f"radius {reported} != {radius}")
        x_b = oracles.saturation_point(SERIES_B, z, zt)
        if not _close(payload["threshold_x"], x_b, REL_BOUND):
            problems.append(f"threshold_x {payload['threshold_x']} != {x_b}")
        return problems

    @staticmethod
    def _check_delta_series(payload) -> list[str]:
        coeffs = [int(c) for c in payload["coefficients"]]
        if coeffs != oracles.regular_tree_counts(DELTA_SERIES, SERIES_ORDER):
            return ["coefficients differ from delta/((delta-2)n+2) C((delta-1)n, n-1)"]
        return []

    @staticmethod
    def _check_table(payload) -> list[str]:
        """Each cell is its formula rounded half-up to two decimals, and
        within 0.01 of the paper's cell."""
        cells = [
            (str(r["delta"]), r["sokal"], r["cstar_delta"], r["cstar_complete"])
            for r in payload
        ]
        if [c[0] for c in cells] != [p[0] for p in oracles.PAPER_TABLE]:
            return [f"table rows {[c[0] for c in cells]}"]
        k, k_star, k_complete = oracles.limit_constants()
        expected = [
            (oracles.sokal_radius(d), oracles.degree_only_bound(d), oracles.complete_form(d))
            for d in (2, 3, 4, 6)
        ] + [(k, k_star, k_complete)]
        problems = []
        for row, paper, values in zip(cells, oracles.PAPER_TABLE, expected):
            suffix = "*delta" if row[0] == "any" else ""
            for cell, paper_cell, value in zip(row[1:], paper[1:], values):
                rounded = Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP)
                number = Decimal(cell.removesuffix(suffix))
                paper_number = Decimal(paper_cell.removesuffix(suffix))
                if not cell.endswith(suffix) or number != rounded:
                    problems.append(f"cell {cell}, formula gives {value!r}")
                elif abs(number - paper_number) > Decimal("0.01"):
                    problems.append(f"cell {cell}, paper has {paper_cell}")
        return problems

    def trace(self, tracer):
        cb = self.cb
        cli, b, pol = cb.cli, cb.bounds, cb.polymer
        _wrap_all(tracer, [
                (cli, "_cmd_verify", "cli.verify", None),
                (cli, "_cmd_bounds", "cli.bounds", None),
                (cli, "_cmd_series", "cli.series", None),
                (cli, "penrose_report", "polymer.penrose_report", _tree_census),
                (cli, "hardcore_partition", "polymer.hardcore_partition", None),
                (cli, "verify_cn_bound", "polymer.verify_cn_bound", None),
                (cli, "cstar_graph", "bounds.cstar_graph", None),
                (cli, "cstar_graph_series", "bounds.cstar_graph_series", None),
                (cli, "neighborhood_profile", "graphs.neighborhood_profile", None),
                (cli, "solve_tree_series", "series.solve_tree_series", None),
                (cb.series, "solve_tree_series", "series.solve_tree_series", None),
                (b, "solve_tree_series", "series.solve_tree_series", None),
                (b, "neighborhood_profile", "graphs.neighborhood_profile", None),
                (b, "canonical_form", "graphs.canonical_form", None),
                (b, "polynomial_roots", "roots.polynomial_roots", None),
                (b, "minimize_scalar", None, _evaluations),
                (pol, "_chrom", "chromatic.polynomial", None),
                (cb.chromatic, "_canonical_masks", "graphs.canonical_form", None),
        ])
        _with_fresh_memo(tracer, cli, "chromatic_polynomial")
        _with_fresh_memo(tracer, b, "chromatic_polynomial")


WORKLOADS = {w.name: w for w in (Containment, Chromatic, VerifyCli)}
