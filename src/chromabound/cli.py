"""Command-line interface.

Four subcommands: ``bounds`` prints the zero-free radii for a graph or
a degree, ``table`` emits the comparison table of the three bound
families, ``verify`` runs the identity checks on one graph and exits
nonzero if any fails, and ``series`` prints rooted-tree series
coefficients with the radius and optional saturation threshold.

Every subcommand builds its JSON payload, its CSV rows and, where the
text output is not one ``key: value`` line per field, its text lines;
one emitter, ``_emit``, prints the chosen format. Each ``verify`` check
returns ``(ok, detail)``, and one rule turns a library cap
(``ResourceLimitError``) into a SKIP with the cap's message and any
other library error into a FAIL. The three
checks that need the chromatic polynomial apply ``--max-vertices`` before
any other work and share ``polymer``'s memo, so ``verify`` computes it
once.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .bounds import (
    complete_graph_bound,
    constants,
    cstar_delta,
    cstar_graph,
    cstar_graph_series,
    sokal_bound,
    verify_zero_free,
)
from .chromatic import _DEFAULT_VERTEX_CAP, _vertex_cap, chromatic_polynomial
from .errors import ChromaboundError, ResourceLimitError
from .graphs import Graph, NeighborhoodProfile, generate_graph, neighborhood_profile, parse_graph
from .polymer import (
    _chrom_memo,
    check_fp_condition,
    hardcore_partition,
    penrose_report,
    verify_cn_bound,
)
from .series import series_radius, solve_tree_series, sup_x_threshold, t_n_delta

_FORMATS = ("json", "csv", "text")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ChromaboundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromabound",
        description="Zero-free disk bounds for chromatic polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="bound report for a graph, or the degree-only pair")
    _add_graph_flags(p_bounds)
    p_bounds.add_argument(
        "--order", type=int, help="add the series-form radius, checked by its order-N partial sum"
    )
    p_bounds.set_defaults(func=_cmd_bounds)

    p_table = sub.add_parser("table", help="comparison table over degrees 2, 3, 4, 6")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="identity checks for one graph; exit 0 iff all pass")
    _add_graph_flags(p_verify)
    p_verify.add_argument("--q", type=float, default=10.0, help="q of the convergence check (--a)")
    p_verify.add_argument("--a", type=float, help="run the convergence check at this a")
    p_verify.add_argument("--order", type=int, default=16, help="series order of the --a check")
    p_verify.add_argument(
        "--max-vertices", type=int, default=_DEFAULT_VERTEX_CAP, help="polynomial-computation cap"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_series = sub.add_parser("series", help="rooted-tree series coefficients and thresholds")
    _add_graph_flags(p_series)
    p_series.add_argument("--order", type=int, default=10, help="series truncation order")
    p_series.add_argument("--b", type=float, help="saturation level for the series threshold")
    p_series.set_defaults(func=_cmd_series)

    for p in (p_bounds, p_table, p_verify, p_series):
        default = "csv" if p is p_table else "json"
        p.add_argument("--format", choices=_FORMATS, default=default, help="output format")
    return parser


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="FILE", help="read the graph from FILE")
    p.add_argument(
        "--family",
        help="generate a graph: complete, cycle, path, star, grid, petersen, random-regular",
    )
    p.add_argument(
        "--n", type=int, help="vertex count; star: leaves (n+1 vertices); grid: side (n*n vertices)"
    )
    p.add_argument("--seed", type=int, help="seed for randomized families")
    p.add_argument("--delta", type=int, help="degree for degree-only modes and random-regular")


def _resolve_graph(args, parser) -> Graph | None:
    """The graph of --graph or --family, or None when neither is given;
    a flag that the source does not read is a usage error before any I/O."""
    if args.graph is None and args.family is None:
        if args.n is not None or args.seed is not None:
            parser.error("--n and --seed need --family")
        return None
    if args.graph is not None and args.family is not None:
        parser.error("give either --graph or --family, not both")
    if args.graph is not None:
        given = [f"--{k}" for k in ("n", "seed", "delta") if getattr(args, k) is not None]
        if given:
            parser.error(f"--graph takes no {', '.join(given)}")
        return parse_graph(Path(args.graph).read_text())
    degree = args.delta
    if degree is None and args.family.lower().replace("_", "-") == "random-regular":
        degree = 3
    return generate_graph(args.family, n=args.n, seed=args.seed, degree=degree)


def _graph_label(args, g: Graph) -> str:
    if args.family is not None:
        return args.family if args.n is None else f"{args.family}-{args.n}"
    return Path(args.graph).stem


def _round2(x: float) -> str:
    return str(Decimal(repr(float(x))).quantize(Decimal("0.01"), ROUND_HALF_UP))


def _emit(fmt: str, payload, rows: list[dict], lines: list[str] | None = None) -> None:
    """Print a command's output: its JSON payload, its CSV rows under a
    header of their keys, or its text lines, by default one ``key: value``
    line per payload field."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    else:
        if lines is None:
            lines = [
                f"{k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}"
                for k, v in payload.items()
            ]
        print("\n".join(lines))


def _cmd_bounds(args, parser) -> int:
    g = _resolve_graph(args, parser)
    if g is None:
        if args.delta is None:
            parser.error("bounds needs --delta or a graph source (--graph/--family)")
        if args.delta < 2:
            parser.error("--delta must be at least 2")
        if args.order is not None:
            parser.error("--order needs a graph source (--graph/--family)")
        s = sokal_bound(args.delta)
        c = cstar_delta(args.delta)
        payload = {
            "delta": args.delta,
            "c_sokal": s.value,
            "c_star_delta": c.value,
            "c_sokal_rounded": _round2(s.value),
            "c_star_delta_rounded": _round2(c.value),
        }
    else:
        report = dataclasses.replace(cstar_graph(g), graph_id=_graph_label(args, g))
        if args.order is not None:
            report = dataclasses.replace(
                report, c_star_graph_series=cstar_graph_series(report.profile, args.order)
            )
        payload = report.to_json()
    scalars = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
    _emit(args.format, payload, [scalars])
    return 0


def _cmd_table(args, parser) -> int:
    rows = [
        {
            "delta": d,
            "sokal": _round2(sokal_bound(d).value),
            "cstar_delta": _round2(cstar_delta(d).value),
            "cstar_complete": _round2(complete_graph_bound(d)),
            "exact": str(d),
        }
        for d in (2, 3, 4, 6)
    ]
    cs = constants()
    limit_ratio = 1.0 / (3.0 - 2.0 * math.sqrt(2.0))
    rows.append(
        {
            "delta": "any",
            "sokal": f"{_round2(cs['K'])}*delta",
            "cstar_delta": f"{_round2(cs['K_star'])}*delta",
            "cstar_complete": f"{_round2(limit_ratio)}*delta",
            "exact": "delta",
        }
    )
    grid = [{k: k for k in rows[0]}] + rows
    widths = {k: max(len(str(r[k])) for r in grid) for k in rows[0]}
    lines = ["  ".join(str(r[k]).ljust(widths[k]) for k in r) for r in grid]
    _emit(args.format, rows, rows, lines)
    return 0


def _penrose_check(g: Graph, args):
    _vertex_cap(g, args.max_vertices)
    rep = penrose_report(g)
    sign = -1 if (g.n - 1) % 2 else 1
    return rep.s_value == sign * rep.penrose_count, (
        f"S={rep.s_value}, trees={rep.tree_count}, penrose={rep.penrose_count}"
    )


def _partition_check(g: Graph, args):
    _vertex_cap(g, args.max_vertices)
    xi = hardcore_partition(g)
    p = chromatic_polynomial(g, cache=_chrom_memo(g), max_vertices=args.max_vertices)
    diff = (xi - p).coefficients
    if diff:
        k = next(k for k, c in enumerate(diff) if c)
        return False, f"q^{g.n} Xi(q) and P(q) first differ at q^{k}"
    return True, f"q^{g.n} Xi(q) = P(q) at every power of q up to q^{p.degree}"


def _activity_check(g: Graph, args):
    top = min(5, g.n)
    rep = verify_cn_bound(g, top)
    bad = [n for n, c, t in zip(range(2, top + 1), rep.lhs_scaled, rep.rhs_scaled) if c > t]
    return not bad, f"sizes 2..{top}" + (f", exceeded at {bad}" if bad else "")


def _fp_check(g: Graph, args):
    fp = check_fp_condition(g, args.q, args.a, args.order)
    return fp.status == "satisfied", (
        f"status={fp.status}, head={fp.head:.6g}, threshold={fp.threshold:.6g}"
    )


def _zero_free_check(g: Graph, args):
    rep = verify_zero_free(g, cache=_chrom_memo(g), max_vertices=args.max_vertices)
    return rep.zero_free_verified, (
        f"max root modulus {rep.max_root_modulus:.6g} vs bound {rep.strongest:.6g}"
    )


def _cmd_verify(args, parser) -> int:
    if args.max_vertices < 1:  # a cap below 1 would SKIP every check that needs P
        parser.error("--max-vertices must be at least 1")
    g = _resolve_graph(args, parser)
    if g is None:
        parser.error("verify needs a graph source (--graph/--family)")
    if not 0 < args.q < math.inf:
        raise ValueError("q must be positive and finite")
    checks: list[dict] = []

    def record(name: str, status: str, detail: str) -> None:
        checks.append({"name": name, "status": status, "detail": detail})

    def run(name: str, check) -> None:
        """Record a check's (ok, detail); a library cap is a SKIP with its
        message, and any other library error is a FAIL with its message."""
        try:
            ok, detail = check(g, args)
        except ResourceLimitError as exc:
            record(name, "SKIP", str(exc))
        except ChromaboundError as exc:
            record(name, "FAIL", str(exc))
        else:
            record(name, "PASS" if ok else "FAIL", detail)

    if g.n == 0:
        record("penrose-identity", "SKIP", "the signed sum needs at least one vertex")
    elif not g.is_connected():
        record("penrose-identity", "SKIP", "the signed sum is defined for connected graphs only")
    else:
        run("penrose-identity", _penrose_check)
    run("partition-identity", _partition_check)
    if g.m == 0:
        record("activity-bound", "SKIP", "no monomers in an edgeless graph")
    else:
        run("activity-bound", _activity_check)
    if args.a is not None:
        run("fp-condition", _fp_check)
    run("zero-free", _zero_free_check)

    ok = all(c["status"] != "FAIL" for c in checks)
    payload = {"graph_id": _graph_label(args, g), "ok": ok, "checks": checks}
    lines = [f"{c['name']}: {c['status']} ({c['detail']})" for c in checks]
    lines.append(f"result: {'ok' if ok else 'failed'}")
    _emit(args.format, payload, checks, lines)
    return 0 if ok else 1


def _cmd_series(args, parser) -> int:
    if args.order < 1:
        parser.error("--order must be at least 1")
    g = _resolve_graph(args, parser)
    if g is not None:
        prof = neighborhood_profile(g)
        z, zt = prof.z_polynomial(), prof.z_tilde_polynomial()
        _, series = solve_tree_series(zt, z, args.order)
        source = _graph_label(args, g)
    else:
        if args.delta is None:
            parser.error("series needs --delta or a graph source (--graph/--family)")
        if args.delta < 1:
            parser.error("--delta must be at least 1")
        series = t_n_delta(args.delta, args.order)
        prof = NeighborhoodProfile.binomial(args.delta)
        z, zt = prof.z_polynomial(), prof.z_tilde_polynomial()
        source = f"delta-{args.delta}"
    radius, u0 = series_radius(zt)
    coefficients = [str(c) for c in series.coefficients]
    payload = {
        "source": source,
        "order": args.order,
        "coefficients": coefficients,
        "radius": radius if math.isfinite(radius) else "inf",
        "radius_argmax": u0 if math.isfinite(u0) else "inf",
        "b": args.b,
        "threshold_x": sup_x_threshold(args.b, z, zt) if args.b is not None else None,
    }
    rows = [{"n": i, "coefficient": c} for i, c in enumerate(coefficients, 1)]
    _emit(args.format, payload, rows)
    return 0
