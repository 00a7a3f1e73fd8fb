import argparse
import csv
import io
import json
import re
from pathlib import Path

import jsonschema
import pytest

from chromabound import Graph, bounds, chromatic, cli, generate_graph, polymer
from chromabound.cli import _build_parser, main
from chromabound.errors import InconclusiveError
from cli_schemas import (
    BOUND_REPORT_SCHEMA,
    SERIES_OUTPUT_SCHEMA,
    TABLE_ROW_SCHEMA,
    VERIFY_OUTPUT_SCHEMA,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def parse_json(out: str):
    """A command's JSON output, parsed strictly: ``json.loads`` alone
    accepts NaN, Infinity and -Infinity."""
    return json.loads(out, parse_constant=_not_json)


def test_table_default_csv(capsys):
    code, out, err = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,sokal,cstar_delta,cstar_complete,exact"
    assert len(lines) == 6
    assert lines[1].startswith("2,13.23,")
    assert lines[-1].split(",")[0] == "any"


def test_table_json_validates(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    rows = parse_json(out)
    assert len(rows) == 5
    for row in rows:
        jsonschema.validate(row, TABLE_ROW_SCHEMA)
    assert rows[1] == {
        "delta": 3,
        "sokal": "21.14",
        "cstar_delta": "17.56",
        "cstar_complete": "15.75",
        "exact": "3",
    }


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--format", "text")
    assert code == 0
    assert "delta" in out and "44.98" in out


def test_bounds_degree_only(capsys):
    code, out, _ = run(capsys, "bounds", "--delta", "4")
    assert code == 0
    payload = parse_json(out)
    assert payload["delta"] == 4
    assert payload["c_sokal_rounded"] == "29.08"
    assert payload["c_star_delta_rounded"] == "24.44"


def test_bounds_family(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "petersen")
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, BOUND_REPORT_SCHEMA)
    assert payload["graph_id"] == "petersen"
    assert payload["delta"] == 3
    assert payload["c_star_graph"] == pytest.approx(17.5628, abs=1e-3)


def test_bounds_with_series_column(capsys):
    code, out, _ = run(
        capsys, "bounds", "--family", "complete", "--n", "3", "--order", "48"
    )
    assert code == 0
    payload = parse_json(out)
    assert payload["c_star_graph_series"] == pytest.approx(
        payload["c_star_graph"], rel=1e-10
    )


def test_bounds_from_file(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "bounds", "--graph", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "graph_id"
    assert lines[1].split(",")[0] == "triangle"


def test_bounds_from_dimacs_file(capsys, tmp_path):
    path = tmp_path / "square.col"
    path.write_text("c four cycle\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    code, out, _ = run(capsys, "bounds", "--graph", str(path))
    assert code == 0
    assert parse_json(out)["delta"] == 2


def test_bounds_requires_source_or_delta(capsys):
    with pytest.raises(SystemExit):
        main(["bounds"])
    capsys.readouterr()


def test_missing_file_is_reported(capsys):
    code, out, err = run(capsys, "bounds", "--graph", "/nonexistent/g.txt")
    assert code == 1
    assert "error:" in err


def test_unknown_family_is_reported(capsys):
    code, _, err = run(capsys, "verify", "--family", "klein-bottle")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv", [["bounds", "--delta", "1030"], ["series", "--delta", "1100", "--order", "5"]]
)
def test_a_degree_past_the_float_range_is_an_error(capsys, argv):
    # from delta = 1030 on some C(delta, k) passes 1.8e308
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "past the float range" in err


def test_the_largest_degree_in_the_float_range_has_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--delta", "1029")
    assert code == 0
    assert parse_json(out)["c_star_delta_rounded"] == "7104.71"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["bounds", "--family", "petersen", "--n", "40"], 1, "'petersen' does not take n"),
        (["bounds", "--family", "petersen", "--delta", "7"], 1, "'petersen' does not take degree"),
        (["verify", "--family", "cycle", "--n", "8", "--seed", "3"], 1, "'cycle' does not take seed"),
        (["series", "--family", "path", "--n", "4", "--delta", "3"], 1, "does not take degree"),
        (["bounds", "--graph", "FILE", "--n", "3"], 2, "--graph takes no --n"),
        (["verify", "--graph", "FILE", "--seed", "1", "--delta", "3"], 2, "takes no --seed, --delta"),
        (["bounds", "--delta", "4", "--n", "5"], 2, "--n and --seed need --family"),
        (["series", "--delta", "3", "--seed", "1"], 2, "--n and --seed need --family"),
        (["bounds", "--delta", "4", "--order", "64"], 2, "--order needs a graph source"),
    ],
    ids=[
        "petersen-n", "petersen-delta", "cycle-seed", "path-delta", "graph-n",
        "graph-seed-delta", "degree-only-n", "degree-only-seed", "degree-only-order",
    ],
)
def test_a_flag_the_source_does_not_read_is_an_error(capsys, tmp_path, argv, code, message):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    try:
        got = main([str(path) if a == "FILE" else a for a in argv])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert message in capsys.readouterr().err


def test_verify_petersen(capsys):
    code, out, _ = run(capsys, "verify", "--family", "petersen")
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, VERIFY_OUTPUT_SCHEMA)
    assert payload["ok"] is True
    by_name = {c["name"]: c["status"] for c in payload["checks"]}
    assert by_name["penrose-identity"] == "PASS"
    assert by_name["partition-identity"] == "SKIP"
    assert by_name["activity-bound"] == "PASS"
    assert by_name["zero-free"] == "PASS"


def test_verify_small_graph_all_checks_run(capsys):
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "5")
    assert code == 0
    payload = parse_json(out)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert set(statuses.values()) == {"PASS"}


def test_verify_disconnected_graph_skips_penrose(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run(capsys, "verify", "--graph", str(path))
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, VERIFY_OUTPUT_SCHEMA)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses.pop("penrose-identity") == "SKIP"
    assert set(statuses.values()) == {"PASS"}


def test_verify_complete_10_passes_penrose_identity(capsys):
    code, out, _ = run(capsys, "verify", "--family", "complete", "--n", "10")
    assert code == 0
    checks = {c["name"]: c for c in parse_json(out)["checks"]}
    assert checks["penrose-identity"] == {
        "name": "penrose-identity",
        "status": "PASS",
        "detail": "S=-362880, trees=100000000, penrose=362880",
    }
    assert checks["partition-identity"]["status"] == "SKIP"


def _verify_penrose_at_cap(capsys, monkeypatch, cap):
    monkeypatch.setattr(polymer, "_DP_STATE_CAP", cap)
    code, out, _ = run(
        capsys, "verify", "--family", "random-regular", "--n", "12", "--delta", "4", "--seed", "2"
    )
    assert code == 0
    return {c["name"]: c for c in parse_json(out)["checks"]}["penrose-identity"]


def test_verify_passes_the_penrose_identity_at_the_layering_dps_own_state_count(
    capsys, monkeypatch
):
    # The layering DP visits 13569 states on this graph.
    assert _verify_penrose_at_cap(capsys, monkeypatch, 13569) == {
        "name": "penrose-identity",
        "status": "PASS",
        "detail": "S=-32176, trees=366832, penrose=32176",
    }


def test_verify_names_the_cap_of_a_penrose_count_it_could_not_finish(capsys, monkeypatch):
    assert _verify_penrose_at_cap(capsys, monkeypatch, 13568) == {
        "name": "penrose-identity",
        "status": "SKIP",
        "detail": "the Penrose layering DP visited more than 13568 states, its cap",
    }


@pytest.mark.parametrize(
    "flags, n, cap",
    [(["--family", "grid", "--n", "4"], 16, 5), (["--family", "cycle", "--n", "12"], 12, 10)],
)
def test_verify_vertex_cap_skips_every_check_that_needs_p(capsys, flags, n, cap):
    code, out, _ = run(capsys, "verify", *flags, "--max-vertices", str(cap))
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, VERIFY_OUTPUT_SCHEMA)
    assert payload["ok"] is True
    checks = {c["name"]: c for c in payload["checks"]}
    detail = f"graph has {n} vertices, exceeding the cap of {cap}"
    for name in ("penrose-identity", "partition-identity", "zero-free"):
        assert checks[name] == {"name": name, "status": "SKIP", "detail": detail}
    assert checks["activity-bound"]["status"] == "PASS"


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    # A root or bound computation that errors out must surface as a
    # failed check, not a crash and not a skip.
    def fail(*args, **kwargs):
        raise InconclusiveError("bracket too wide")

    monkeypatch.setattr(cli, "verify_zero_free", fail)
    code, out, _ = run(capsys, "verify", "--family", "petersen")
    assert code == 1
    payload = parse_json(out)
    assert payload["ok"] is False
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["zero-free"] == {
        "name": "zero-free", "status": "FAIL", "detail": "bracket too wide"
    }


def test_verify_on_the_empty_graph_skips_penrose(capsys, tmp_path):
    # The 0-vertex graph is connected, but its signed sum is undefined.
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    code, out, _ = run(capsys, "verify", "--graph", str(path))
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, VERIFY_OUTPUT_SCHEMA)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["penrose-identity"] == {
        "name": "penrose-identity",
        "status": "SKIP",
        "detail": "the signed sum needs at least one vertex",
    }
    assert checks["partition-identity"]["status"] == "PASS"
    assert checks["activity-bound"]["status"] == "SKIP"
    assert checks["zero-free"]["status"] == "PASS"


def test_verify_polynomial_cap_skips_the_partition_check(capsys, monkeypatch):
    # the cap comes first: no DP runs for a check that then SKIPs
    def never(g):
        raise AssertionError("a DP ran past --max-vertices")

    monkeypatch.setattr(cli, "hardcore_partition", never)
    monkeypatch.setattr(cli, "penrose_report", never)
    code, out, _ = run(
        capsys, "verify", "--family", "cycle", "--n", "8", "--max-vertices", "5"
    )
    assert code == 0
    checks = {c["name"]: c for c in parse_json(out)["checks"]}
    cap = "graph has 8 vertices, exceeding the cap of 5"
    for name in ("penrose-identity", "partition-identity", "zero-free"):
        assert checks[name] == {"name": name, "status": "SKIP", "detail": cap}


def test_verify_partition_identity_compares_every_coefficient(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "8")
    assert code == 0
    checks = {c["name"]: c for c in parse_json(out)["checks"]}
    assert checks["partition-identity"] == {
        "name": "partition-identity",
        "status": "PASS",
        "detail": "q^8 Xi(q) = P(q) at every power of q up to q^8",
    }
    # S of the edge {0, 1} off by one changes q^8 Xi(q) by q U(V - {0, 1}),
    # q times the coloring polynomial of a 6-vertex path: from q^2 up.
    real = polymer._s_table

    def flipped(masks, max_size):
        table = real(masks, max_size)
        table[0b11] += 1
        return table

    monkeypatch.setattr(polymer, "_s_table", flipped)
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "8")
    assert code == 1
    payload = parse_json(out)
    assert payload["ok"] is False
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["partition-identity"] == {
        "name": "partition-identity",
        "status": "FAIL",
        "detail": "q^8 Xi(q) and P(q) first differ at q^2",
    }
    assert all(c["status"] == "PASS" for name, c in checks.items() if name != "partition-identity")


def test_bounds_order_computes_the_profile_once(capsys, monkeypatch):
    calls = []
    real = bounds.neighborhood_profile

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(bounds, "neighborhood_profile", counted)
    code, out, _ = run(capsys, "bounds", "--family", "petersen", "--order", "64")
    assert code == 0
    assert parse_json(out)["c_star_graph_series"] is not None
    assert len(calls) == 1


def test_verify_checks_every_activity_size_in_one_call(capsys, monkeypatch):
    calls = []
    real = cli.verify_cn_bound

    def counted(g, top):
        calls.append(top)
        return real(g, top)

    monkeypatch.setattr(cli, "verify_cn_bound", counted)
    code, out, _ = run(capsys, "verify", "--family", "petersen")
    assert code == 0
    activity = {c["name"]: c for c in parse_json(out)["checks"]}["activity-bound"]
    assert activity == {"name": "activity-bound", "status": "PASS", "detail": "sizes 2..5"}
    assert calls == [5]


def test_verify_activity_check_names_the_exceeded_sizes(capsys, monkeypatch):
    real = polymer._norms_scaled

    def inflated(g, top):
        # sizes 3 and 5 pushed past any tree coefficient
        return tuple(c + 10**6 * (n in (3, 5)) for n, c in enumerate(real(g, top), 2))

    monkeypatch.setattr(polymer, "_norms_scaled", inflated)
    code, out, _ = run(capsys, "verify", "--family", "petersen")
    assert code == 1
    activity = {c["name"]: c for c in parse_json(out)["checks"]}["activity-bound"]
    assert activity == {
        "name": "activity-bound",
        "status": "FAIL",
        "detail": "sizes 2..5, exceeded at [3, 5]",
    }


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "petersen"],
        ["--family", "random-regular", "--n", "8", "--seed", "1"],  # has a partition check
    ],
)
def test_verify_runs_deletion_contraction_once(capsys, monkeypatch, flags):
    g = cli._resolve_graph(_build_parser().parse_args(["verify", *flags]), None)
    calls = []
    real = chromatic._pick_edge

    def counted(masks):
        calls.append(masks)
        return real(masks)

    monkeypatch.setattr(chromatic, "_pick_edge", counted)
    chromatic.chromatic_polynomial(g, cache={})
    once = len(calls)
    calls.clear()
    polymer._CHROM_CACHE.clear()
    code, out, _ = run(capsys, "verify", *flags)
    polymer._CHROM_CACHE.clear()
    assert code == 0
    statuses = {c["name"]: c["status"] for c in parse_json(out)["checks"]}
    assert statuses["penrose-identity"] == statuses["zero-free"] == "PASS"
    assert statuses["partition-identity"] == ("PASS" if g.n <= 8 else "SKIP")
    assert once > 0
    assert len(calls) == once


# The nine graphs of the verify-cli benchmark workload
BENCHMARK_FAMILIES = [
    ["--family", "petersen"],
    ["--family", "complete", "--n", "6"],
    ["--family", "cycle", "--n", "8"],
    ["--family", "cycle", "--n", "12"],
    ["--family", "grid", "--n", "3"],
    ["--family", "star", "--n", "7"],
    ["--family", "random-regular", "--n", "8", "--seed", "288545018"],
    ["--family", "random-regular", "--n", "12", "--seed", "135520872"],
    ["--family", "path", "--n", "8"],
]


def test_verify_output_does_not_depend_on_the_shared_memo(capsys):
    def outputs(fresh: bool) -> list:
        polymer._CHROM_CACHE.clear()
        results = []
        for flags in BENCHMARK_FAMILIES:
            for fmt in ("json", "text"):
                if fresh:
                    polymer._CHROM_CACHE.clear()
                results.append(run(capsys, "verify", *flags, "--format", fmt))
        return results

    fresh, shared = outputs(True), outputs(False)
    polymer._CHROM_CACHE.clear()
    assert shared == fresh
    assert all(code == 0 for code, _, _ in fresh)


def test_every_user_of_the_shared_memo_empties_another_graphs_entries(capsys, tmp_path):
    # K2,3 and a disjoint edge: K2,3 has no simplicial vertex, so its
    # polynomial goes through the memo, and the Penrose check SKIPs.
    g = Graph(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 6)])
    path = tmp_path / "g.txt"
    path.write_text(f"7 {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    stale = {("stale", k): None for k in range(4)}
    other = generate_graph("cycle", n=5)
    args = argparse.Namespace(max_vertices=18)
    uses = {
        "penrose": lambda: polymer.penrose_report(generate_graph("petersen")),
        "partition": lambda: cli._partition_check(g, args),
        "zero-free": lambda: cli._zero_free_check(g, args),
        "verify": lambda: run(capsys, "verify", "--graph", str(path)),
    }
    for name, use in uses.items():
        polymer._chrom_memo(other).clear()  # the memo last served another graph
        polymer._CHROM_CACHE.update(stale)
        result = use()
        assert polymer._CHROM_CACHE, name
        assert not stale.keys() & polymer._CHROM_CACHE.keys(), name
    polymer._CHROM_CACHE.clear()
    code, out, _ = result
    assert code == 0
    statuses = {c["name"]: c["status"] for c in parse_json(out)["checks"]}
    assert statuses.pop("penrose-identity") == "SKIP"
    assert set(statuses.values()) == {"PASS"}


def test_verify_text_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "complete", "--n", "4", "--format", "text"
    )
    assert code == 0
    assert "result: ok" in out


def test_verify_with_fp_check(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "complete", "--n", "3",
        "--q", "11.0", "--a", "0.597", "--order", "64",
    )
    assert code == 0
    payload = parse_json(out)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["fp-condition"] == "PASS"


def test_verify_fp_check_past_order_16_is_decided(capsys):
    # only the signed-sum table's cap limits the order: cycle-18 at order
    # 17 visits 528 splits, and its head alone exceeds e^a - 1
    code, out, _ = run(
        capsys, "verify", "--family", "cycle", "--n", "18", "--a", "0.5", "--order", "17"
    )
    assert code == 1
    payload = parse_json(out)
    jsonschema.validate(payload, VERIFY_OUTPUT_SCHEMA)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["fp-condition"] == {
        "name": "fp-condition",
        "status": "FAIL",
        "detail": "status=violated, head=0.715245, threshold=0.648721",
    }
    assert checks["activity-bound"]["status"] == "PASS"


def test_verify_stops_the_signed_sums_of_a_star_at_the_cap(capsys):
    # A star of 12 leaves holds 4108 connected sets up to order 16, far
    # under the cap, but its build visits more than 500000 splits.
    code, out, _ = run(capsys, "verify", "--family", "star", "--n", "12", "--a", "0.5")
    assert code == 0
    checks = {c["name"]: c for c in parse_json(out)["checks"]}
    assert checks["fp-condition"] == {
        "name": "fp-condition",
        "status": "SKIP",
        "detail": "the signed-sum DP visited more than 500000 states, its cap",
    }


def test_verify_signed_sum_table_cap_is_a_skip(capsys, monkeypatch):
    # K5's table to size 5 visits 49 splits, past a cap of 10, so both
    # checks built on the table stop.
    monkeypatch.setattr(polymer, "_DP_STATE_CAP", 10)
    code, out, _ = run(capsys, "verify", "--family", "complete", "--n", "5")
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, VERIFY_OUTPUT_SCHEMA)
    assert payload["ok"] is True
    checks = {c["name"]: c for c in payload["checks"]}
    cap = "the signed-sum DP visited more than 10 states, its cap"
    assert checks["activity-bound"] == {"name": "activity-bound", "status": "SKIP", "detail": cap}
    assert checks["partition-identity"] == {
        "name": "partition-identity",
        "status": "SKIP",
        "detail": cap,
    }
    # The Penrose layering DP shares the cap; only zero-free still runs.
    assert checks["penrose-identity"]["status"] == "SKIP"
    assert checks["zero-free"]["status"] == "PASS"


@pytest.mark.parametrize("order", ["0", "1"])
def test_verify_fp_check_rejects_order_below_two(capsys, order):
    # An explicit --order 0 is an order, not a request for the default.
    code, _, err = run(
        capsys,
        "verify", "--family", "complete", "--n", "3",
        "--q", "11.0", "--a", "0.597", "--order", order,
    )
    assert code == 1
    assert "truncation order must be at least 2" in err


def test_verify_fp_check_sums_an_overflowing_head_in_logarithms(capsys):
    # e^{2a} overflows a float at a = 400; the head's terms are summed in
    # logarithms and reach inf, past the finite threshold e^a - 1.
    code, out, _ = run(
        capsys, "verify", "--family", "cycle", "--n", "5", "--a", "400", "--format", "json"
    )
    assert code == 1
    fp = {c["name"]: c for c in parse_json(out)["checks"]}["fp-condition"]
    assert fp["status"] == "FAIL"
    assert fp["detail"].startswith("status=violated, head=inf, threshold=5.22147e+173")


@pytest.mark.parametrize("family", [["cycle", "--n", "5"], ["petersen"]])
def test_verify_activity_check_does_not_read_q(capsys, family):
    # q cancels from the activity bound: the same record at every q, even
    # where q^{n-1} underflows to 0 (q = 1e-200)
    records = []
    for q in ("1e-200", "0.001", "11", "1e200"):
        code, out, _ = run(capsys, "verify", "--family", *family, "--q", q)
        assert code == 0
        records.append({c["name"]: c for c in parse_json(out)["checks"]}["activity-bound"])
    assert records[0] == {"name": "activity-bound", "status": "PASS", "detail": "sizes 2..5"}
    assert all(r == records[0] for r in records)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--a", "800"], "error: a must lie in (0, 709.783)"),
        (["verify", "--a", "inf"], "error: a must lie in (0, 709.783)"),
        (["verify", "--q", "inf"], "error: q must be positive and finite"),
        (["verify", "--q", "0"], "error: q must be positive and finite"),
        (["verify", "--q", "-2", "--a", "0.5"], "error: q must be positive and finite"),
        (["series", "--b", "inf"], "error: level b must be finite and exceed 1"),
    ],
    ids=["a-800", "a-inf", "q-inf", "q-zero", "q-negative-with-a", "b-inf"],
)
def test_extreme_numbers_are_errors_not_tracebacks(capsys, argv, message):
    code, _, err = run(capsys, *argv, "--family", "cycle", "--n", "5")
    assert code == 1
    assert err.startswith(message)


def test_strict_parse_rejects_non_finite_constants():
    with pytest.raises(ValueError, match="Infinity is not JSON"):
        parse_json('{"head": Infinity}')


def test_series_threshold_near_the_top_of_the_float_range(capsys):
    # z = (1 + u)^3 reaches 1e308 only at u ~ 4.6e102, where its cube is
    # near the top of the float range
    code, out, err = run(capsys, "series", "--family", "petersen", "--b", "1e308")
    assert (code, err) == (0, "")
    u = 1e308 ** (1 / 3)
    assert parse_json(out)["threshold_x"] == pytest.approx(u / (1 + u) ** 2, rel=1e-9)


def test_series_degree_mode(capsys):
    code, out, _ = run(capsys, "series", "--delta", "3", "--order", "6")
    assert code == 0
    payload = parse_json(out)
    jsonschema.validate(payload, SERIES_OUTPUT_SCHEMA)
    assert payload["coefficients"] == ["1", "3", "9", "28", "90", "297"]
    # Growth is governed by the child series, whose profile is the
    # square binomial: radius 1/4.
    assert payload["radius"] == pytest.approx(0.25)


def test_series_with_threshold(capsys):
    code, out, _ = run(
        capsys, "series", "--delta", "2", "--order", "5", "--b", "2.0"
    )
    assert code == 0
    payload = parse_json(out)
    assert payload["threshold_x"] == pytest.approx(1.0 - 2.0**-0.5, abs=1e-9)


def test_series_graph_mode_csv(capsys):
    code, out, _ = run(
        capsys,
        "series", "--family", "complete", "--n", "3",
        "--order", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert [l.split(",")[1] for l in lines[1:]] == ["1", "2", "2", "2"]


def test_series_needs_a_source(capsys):
    with pytest.raises(SystemExit):
        main(["series"])
    capsys.readouterr()


def test_random_family_is_deterministic(capsys):
    args = ["bounds", "--family", "random-regular", "--n", "10",
            "--delta", "3", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


_GRAPH_FLAGS = {"--graph", "--family", "--n", "--seed", "--delta"}


def _subparsers():
    action = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def test_each_subcommand_takes_only_the_flags_it_reads():
    expected = {
        "bounds": _GRAPH_FLAGS | {"--order", "--format"},
        "table": {"--format"},
        "verify": _GRAPH_FLAGS
        | {"--q", "--a", "--order", "--max-vertices", "--format"},
        "series": _GRAPH_FLAGS | {"--order", "--b", "--format"},
    }
    for name, sub in _subparsers().items():
        flags = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == expected[name], name


def _readme_flag_table() -> dict[str, dict[str, str | None]]:
    """README's "subcommand | flags (default)" rows: each subcommand's
    flags, with the default the row lists (None where it lists none)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("| subcommand | flags (default) |\n|---|---|\n")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", block, flags=re.M)
    table = {}
    for name, cell in rows:
        flags = dict.fromkeys(_GRAPH_FLAGS) if cell.startswith("graph flags") else {}
        flags |= dict(re.findall(r"`(--[a-z-]+)`(?: \(([^)]*)\))?", cell))
        table[name] = {flag: default or None for flag, default in flags.items()}
    return table


def test_readme_flag_table_matches_the_parser():
    table = _readme_flag_table()
    subs = _subparsers()
    assert set(table) == set(subs)
    for name, sub in subs.items():
        actions = {o: a for a in sub._actions for o in a.option_strings}
        assert set(table[name]) == set(actions) - {"-h", "--help"}, name
        for flag, listed in table[name].items():
            if listed is None:
                continue
            default = actions[flag].default
            if listed.startswith("none"):
                assert default is None, (name, flag)
            else:
                assert str(default) == listed, (name, flag)


def test_subcommand_defaults():
    subs = _subparsers()
    verify = vars(subs["verify"].parse_args([]))
    assert (verify["q"], verify["order"], verify["max_vertices"]) == (10.0, 16, 18)
    assert verify["a"] is None
    assert subs["series"].parse_args([]).order == 10
    assert subs["bounds"].parse_args([]).order is None


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--tol", "1e-3"],
        ["bounds", "--family", "petersen", "--q", "3"],
        ["series", "--delta", "3", "--a", "0.5"],
        ["verify", "--family", "petersen", "--b", "2"],
        ["verify", "--family", "petersen", "--tol", "1e-8"],
    ],
)
def test_flag_the_subcommand_does_not_take_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_rejects_a_vertex_cap_below_one(capsys, cap):
    # Such a cap would SKIP both polynomial checks and still print result: ok.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "cycle", "--n", "5", "--max-vertices", cap])
    assert exc.value.code == 2
    assert "--max-vertices must be at least 1" in capsys.readouterr().err


# Every format carries the fields and values of the JSON output, in order.
_FORMAT_CASES = [
    ["bounds", "--delta", "4"],
    ["bounds", "--family", "petersen", "--order", "64"],
    ["bounds", "--family", "star", "--n", "5"],
    ["table"],
    ["verify", "--family", "cycle", "--n", "5", "--a", "0.5"],
    ["verify", "--family", "cycle", "--n", "5", "--a", "400"],
    ["series", "--delta", "3", "--order", "6", "--b", "2.0"],
    ["series", "--family", "complete", "--n", "3", "--order", "4"],
]


def _json_and_other(capsys, argv, fmt):
    code, out, _ = run(capsys, *argv, "--format", "json")
    other_code, other, err = run(capsys, *argv, "--format", fmt)
    assert (other_code, err) == (code, "")
    return parse_json(out), other


def _csv_rows_of(command: str, payload) -> list[dict]:
    if command == "table":
        return payload
    if command == "verify":
        return payload["checks"]
    if command == "series":
        return [{"n": i, "coefficient": c} for i, c in enumerate(payload["coefficients"], 1)]
    return [{k: v for k, v in payload.items() if not isinstance(v, (dict, list))}]


@pytest.mark.parametrize("argv", _FORMAT_CASES, ids=" ".join)
def test_csv_output_carries_the_json_fields(capsys, argv):
    payload, out = _json_and_other(capsys, argv, "csv")
    rows = list(csv.reader(io.StringIO(out)))
    expected = _csv_rows_of(argv[0], payload)
    assert rows[0] == list(expected[0])
    assert rows[1:] == [["" if v is None else str(v) for v in row.values()] for row in expected]


@pytest.mark.parametrize("argv", _FORMAT_CASES, ids=" ".join)
def test_text_output_carries_the_json_fields(capsys, argv):
    payload, out = _json_and_other(capsys, argv, "text")
    lines = out.splitlines()
    if argv[0] == "table":
        assert len({len(line) for line in lines}) == 1  # an aligned grid
        grid = [line.split() for line in lines]
        assert grid[0] == list(payload[0])
        assert grid[1:] == [[str(v) for v in row.values()] for row in payload]
    elif argv[0] == "verify":
        assert lines == [
            f"{c['name']}: {c['status']} ({c['detail']})" for c in payload["checks"]
        ] + [f"result: {'ok' if payload['ok'] else 'failed'}"]
    else:
        fields = [line.split(": ", 1) for line in lines]
        assert [k for k, _ in fields] == list(payload)
        for k, v in fields:
            if isinstance(payload[k], (dict, list)):
                assert parse_json(v) == payload[k]
            else:
                assert v == str(payload[k])
