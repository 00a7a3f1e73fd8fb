import dataclasses
import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import jsonschema
import pytest

from chromabound import (
    InconclusiveError,
    Graph,
    NeighborhoodProfile,
    check_fp_condition,
    complete_graph_bound,
    connected_graphs,
    constants,
    cstar_delta,
    cstar_delta_a_form,
    cstar_graph,
    cstar_graph_series,
    generate_graph,
    graph_id,
    named_corpus,
    neighborhood_profile,
    sokal_bound,
    verify_zero_free,
)
from chromabound import bounds
from chromabound.optimize import solve_level
from chromabound.series import TruncatedSeries, solve_tree_series
from cli_schemas import BOUND_REPORT_SCHEMA


def test_degree_bound_values():
    assert sokal_bound(2).value == pytest.approx(13.23, abs=0.005)
    assert sokal_bound(3).value == pytest.approx(21.14, abs=0.005)
    assert cstar_delta(2).value == pytest.approx(10.715, abs=0.005)
    assert cstar_delta(3).value == pytest.approx(17.563, abs=0.005)
    assert complete_graph_bound(2) == pytest.approx(9.899, abs=0.001)
    assert complete_graph_bound(6) == pytest.approx(33.248, abs=0.001)


def test_degree_bound_validation():
    for fn in (sokal_bound, cstar_delta, cstar_delta_a_form):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        complete_graph_bound(1)


def test_improved_bound_two_parameterizations_agree():
    for delta in (2, 3, 4, 6, 10, 15):
        assert cstar_delta(delta).value == pytest.approx(
            cstar_delta_a_form(delta).value, rel=1e-9
        )


def test_improvement_ordering():
    for delta in range(2, 12):
        s = sokal_bound(delta).value
        c = cstar_delta(delta).value
        k = complete_graph_bound(delta)
        assert delta < k < c < s


def test_complete_graph_bound_closed_form():
    for delta in (2, 3, 7, 30):
        disc = math.sqrt(2.0 * delta * delta - delta)
        want = (delta - 1) ** 2 / (3 * delta - 1 - 2 * disc)
        assert complete_graph_bound(delta) == pytest.approx(want, rel=1e-12)


def test_constants():
    cs = constants()
    assert cs["K"] == pytest.approx(7.963906, abs=1e-5)
    assert 6.906 < cs["K_star"] < 6.908


def test_per_graph_bound_triangle_free_matches_degree_bound():
    # A binomial profile is the degree-only optimization itself.
    for g in (
        generate_graph("petersen"),
        generate_graph("cycle", n=8),
        generate_graph("grid", rows=4, cols=4),
    ):
        rep = cstar_graph(g)
        assert rep.profile == NeighborhoodProfile.binomial(g.max_degree)
        assert rep.c_star_graph == rep.c_star_delta


def test_per_graph_bound_complete_graphs():
    for k in (3, 4, 5, 6):
        rep = cstar_graph(generate_graph("complete", n=k))
        assert rep.c_star_graph == pytest.approx(
            complete_graph_bound(k - 1), rel=1e-6
        )


def test_per_graph_bound_never_exceeds_degree_bound():
    for n in range(2, 6):
        for g in connected_graphs(n):
            rep = cstar_graph(g)
            if rep.c_star_graph is not None:
                assert rep.c_star_graph <= rep.c_star_delta * (1 + 1e-9)
                assert rep.c_star_graph > g.max_degree


def test_per_graph_bound_degenerate_cases():
    with pytest.raises(ValueError):
        cstar_graph(Graph(3, []))
    rep = cstar_graph(Graph(2, [(0, 1)]))
    assert rep.c_star_graph is None
    assert rep.delta == 1
    assert rep.c_star_delta == pytest.approx(cstar_delta(2).value)


def test_opt_result_geometry():
    g = generate_graph("complete", n=4)
    prof = neighborhood_profile(g)
    opt = bounds._cstar_profile_opt(prof)
    z = prof.z_polynomial()
    assert 0 < opt.argmin
    assert z(opt.argmin) < 2.0
    assert opt.value == pytest.approx(complete_graph_bound(3), rel=1e-6)


def test_fp_parameters_satisfy_condition_above_bound():
    # At any q above the per-graph bound the optimizing (a, x) pair must
    # make the convergence inequality hold: x minimizes the per-graph
    # objective and a = -ln(2 - Z(x)) is the matching parameter.
    for g in (
        generate_graph("complete", n=3),
        generate_graph("cycle", n=5),
        generate_graph("complete", n=5),
    ):
        prof = neighborhood_profile(g)
        x = bounds._cstar_profile_opt(prof).argmin
        a = -math.log(2.0 - prof.z_polynomial()(x))
        assert a > 0 and x > 0
        q = cstar_graph(g).c_star_graph * 1.05
        # The geometric tail certificate dies off slowly this close to
        # the bound, so a deep truncation is needed.
        rep = check_fp_condition(g, q, a, 256)
        assert rep.status == "satisfied"


def test_series_form_agrees_with_optimization():
    for g in (
        generate_graph("complete", n=3),
        generate_graph("complete", n=4),
        generate_graph("cycle", n=5),
    ):
        series_value = cstar_graph_series(g, 64)
        direct = cstar_graph(g).c_star_graph
        assert series_value == pytest.approx(direct, rel=1e-10)
        with pytest.raises(ValueError):
            cstar_graph_series(g, 4)


def test_series_form_is_the_closed_form_at_every_order():
    # The series form reads only the profile, so one graph per distinct
    # profile covers every graph of the set.
    graphs = [g for n in range(2, 8) for g in connected_graphs(n) if g.max_degree >= 2]
    graphs += [g for _, g in named_corpus()]
    graphs += [generate_graph("star", leaves=40), generate_graph("complete", n=18)]
    profiles = {neighborhood_profile(g): g for g in graphs}
    for order in (8, 16, 64):
        for prof, g in profiles.items():
            direct = cstar_graph(g).c_star_graph
            assert cstar_graph_series(prof, order) == pytest.approx(direct, rel=1e-10), (
                order,
                prof,
            )


def test_series_form_takes_the_radius_past_the_reachable_level():
    # Z(u) = 1 + u, Z~(u) = 1 + 5u^2: u/Z~(u) peaks at u0 = 1/sqrt(5), so
    # the levels 2 - e^{-a} above Z(u0) ~ 1.447 saturate at the series radius.
    prof = NeighborhoodProfile(delta=3, t=(1, 0, 0), t_tilde=(0, 5))
    z_u0 = prof.z_polynomial()(1.0 / math.sqrt(5.0))
    assert 2.0 - math.exp(-1e-3) < z_u0 < 2.0 - math.exp(-3.0)
    direct = bounds._cstar_profile_opt(prof).value
    for order in (8, 16, 64):
        assert cstar_graph_series(prof, order) == pytest.approx(direct, rel=1e-10)


def test_series_form_checks_orders_past_the_float_range():
    # The Petersen profile's t_n passes the largest float at n = 519; the
    # partial sum is taken in exact rationals.
    g = generate_graph("petersen")
    assert cstar_graph_series(g, 540) == pytest.approx(cstar_graph(g).c_star_graph, rel=1e-10)


def test_series_form_raises_when_the_partial_sum_passes_the_level(monkeypatch):
    real = bounds.sup_x_threshold
    monkeypatch.setattr(bounds, "sup_x_threshold", lambda b, z, zt: 1.01 * real(b, z, zt))
    with pytest.raises(InconclusiveError, match="partial sum"):
        cstar_graph_series(generate_graph("petersen"), 64)


def test_series_form_raises_when_the_saturation_point_is_1e_11_too_high(monkeypatch):
    # The level solve lands within about 1e-14 of the saturation point, so
    # the check's slack leaves no room for an error of 1e-11.
    real = bounds.sup_x_threshold
    monkeypatch.setattr(bounds, "sup_x_threshold", lambda b, z, zt: (1 + 1e-11) * real(b, z, zt))
    with pytest.raises(InconclusiveError, match="partial sum"):
        cstar_graph_series(generate_graph("petersen"), 64)


@pytest.mark.parametrize("order", [8, 64, 540])
def test_partial_sum_check_matches_the_rational_sum(order):
    rng = random.Random(order)
    prof = neighborhood_profile(generate_graph("petersen"))
    t = solve_tree_series(prof.z_tilde_polynomial(), prof.z_polynomial(), order)[1]
    for _ in range(6):
        y = rng.uniform(0.01, 0.1)  # inside the series radius 1/4, sums near the levels
        head = t(Fraction(y)) / Fraction(y)
        near = float(head)
        for level in (near, math.nextafter(near, 0.0), math.nextafter(near, math.inf),
                      rng.uniform(1.0, 2.0)):
            assert bounds._partial_sum_at_most(t, y, level) == (head <= level)
    # a short series at a dyadic y with 10 bits sums to a float exactly,
    # so the level can sit on the sum and on either side of it
    for _ in range(6):
        t = TruncatedSeries(tuple(rng.randrange(1000) for _ in range(4)) + (0,) * (order - 4), order)
        y = rng.randrange(1, 1024) / 1024
        head = t(Fraction(y)) / Fraction(y)
        assert Fraction(float(head)) == head
        assert bounds._partial_sum_at_most(t, y, float(head))
        assert not bounds._partial_sum_at_most(t, y, math.nextafter(float(head), 0.0))
        assert bounds._partial_sum_at_most(t, y, math.nextafter(float(head), math.inf))


def test_bound_report_json():
    rep = cstar_graph(generate_graph("complete", n=4))
    data = rep.to_json()
    jsonschema.validate(data, BOUND_REPORT_SCHEMA)
    assert data["delta"] == 3
    assert data["zero_free_verified"] is False
    assert data["max_root_modulus"] is None


def test_reports_are_slotted_and_keep_eq_hash_pickle_and_replace():
    rep = verify_zero_free(generate_graph("petersen"))
    for obj in (rep, rep.profile):
        assert not hasattr(obj, "__dict__")
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
    renamed = dataclasses.replace(rep, graph_id="petersen")
    assert renamed.graph_id == "petersen" and renamed != rep
    restored = dataclasses.replace(renamed, graph_id=rep.graph_id)
    assert restored == rep and hash(restored) == hash(rep)


def test_graph_id_is_isomorphism_invariant():
    g = generate_graph("cycle", n=6)
    h = g.relabeled([5, 3, 1, 0, 2, 4])
    assert graph_id(g) == graph_id(h)
    assert graph_id(g) != graph_id(generate_graph("path", n=6))


def test_verify_zero_free_triangle():
    rep = verify_zero_free(generate_graph("complete", n=3))
    assert rep.zero_free_verified
    assert rep.max_root_modulus == pytest.approx(2.0, abs=1e-8)
    assert rep.c_star_graph == pytest.approx(complete_graph_bound(2), rel=1e-6)
    assert rep.strongest == rep.c_star_graph
    data = rep.to_json()
    jsonschema.validate(data, BOUND_REPORT_SCHEMA)
    assert data["zero_free_verified"] is True


def test_verify_zero_free_degenerate_graphs():
    rep = verify_zero_free(Graph(2, [(0, 1)]))
    assert rep.zero_free_verified
    assert rep.max_root_modulus == pytest.approx(1.0, abs=1e-10)
    assert rep.strongest == rep.c_star_delta == cstar_delta(2).value
    rep = verify_zero_free(Graph(1, []))
    assert rep.zero_free_verified
    assert rep.max_root_modulus == 0.0
    assert rep.strongest == rep.c_star_delta == cstar_delta(2).value
    assert (rep.delta, rep.profile, rep.c_star_graph) == (0, None, None)


def test_series_form_takes_the_profile_in_place_of_the_graph():
    g = generate_graph("petersen")
    assert cstar_graph_series(neighborhood_profile(g), 32) == cstar_graph_series(g, 32)


def test_minimization_that_misses_its_tolerance_is_inconclusive(monkeypatch):
    real = bounds.minimize_scalar

    def missed(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), tolerance_met=False)

    cached = (sokal_bound, cstar_delta, cstar_delta_a_form, constants)
    for fn in cached:
        fn.cache_clear()
    monkeypatch.setattr(bounds, "minimize_scalar", missed)
    g = generate_graph("cycle", n=5)
    try:
        for call in (
            lambda: sokal_bound(3),
            lambda: cstar_delta(3),
            lambda: cstar_delta_a_form(3),
            constants,
            lambda: bounds._cstar_profile_opt(neighborhood_profile(g)),
            lambda: cstar_graph_series(g, 16),
        ):
            with pytest.raises(InconclusiveError, match="missed its tolerance"):
                call()
    finally:
        for fn in cached:
            fn.cache_clear()


def test_degree_bound_caches_are_bounded():
    for fn in (sokal_bound, cstar_delta, cstar_delta_a_form):
        fn.cache_clear()
        size = fn.cache_info().maxsize
        assert size is not None
        for delta in range(2, size + 12):
            fn(delta)
        assert fn.cache_info().currsize == size
        fn.cache_clear()


def _scipy_min(f, lo, hi):
    from scipy.optimize import minimize_scalar as scipy_minimize

    res = scipy_minimize(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    assert res.success
    return res.fun


def _assert_matches_scipy(ours, f, lo, hi):
    assert ours.tolerance_met
    assert ours.evaluations <= 100
    assert ours.value == pytest.approx(_scipy_min(f, lo, hi), rel=1e-9)


@lru_cache(maxsize=None)
def _profiles_up_to(n_max):
    profiles = {
        neighborhood_profile(g)
        for n in range(2, n_max + 1)
        for g in connected_graphs(n)
        if g.max_degree >= 2
    }
    assert len(profiles) == {7: 124, 8: 400}[n_max]
    return sorted(profiles, key=repr)


def test_per_graph_minimizations_take_at_most_32_evaluations():
    for prof in _profiles_up_to(7):
        assert bounds._cstar_profile_opt(prof).evaluations <= 32


def test_degree_only_minimizations_take_at_most_44_evaluations():
    for fn in (sokal_bound, cstar_delta, cstar_delta_a_form):
        for delta in range(2, 51):
            assert fn(delta).evaluations <= 44, (fn.__name__, delta)


def test_per_graph_objective_falls_then_rises():
    # Brent's method alone finds the minimum only if there is one: on
    # every profile of the graphs on <= 8 vertices, 1024 samples of the
    # objective fall and then rise, and the minimum found is at most the
    # least of them.
    for prof in _profiles_up_to(8):
        z, zt = prof.z_polynomial(), prof.z_tilde_polynomial()
        x_max = solve_level(z, 2.0)
        xs = [x_max * (i + 0.5) / 1024 for i in range(1024)]
        samples = [zt(x) / (x * (2.0 - z(x))) for x in xs]
        k = samples.index(min(samples))
        assert all(u > v for u, v in zip(samples[:k], samples[1 : k + 1])), prof
        assert all(u < v for u, v in zip(samples[k:], samples[k + 1 :])), prof
        assert bounds._cstar_profile_opt(prof).value <= samples[k], prof


def test_per_graph_minimization_matches_scipy():
    pytest.importorskip("scipy")
    from scipy.optimize import brentq

    for prof in _profiles_up_to(7):
        t, tt = prof.t, prof.t_tilde

        def z(x, t=t):
            return 1.0 + sum(c * x ** k for k, c in enumerate(t, start=1))

        def objective(x, t=t, tt=tt):
            zt = 1.0 + sum(c * x ** k for k, c in enumerate(tt, start=1))
            return zt / (x * (2.0 - z(x)))

        x_max = brentq(lambda x: z(x) - 2.0, 0.0, 1.0, xtol=1e-15)
        _assert_matches_scipy(bounds._cstar_profile_opt(prof), objective, 0.0, x_max)


def test_degree_bounds_and_constants_match_scipy(monkeypatch):
    pytest.importorskip("scipy")
    for d in range(2, 51):

        def sokal(a, d=d):
            w = 1.0 + a * math.exp(-a)
            return math.exp(a) * w ** (1.0 - 1.0 / d) / (w ** (1.0 / d) - 1.0)

        def improved(x, d=d):
            return (1.0 + x) ** (d - 1) / (x * (2.0 - (1.0 + x) ** d))

        _assert_matches_scipy(sokal_bound(d), sokal, 0.0, 10.0)
        _assert_matches_scipy(cstar_delta(d), improved, 0.0, 2.0 ** (1.0 / d) - 1.0)

    # constants() returns bare values: record the results it minimized
    seen = []
    real = bounds.minimize_scalar

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(bounds, "minimize_scalar", recording)
    constants.cache_clear()
    try:
        got = constants()
    finally:
        constants.cache_clear()
    k_res, k_star_res = seen

    def k_objective(a):
        w = 1.0 + a * math.exp(-a)
        return math.exp(a) * w / math.log(w)

    _assert_matches_scipy(k_res, k_objective, 0.0, 10.0)
    _assert_matches_scipy(k_star_res, lambda y: y / ((2.0 - y) * math.log(y)), 1.0, 2.0)
    assert (got["K"], got["K_star"]) == (k_res.value, k_star_res.value)
