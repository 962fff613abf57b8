"""Wall enumeration, chambers, and irreducibility certificates."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    Chamber,
    ChamberReport,
    GeometryContext,
    HitchinPairType,
    Wall,
    WallWitness,
    brute_force_walls,
    chamber_report,
    compare_at,
    enumerate_walls,
    irreducibility_certificate,
    mw_check,
    toledo,
    toledo_bounds,
    upq_parameter_vector,
    upq_quiver_type,
    wall_alpha,
)
from upqstab import walls as walls_module
from upqstab.core import QuiverNumericalType
from upqstab.oracle import SplitMix64

T110 = HitchinPairType(1, 1, 1, 0)


def test_wall_alpha_hand_solved_cases():
    # 1 + alpha = 1/2 + alpha/2  and  0 = 1/2 + alpha/2
    assert wall_alpha(T110, WallWitness(1, 0, 1)) == -1
    assert wall_alpha(T110, WallWitness(0, 1, 0)) == -1


def test_wall_alpha_none_when_rank_ratios_match():
    t = HitchinPairType(2, 2, 1, 0)
    for d_sub in range(-5, 6):
        assert wall_alpha(t, WallWitness(1, 1, d_sub)) is None


def test_wall_alpha_rejects_bad_ranks():
    with pytest.raises(ValueError, match="out of range"):
        wall_alpha(T110, WallWitness(2, 0, 0))
    with pytest.raises(ValueError, match="out of range"):
        wall_alpha(T110, WallWitness(1, 1, 0))  # full rank is not proper
    with pytest.raises(ValueError, match="out of range"):
        wall_alpha(T110, WallWitness(0, 0, 0))


def test_witness_is_its_integer_triple():
    w = WallWitness(1, 0, 3)
    assert w == (1, 0, 3) and hash(w) == hash((1, 0, 3))
    p_sub, q_sub, d_sub = w
    assert (p_sub, q_sub, d_sub) == (w.p_sub, w.q_sub, w.d_sub) == (1, 0, 3)
    unsorted = [WallWitness(1, 0, 3), (0, 2, 5), WallWitness(0, 2, -1), WallWitness(1, 0, -4)]
    assert sorted(unsorted) == [(0, 2, -1), (0, 2, 5), (1, 0, -4), (1, 0, 3)]
    assert w.to_json() == list(w) == [1, 0, 3]
    assert w.sort_key() == (1, 0, 3)


def test_walls_and_chambers_are_plain_records():
    wall = Wall(Fraction(-1), (WallWitness(0, 1, 0), WallWitness(1, 0, 1)))
    assert wall == (Fraction(-1), ((0, 1, 0), (1, 0, 1))) and hash(wall) == hash(tuple(wall))
    alpha, witnesses = wall
    assert (alpha, witnesses) == (wall.alpha, wall.witnesses)
    chamber = Chamber(Fraction(-2), Fraction(-1), True, False)
    assert chamber == (Fraction(-2), Fraction(-1), True, False)
    lo, hi, lo_closed, hi_closed = chamber
    assert (lo, hi, lo_closed, hi_closed) == (chamber.lo, chamber.hi, chamber.lo_closed, chamber.hi_closed)
    report = chamber_report(T110, (-2, 2))
    assert isinstance(report, ChamberReport)
    interval, walls, chambers = report
    assert report == ((Fraction(-2), Fraction(2)), walls, chambers)
    assert walls == tuple(enumerate_walls(T110, (-2, 2)))
    assert walls[0] == wall and chambers[0] == chamber


def test_bounds_verdicts_and_certificates_are_plain_records():
    box = BoundInterval.closed(-2, 2, "ii")
    assert box == (Fraction(-2), Fraction(2), "ii") and hash(box) == hash(tuple(box))
    lower, upper, label = box
    assert (lower, upper, label) == (box.lower, box.upper, box.regime_label)
    assert BoundInterval.infeasible() == (None, None, None)
    verdict = mw_check(HitchinPairType(1, 1, 3, 0), 2, 0)
    assert verdict == (False, "upper", Fraction(1), Fraction(3), box)
    passed, side, margin, tau, interval = verdict
    assert (passed, side, margin, tau, interval) == (
        verdict.passed, verdict.side, verdict.margin, verdict.tau, verdict.interval
    )
    cert = irreducibility_certificate(HitchinPairType(1, 1, -1, 0), 2, 0)
    window = (Fraction(0), Fraction(1), None)
    assert cert == (Fraction(-1), True, (True, window), (False, (None, None, None)), True, True)
    tau, tau_bound_ok, condition1, condition2, closure, fully = cert
    assert (tau, tau_bound_ok, closure, fully) == (
        cert.tau, cert.tau_bound_ok, cert.closure_irreducible, cert.fully_irreducible
    )
    holds, alpha_window = condition1
    assert (holds, alpha_window) == (cert.condition1.holds, cert.condition1.alpha_window) == (True, window)


def test_canonical_wall_enumeration():
    walls = enumerate_walls(T110, (-2, 2))
    assert [w.alpha for w in walls] == [-1, 1]
    assert walls[0].witnesses == (WallWitness(0, 1, 0), WallWitness(1, 0, 1))
    assert walls[1].witnesses == (WallWitness(0, 1, 1), WallWitness(1, 0, 0))


def test_single_wall_at_zero():
    walls = enumerate_walls(HitchinPairType(1, 1, 0, 0), (Fraction(-1, 2), Fraction(1, 2)))
    assert [w.alpha for w in walls] == [0]
    assert walls[0].witnesses == (WallWitness(0, 1, 0), WallWitness(1, 0, 0))


def test_degenerate_interval_off_wall_is_empty():
    assert enumerate_walls(T110, (Fraction(1, 3), Fraction(1, 3))) == []


def test_degenerate_interval_on_wall_keeps_it():
    walls = enumerate_walls(T110, (-1, -1))
    assert [w.alpha for w in walls] == [-1]


def test_interval_endpoints_are_closed():
    walls = enumerate_walls(T110, (-1, 1))
    assert [w.alpha for w in walls] == [-1, 1]


def test_reversed_interval_is_an_error():
    with pytest.raises(ValueError, match="empty interval"):
        enumerate_walls(T110, (2, -2))


def test_walls_match_brute_force_on_mixed_types():
    rng = SplitMix64(101)
    for _ in range(25):
        t = HitchinPairType(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        lo = Fraction(rng.randint(-8, 0), 2)
        hi = lo + Fraction(rng.randint(0, 8), 2)
        assert enumerate_walls(t, (lo, hi)) == brute_force_walls(t, (lo, hi), 200)


def test_every_witness_is_exact_at_its_wall():
    rng = SplitMix64(103)
    for _ in range(20):
        t = HitchinPairType(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        for wall in enumerate_walls(t, (-3, 3)):
            whole = upq_quiver_type(t)
            for w in wall.witnesses:
                sub = QuiverNumericalType((w.p_sub, w.q_sub), (w.d_sub, 0))
                assert compare_at(sub, whole, upq_parameter_vector(wall.alpha)) == 0


def test_strict_crossing_on_either_side_of_a_wall():
    epsilon = Fraction(1, 1000)
    rng = SplitMix64(107)
    for _ in range(15):
        t = HitchinPairType(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        whole = upq_quiver_type(t)
        for wall in enumerate_walls(t, (-3, 3)):
            for w in wall.witnesses:
                sub = QuiverNumericalType((w.p_sub, w.q_sub), (w.d_sub, 0))
                before = compare_at(sub, whole, upq_parameter_vector(wall.alpha - epsilon))
                after = compare_at(sub, whole, upq_parameter_vector(wall.alpha + epsilon))
                assert before != 0 and after != 0 and before == -after


def test_complementary_witness_solves_the_same_wall():
    rng = SplitMix64(109)
    for _ in range(20):
        t = HitchinPairType(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        for wall in enumerate_walls(t, (-3, 3)):
            for w in wall.witnesses:
                complement = WallWitness(t.p - w.p_sub, t.q - w.q_sub, t.total_degree - w.d_sub)
                assert wall_alpha(t, complement) == wall.alpha


def test_mw_filter_rejects_a_negative_twist_degree():
    with pytest.raises(ValueError, match=">= 0"):
        enumerate_walls(T110, (-2, 2), mw_twist_degree=-1)
    with pytest.raises(TypeError, match="integer"):
        enumerate_walls(T110, (-2, 2), mw_twist_degree=Fraction(1, 2))


def test_witness_limit_counts_unfiltered_candidates(monkeypatch):
    # T110 has 4 witnesses over [-2, 2]; (1,3,-2,0) has 18 over [-3, 3], 1 dropped at deg L = 0
    t = HitchinPairType(1, 3, -2, 0)
    assert sum(len(w.witnesses) for w in enumerate_walls(t, (-3, 3))) == 18
    monkeypatch.setattr(walls_module, "MAX_WITNESSES", 4)
    assert len(chamber_report(T110, (-2, 2)).walls) == 2
    monkeypatch.setattr(walls_module, "MAX_WITNESSES", 17)
    for query in (
        lambda: enumerate_walls(t, (-3, 3)),
        lambda: enumerate_walls(t, (-3, 3), mw_twist_degree=0),
        lambda: chamber_report(t, (-3, 3), mw_twist_degree=0),
    ):
        with pytest.raises(ValueError, match=r"holds 18 candidate witnesses, more than the limit of 17"):
            query()


def test_family_limit_counts_the_rank_families(monkeypatch):
    rng = SplitMix64(107)
    for _ in range(40):
        t = HitchinPairType(rng.randint(1, 12), rng.randint(1, 12), rng.randint(-3, 3), rng.randint(-3, 3))
        families = len(list(walls_module._wall_families(t)))
        monkeypatch.setattr(walls_module, "MAX_WITNESSES", families)
        walls_module._wall_table(t, (0, 0), None)
        monkeypatch.setattr(walls_module, "MAX_WITNESSES", families - 1)
        with pytest.raises(ValueError, match=rf"has {families} rank families, more than the limit of {families - 1}"):
            walls_module._wall_table(t, (0, 0), None)


def test_scale_spans_only_the_families_with_a_wall():
    # over [0, 0] none of the 160400 families of (400,400,0,1) has a wall; all of them scale by a 583-bit lcm.
    # The scan keeps nothing: a list of every family with a range each peaked at about 28 MB
    tracemalloc.start()
    try:
        assert walls_module._wall_table(HitchinPairType(400, 400, 0, 1), (0, 0), None) == (0, 0, 1, [], [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    # (3,2,0,0) has coefficients +-1, ..., +-6 (lcm 12); only those of +-3 and +-6 have a wall at 5/3
    t = HitchinPairType(3, 2, 0, 0)
    assert walls_module._wall_table(t, (Fraction(5, 3), Fraction(5, 3)), None)[2:] == (
        6, [10], [((0, 1, 1), (0, 2, 2), (3, 0, -2), (3, 1, -1))]
    )
    assert walls_module._wall_table(t, (-3, 3), None)[2] == 12


def test_mw_filter_drops_witness_without_integral_split():
    # At twist degree 0 the sub-bounds pin tau' exactly; witness (1,1,-1) of
    # the wall alpha = 0 needs 2a' + 1 = 0, which no integer a' solves.
    t = HitchinPairType(1, 3, -2, 0)
    ctx = GeometryContext(genus=2, twist_degree=0)
    plain = {w.alpha: w.witnesses for w in enumerate_walls(t, (-3, 3))}
    filtered = {w.alpha: w.witnesses for w in enumerate_walls(t, (-3, 3), mw_twist_degree=ctx.twist_degree)}
    assert set(plain) == set(filtered)
    assert plain[Fraction(0)] == (WallWitness(0, 2, -1), WallWitness(1, 1, -1))
    assert filtered[Fraction(0)] == (WallWitness(0, 2, -1),)
    for alpha in plain:
        if alpha != 0:
            assert filtered[alpha] == plain[alpha]


def test_mw_filter_keeps_rank_zero_sides():
    ctx = GeometryContext(genus=2, twist_degree=0)
    filtered = enumerate_walls(T110, (-2, 2), mw_twist_degree=ctx.twist_degree)
    assert filtered == enumerate_walls(T110, (-2, 2))


def test_mw_filter_is_never_additive():
    rng = SplitMix64(113)
    ctx = GeometryContext.canonical_twist(2)
    for _ in range(15):
        t = HitchinPairType(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        plain = {w.alpha: set(w.witnesses) for w in enumerate_walls(t, (-3, 3))}
        filtered = {w.alpha: set(w.witnesses) for w in enumerate_walls(t, (-3, 3), mw_twist_degree=ctx.twist_degree)}
        for alpha, witnesses in filtered.items():
            assert witnesses <= plain[alpha]


def _fraction_survives_mw(w: tuple[int, int, int], alpha: Fraction) -> bool:
    """The Milnor-Wood split check at deg L = 0 in Fractions, through `toledo_bounds`."""
    p_sub, q_sub, d_sub = w
    if p_sub == 0 or q_sub == 0:
        return True
    bounds = toledo_bounds(p_sub, q_sub, 0, alpha)
    shift = Fraction(2 * p_sub * d_sub, p_sub + q_sub)
    return math.ceil((bounds.lower + shift) / 2) <= math.floor((bounds.upper + shift) / 2)


def _mw_check_cases(rng: SplitMix64, count: int):
    """(shape, witness, key, scale) with |key| < 2 scale, the filter's window at deg L = 0."""
    randint = rng.randint
    for index in range(count):
        p_sub, q_sub = randint(0, 9), randint(0, 9)
        if p_sub == q_sub == 0:
            p_sub = randint(1, 9)
        shape = ("random", "equal_ranks_key_0", "window_edge", "unreduced")[index % 4]
        scale = randint(1, 10**6)
        key = randint(1 - 2 * scale, 2 * scale - 1)
        if shape == "equal_ranks_key_0":
            q_sub, key = p_sub, 0
        elif shape == "window_edge":
            key = (2 * scale - 1) * (1 - 2 * randint(0, 1))
        elif shape == "unreduced":
            den = randint(1, 12)
            factor = randint(2, 10**6 // den)
            key, scale = randint(1 - 2 * den, 2 * den - 1) * factor, den * factor
        yield shape, (p_sub, q_sub, randint(-60, 60)), key, scale


def test_integer_mw_check_matches_the_fraction_check():
    seen = {"random": 0, "equal_ranks_key_0": 0, "window_edge": 0, "unreduced": 0, "rank_0": 0}
    kept = dropped = 0
    for shape, w, key, scale in _mw_check_cases(SplitMix64(2028), 8000):
        survives = walls_module._witness_survives_mw(w, key, scale)
        assert survives == _fraction_survives_mw(w, Fraction(key, scale)), (w, key, scale)
        seen[shape] += 1
        seen["rank_0"] += 0 in w[:2]
        kept += survives
        dropped += not survives
    assert min(seen.values()) >= 500, seen
    assert kept >= 1000 and dropped >= 1000, (kept, dropped)


def test_chamber_report_canonical_example():
    report = chamber_report(T110, (-2, 2))
    assert [w.alpha for w in report.walls] == [-1, 1]
    spans = [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in report.chambers]
    assert spans == [
        (Fraction(-2), Fraction(-1), True, False),
        (Fraction(-1), Fraction(1), False, False),
        (Fraction(1), Fraction(2), False, True),
    ]


def test_chamber_report_wall_free_interval_is_one_chamber():
    report = chamber_report(T110, (Fraction(-1, 2), Fraction(1, 2)))
    assert report.walls == ()
    assert [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in report.chambers] == [
        (Fraction(-1, 2), Fraction(1, 2), True, True)
    ]


def test_chamber_report_wall_on_endpoint_opens_it():
    report = chamber_report(T110, (-1, 1))
    assert [w.alpha for w in report.walls] == [-1, 1]
    assert [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in report.chambers] == [
        (Fraction(-1), Fraction(1), False, False)
    ]


def test_chamber_report_degenerate_cases():
    off_wall = chamber_report(T110, (Fraction(1, 3), Fraction(1, 3)))
    assert off_wall.walls == () and len(off_wall.chambers) == 1
    on_wall = chamber_report(T110, (1, 1))
    assert [w.alpha for w in on_wall.walls] == [1] and on_wall.chambers == ()


def test_chamber_report_agrees_with_brute_force():
    t = HitchinPairType(2, 1, 1, 0)
    report = chamber_report(t, (0, 1))
    assert list(report.walls) == brute_force_walls(t, (0, 1), 6)
    assert [w.alpha for w in report.walls] == [1]
    assert report.walls[0].witnesses == (
        WallWitness(0, 1, 1),
        WallWitness(1, 0, 0),
        WallWitness(1, 1, 1),
        WallWitness(2, 0, 0),
    )


def test_chamber_report_json_round_trip():
    report = chamber_report(T110, (-2, 2))
    doc = report.to_json()
    assert doc["interval"] == ["-2/1", "2/1"]
    assert [w["witness_count"] for w in doc["walls"]] == [2, 2]


def test_certificate_positive_case():
    cert = irreducibility_certificate(HitchinPairType(1, 1, -1, 0), 2, 0)
    assert cert.tau == -1
    assert cert.tau_bound_ok
    assert cert.condition1.holds
    assert (cert.condition1.alpha_window.lower, cert.condition1.alpha_window.upper) == (0, 1)
    assert cert.closure_irreducible and cert.fully_irreducible


def test_certificate_degenerate_windows():
    cert = irreducibility_certificate(HitchinPairType(1, 1, 0, 0), 2, 0)
    assert cert.tau == 0 and cert.tau_bound_ok
    assert cert.condition1.alpha_window.is_infeasible
    assert cert.condition2.alpha_window.is_infeasible
    assert not cert.condition1.holds and not cert.condition2.holds
    assert not cert.closure_irreducible and not cert.fully_irreducible


def test_certificate_tau_bound_failure():
    for alpha in (0, Fraction(1, 2), 3):
        cert = irreducibility_certificate(HitchinPairType(1, 1, 3, 0), 2, alpha)
        assert not cert.tau_bound_ok
        assert not cert.closure_irreducible


def test_certificate_requires_genus_at_least_two():
    with pytest.raises(ValueError, match="genus"):
        irreducibility_certificate(T110, 1, 0)


def test_certificate_gcd_clause():
    # same data scaled by 2: closure logic can hold but gcd(p+q, a+b) = 2
    cert = irreducibility_certificate(HitchinPairType(2, 2, -2, 0), 2, 0)
    if cert.closure_irreducible:
        assert not cert.fully_irreducible


def test_certificate_fully_implies_closure_randomized():
    rng = SplitMix64(127)
    for _ in range(200):
        t = HitchinPairType(rng.randint(1, 5), rng.randint(1, 5), rng.randint(-8, 8), rng.randint(-8, 8))
        cert = irreducibility_certificate(t, rng.randint(2, 5), rng.rational(4))
        if cert.fully_irreducible:
            assert cert.closure_irreducible
        assert cert.closure_irreducible == (
            cert.tau_bound_ok and (cert.condition1.holds or cert.condition2.holds)
        )


def test_certificate_strictness_at_window_edges():
    # the first window is right-open: alpha = hi is out, alpha just below is in
    t = HitchinPairType(1, 1, -1, 0)
    hi = irreducibility_certificate(t, 2, 0).condition1.alpha_window.upper
    assert irreducibility_certificate(t, 2, hi - Fraction(1, 1000)).condition1.holds
    assert not irreducibility_certificate(t, 2, hi).condition1.holds
    # and left-closed: alpha = 0 is in, alpha just below is out
    assert not irreducibility_certificate(t, 2, Fraction(-1, 1000)).condition1.holds


def test_certificate_tau_bound_implies_gap_condition_when_ranks_differ():
    rng = SplitMix64(131)
    checked = 0
    while checked < 300:
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        if p == q:
            continue
        genus = rng.randint(2, 5)
        t = HitchinPairType(p, q, rng.randint(-12, 12), rng.randint(-12, 12))
        deg_k = 2 * genus - 2
        if abs(toledo(t)) > min(p, q) * deg_k:
            continue
        gap = Fraction(t.a, t.p) - Fraction(t.b, t.q)
        if q < p:
            assert gap > -deg_k
        else:
            assert gap < deg_k
        checked += 1


def test_ordered_map_stays_bound_for_the_tracer():
    # perfbench/tracing.py patches walls.ordered_map by name; unpatched it maps inline, in order
    assert walls_module.ordered_map(str, [2, 0, 1]) == ["2", "0", "1"]


def test_toledo_bounds_stays_bound_for_the_tracer():
    # perfbench/tracing.py patches walls.toledo_bounds by name; the engine itself calls it nowhere
    assert walls_module.toledo_bounds is toledo_bounds
