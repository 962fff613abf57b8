"""Wall enumeration, chambers, and irreducibility certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest

from upqstab import (
    CertificateCondition,
    BoundInterval,
    GeometryContext,
    HitchinPairType,
    IrreducibilityCertificate,
    Wall,
    WallWitness,
    brute_force_walls,
    chamber_report,
    compare_at,
    enumerate_walls,
    irreducibility_certificate,
    toledo,
    upq_parameter_vector,
    upq_quiver_type,
    wall_alpha,
)
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


def test_jobs_do_not_change_output():
    t = HitchinPairType(2, 3, 1, -2)
    assert enumerate_walls(t, (-4, 4), jobs=1) == enumerate_walls(t, (-4, 4), jobs=4)


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


def test_wall_needs_a_witness():
    with pytest.raises(ValueError, match="at least one witness"):
        Wall(Fraction(1), ())


def test_mw_filter_requires_context():
    with pytest.raises(ValueError, match="geometry context"):
        enumerate_walls(T110, (-2, 2), mw_filter=True)
    with pytest.raises(ValueError, match=">= 0"):
        enumerate_walls(T110, (-2, 2), mw_filter=True, ctx=GeometryContext(genus=0, twist_degree=-1))


def test_mw_filter_drops_witness_without_integral_split():
    # At twist degree 0 the sub-bounds pin tau' exactly; witness (1,1,-1) of
    # the wall alpha = 0 needs 2a' + 1 = 0, which no integer a' solves.
    t = HitchinPairType(1, 3, -2, 0)
    ctx = GeometryContext(genus=2, twist_degree=0)
    plain = {w.alpha: w.witnesses for w in enumerate_walls(t, (-3, 3))}
    filtered = {w.alpha: w.witnesses for w in enumerate_walls(t, (-3, 3), mw_filter=True, ctx=ctx)}
    assert set(plain) == set(filtered)
    assert plain[Fraction(0)] == (WallWitness(0, 2, -1), WallWitness(1, 1, -1))
    assert filtered[Fraction(0)] == (WallWitness(0, 2, -1),)
    for alpha in plain:
        if alpha != 0:
            assert filtered[alpha] == plain[alpha]


def test_mw_filter_keeps_rank_zero_sides():
    ctx = GeometryContext(genus=2, twist_degree=0)
    filtered = enumerate_walls(T110, (-2, 2), mw_filter=True, ctx=ctx)
    assert filtered == enumerate_walls(T110, (-2, 2))


def test_mw_filter_is_never_additive():
    rng = SplitMix64(113)
    ctx = GeometryContext.canonical_twist(2)
    for _ in range(15):
        t = HitchinPairType(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        plain = {w.alpha: set(w.witnesses) for w in enumerate_walls(t, (-3, 3))}
        filtered = {w.alpha: set(w.witnesses) for w in enumerate_walls(t, (-3, 3), mw_filter=True, ctx=ctx)}
        for alpha, witnesses in filtered.items():
            assert witnesses <= plain[alpha]


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


def test_certificate_invariants_are_enforced():
    window = BoundInterval.closed(0, 1)
    good = CertificateCondition(True, window)
    bad_closure = dict(
        tau=Fraction(0),
        tau_bound_ok=True,
        condition1=good,
        condition2=CertificateCondition(False, BoundInterval.infeasible()),
        closure_irreducible=False,  # inconsistent: tau ok and condition1 holds
        fully_irreducible=False,
    )
    with pytest.raises(ValueError, match="inconsistent"):
        IrreducibilityCertificate(**bad_closure)
    with pytest.raises(ValueError, match="requires closure"):
        IrreducibilityCertificate(
            tau=Fraction(0),
            tau_bound_ok=False,
            condition1=good,
            condition2=good,
            closure_irreducible=False,
            fully_irreducible=True,
        )


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
