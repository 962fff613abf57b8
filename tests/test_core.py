"""Slopes, Toledo invariants, parameter conversions, and their exact identities."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    GeometryContext,
    HiggsRankPair,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    alpha_slope_quiver,
    alpha_slope_upq,
    alpha_to_c_pair,
    as_rational,
    compare_at,
    format_rational,
    gcd_rank_degree,
    parse_rational,
    slope,
    toledo,
    upq_parameter_vector,
    upq_quiver_type,
)
from upqstab.oracle import SplitMix64, _random_pair_type, _random_quiver_type


def test_slope_examples():
    assert slope(2, 3) == Fraction(3, 2)
    assert slope(1, 0) == 0
    assert slope(2, 1) == Fraction(1, 2)


def test_slope_rejects_rank_zero():
    with pytest.raises(ValueError, match="undefined slope"):
        slope(0, 3)
    with pytest.raises(ValueError, match="undefined slope"):
        slope(-1, 3)


def test_alpha_slope_quiver_hand_evaluation():
    # term by term: (1 + 0*1 + 0 + 2*1) / (1 + 1)
    e = QuiverNumericalType(ranks=(1, 1), degrees=(1, 0))
    assert alpha_slope_quiver(e, ParameterVector.of(0, 2)) == Fraction(3, 2)


def test_alpha_slope_quiver_zero_parameter_is_plain_slope():
    rng = SplitMix64(11)
    for _ in range(100):
        e = _random_quiver_type(rng, rng.randint(1, 4))
        zero = ParameterVector.of(*[0] * e.vertex_count)
        assert alpha_slope_quiver(e, zero) == slope(e.total_rank, e.total_degree)


def test_alpha_slope_quiver_translation_shifts_by_constant():
    e = QuiverNumericalType(ranks=(1, 1), degrees=(1, 0))
    assert alpha_slope_quiver(e, ParameterVector.of(5, 5)) == alpha_slope_quiver(
        e, ParameterVector.of(0, 0)
    ) + 5


def test_alpha_slope_quiver_dimension_mismatch():
    e = QuiverNumericalType(ranks=(1, 1), degrees=(1, 0))
    with pytest.raises(ValueError, match="vert"):
        alpha_slope_quiver(e, ParameterVector.of(1))


@pytest.mark.parametrize(
    "t, alpha, expected",
    [
        (HitchinPairType(1, 1, 1, 0), 0, Fraction(1, 2)),
        (HitchinPairType(1, 1, 1, 0), 2, Fraction(3, 2)),
        (HitchinPairType(2, 1, 1, 0), 3, Fraction(7, 3)),
    ],
)
def test_alpha_slope_upq_values_and_quiver_cross_check(t, alpha, expected):
    value = alpha_slope_upq(t, alpha)
    assert value == expected
    # independent route: same number from the two-vertex quiver formula
    assert value == alpha_slope_quiver(upq_quiver_type(t), upq_parameter_vector(alpha))


def test_upq_specialization_holds_generally():
    rng = SplitMix64(23)
    for _ in range(300):
        t = _random_pair_type(rng)
        alpha = rng.rational(8)
        assert alpha_slope_upq(t, alpha) == alpha_slope_quiver(
            upq_quiver_type(t), upq_parameter_vector(alpha)
        )


def _toledo_two_ways(t: HitchinPairType) -> tuple[Fraction, Fraction]:
    """Both published forms of tau, evaluated independently of the engine."""
    weighted = Fraction(2 * t.p * t.q, t.p + t.q) * (Fraction(t.a, t.p) - Fraction(t.b, t.q))
    direct = Fraction(2 * (t.q * t.a - t.p * t.b), t.p + t.q)
    return weighted, direct


def test_toledo_vanishes_on_balanced_rank_one_types():
    for k in range(-4, 5):
        assert toledo(HitchinPairType(1, 1, k, k)) == 0


@pytest.mark.parametrize(
    "t, expected",
    [
        (HitchinPairType(2, 1, 1, 0), Fraction(2, 3)),
        (HitchinPairType(1, 1, -1, 0), Fraction(-1)),
    ],
)
def test_toledo_examples_match_both_formulas(t, expected):
    weighted, direct = _toledo_two_ways(t)
    assert weighted == direct == expected
    assert toledo(t) == expected


def test_toledo_two_formula_agreement_and_duality():
    rng = SplitMix64(31)
    for _ in range(300):
        t = _random_pair_type(rng)
        weighted, direct = _toledo_two_ways(t)
        assert weighted == direct == toledo(t)
        assert toledo(t) == -toledo(t.dual())


@pytest.mark.parametrize(
    "t, alpha, expected",
    [
        (HitchinPairType(1, 1, 1, 0), 0, (Fraction(1, 2), Fraction(1, 2))),
        (HitchinPairType(1, 1, 1, 0), 2, (Fraction(-1, 2), Fraction(3, 2))),
        (HitchinPairType(2, 1, 0, 0), 3, (Fraction(-1), Fraction(2))),
    ],
)
def test_alpha_to_c_pair_examples(t, alpha, expected):
    c1, c2 = alpha_to_c_pair(t, alpha)
    assert (c1, c2) == expected
    # back-substitute into both defining constraints
    assert c2 - c1 == alpha
    r = t.p + t.q
    assert Fraction(t.p, r) * c1 + Fraction(t.q, r) * c2 == Fraction(t.a + t.b, r)


def test_alpha_to_c_pair_round_trip_randomized():
    rng = SplitMix64(47)
    for _ in range(200):
        t = _random_pair_type(rng)
        alpha = rng.rational(7)
        c1, c2 = alpha_to_c_pair(t, alpha)
        assert c2 - c1 == alpha
        r = t.p + t.q
        assert Fraction(t.p, r) * c1 + Fraction(t.q, r) * c2 == slope(r, t.a + t.b)


def test_compare_at_identity_is_zero():
    e = QuiverNumericalType(ranks=(2, 1), degrees=(3, -1))
    assert compare_at(e, e, ParameterVector.of(1, Fraction(1, 3))) == 0


def test_compare_at_equal_slopes():
    sub = QuiverNumericalType(ranks=(1, 0), degrees=(0, 0))
    whole = QuiverNumericalType(ranks=(1, 1), degrees=(1, 0))
    alpha = ParameterVector.of(1, 0)
    assert alpha_slope_quiver(sub, alpha) == alpha_slope_quiver(whole, alpha) == 1
    assert compare_at(sub, whole, alpha) == 0


def test_compare_at_translation_invariance():
    rng = SplitMix64(59)
    for _ in range(300):
        n = rng.randint(2, 4)
        sub = _random_quiver_type(rng, n)
        whole = _random_quiver_type(rng, n)
        alpha = ParameterVector(tuple(rng.rational(4) for _ in range(n)))
        shift = rng.rational(6)
        assert compare_at(sub, whole, alpha) == compare_at(sub, whole, alpha.shifted(shift))


def test_compare_at_dimension_mismatch():
    sub = QuiverNumericalType(ranks=(1,), degrees=(0,))
    whole = QuiverNumericalType(ranks=(1, 1), degrees=(1, 0))
    with pytest.raises(ValueError, match="mismatch"):
        compare_at(sub, whole, ParameterVector.of(0, 0))


def test_translation_shifts_slope_exactly():
    rng = SplitMix64(61)
    for _ in range(300):
        e = _random_quiver_type(rng, rng.randint(1, 4))
        alpha = ParameterVector(tuple(rng.rational(4) for _ in range(e.vertex_count)))
        shift = rng.rational(6)
        assert alpha_slope_quiver(e, alpha.shifted(shift)) == alpha_slope_quiver(e, alpha) + shift


def test_results_are_in_canonical_form():
    rng = SplitMix64(67)
    for _ in range(200):
        t = _random_pair_type(rng)
        for value in (toledo(t), alpha_slope_upq(t, rng.rational(5)), *alpha_to_c_pair(t, rng.rational(5))):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_rational_parsing_and_formatting():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 4/-6 ") == Fraction(-2, 3)
    assert format_rational(Fraction(-1)) == "-1/1"
    assert format_rational(Fraction(2, 4)) == "1/2"
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_floats_are_rejected():
    with pytest.raises(TypeError, match="floating point"):
        as_rational(0.5)
    with pytest.raises(TypeError):
        ParameterVector.of(0.25)
    with pytest.raises(TypeError):
        alpha_slope_upq(HitchinPairType(1, 1, 1, 0), 0.5)


def test_type_invariants_are_enforced():
    with pytest.raises(ValueError):
        HitchinPairType(0, 1, 0, 0)
    with pytest.raises(ValueError):
        HitchinPairType(1, -2, 0, 0)
    with pytest.raises(ValueError):
        QuiverNumericalType(ranks=(0, 0), degrees=(1, 0))
    with pytest.raises(ValueError):
        QuiverNumericalType(ranks=(1,), degrees=(1, 0))
    with pytest.raises(ValueError):
        GeometryContext(genus=-1, twist_degree=0)
    with pytest.raises(ValueError):
        GeometryContext(genus=2, twist_degree=3, canonical=True)
    with pytest.raises(ValueError):
        BoundInterval.closed(1, 0)
    with pytest.raises(ValueError):
        HiggsRankPair(-1, 0)


def test_geometry_context_canonical_twist():
    ctx = GeometryContext.canonical_twist(3)
    assert ctx.twist_degree == 4 and ctx.canonical


def test_higgs_rank_pair_range_relative_to_type():
    t = HitchinPairType(2, 1, 0, 0)
    HiggsRankPair(1, 1).validate_for(t)
    with pytest.raises(ValueError, match="out of range"):
        HiggsRankPair(2, 0).validate_for(t)


def test_parameter_vector_helpers():
    alpha = ParameterVector.of(3, 1, -2)
    assert alpha.shifted(-3).values == (Fraction(0), Fraction(-2), Fraction(-5))
    assert alpha.shifted(Fraction(1, 2)).values[0] == Fraction(7, 2)
    assert len(alpha) == 3 and list(alpha) == [3, 1, -2]


def test_bound_interval_behaviour():
    box = BoundInterval.closed(Fraction(-1, 2), 2, "ii")
    assert box.contains(0) and box.contains("-1/2") and not box.contains(3)
    assert box.upper - box.lower == Fraction(5, 2)
    empty = BoundInterval.infeasible()
    assert empty.is_infeasible and not empty.contains(0)
    assert empty.lower is None and empty.upper is None


def test_gcd_rank_degree():
    assert gcd_rank_degree(HitchinPairType(1, 1, -1, 0)) == 1
    assert gcd_rank_degree(HitchinPairType(2, 2, 1, 1)) == 2
