"""Milnor-Wood bound evaluation against the rank-scan oracle and hand values."""

from __future__ import annotations

from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    HiggsRankPair,
    HitchinPairType,
    envelope_toledo_bounds,
    mw_check,
    toledo,
    toledo_bounds,
    toledo_bounds_for_ranks,
)
from upqstab.oracle import SplitMix64


def test_rank_bounds_direct_substitution():
    t = HitchinPairType(1, 1, 0, 0)
    box = toledo_bounds_for_ranks(t, 2, 0, HiggsRankPair(1, 1))
    assert (box.lower, box.upper) == (Fraction(-2), Fraction(2))
    # envelope oracle reproduces the same interval at full ranks for p = q
    oracle = envelope_toledo_bounds(1, 1, 2, 0)
    assert (oracle.lower, oracle.upper) == (box.lower, box.upper)


def test_rank_bounds_zero_ranks_collapse_to_zero():
    rng = SplitMix64(7)
    for _ in range(50):
        t = HitchinPairType(rng.randint(1, 5), rng.randint(1, 5), rng.randint(-6, 6), rng.randint(-6, 6))
        deg_l = rng.randint(-4, 4)
        box = toledo_bounds_for_ranks(t, deg_l, 0, HiggsRankPair(0, 0))
        assert (box.lower, box.upper) == (0, 0)


def test_rank_bounds_worked_example():
    # -1 + 3(1 - 4/3) = -2 and 1 + 3(1 - 4/3) = 0
    box = toledo_bounds_for_ranks(HitchinPairType(2, 1, 1, 0), 1, 3, HiggsRankPair(1, 1))
    assert (box.lower, box.upper) == (Fraction(-2), Fraction(0))


def test_rank_bounds_can_be_infeasible():
    # deg(L)=0, alpha=1, ranks (1,0): lower 0, upper -1
    box = toledo_bounds_for_ranks(HitchinPairType(1, 1, 0, 0), 0, 1, HiggsRankPair(1, 0))
    assert box.is_infeasible


def test_rank_bounds_allow_negative_twist_degree():
    # deg(L) = -3 at full ranks flips the endpoints (3 > -3): infeasible state
    box = toledo_bounds_for_ranks(HitchinPairType(1, 1, 0, 0), -3, 0, HiggsRankPair(1, 1))
    assert box.is_infeasible
    # but zero ranks stay feasible for any twist degree
    collapsed = toledo_bounds_for_ranks(HitchinPairType(1, 1, 0, 0), -3, 0, HiggsRankPair(0, 0))
    assert (collapsed.lower, collapsed.upper) == (0, 0)


def test_rank_bounds_validate_ranks():
    t = HitchinPairType(2, 1, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        toledo_bounds_for_ranks(t, 2, 0, HiggsRankPair(0, 2))


def test_regime_bounds_symmetric_example():
    box = toledo_bounds(1, 1, 2, 0)
    assert (box.lower, box.upper, box.regime_label) == (Fraction(-2), Fraction(2), "ii")
    oracle = envelope_toledo_bounds(1, 1, 2, 0)
    assert (oracle.lower, oracle.upper) == (box.lower, box.upper)


def test_regime_boundary_agrees_on_both_sides():
    # alpha = -deg(L): the low-regime upper bound -alpha 2pq/(p+q) and the
    # middle-regime upper bound min(p,q)(deg L - alpha |p-q|/(p+q)) coincide
    box = toledo_bounds(2, 1, 1, -1)
    assert box.upper == Fraction(4, 3)
    assert -Fraction(-1) * Fraction(2 * 2 * 1, 3) == Fraction(4, 3)
    assert 1 * (1 - Fraction(-1) * Fraction(1, 3)) == Fraction(4, 3)


def test_regime_bounds_at_zero_match_min_rank_times_twist():
    for p in range(1, 9):
        for q in range(1, 9):
            for deg_l in range(0, 5):
                box = toledo_bounds(p, q, deg_l, 0)
                assert (box.lower, box.upper) == (-min(p, q) * deg_l, min(p, q) * deg_l)
                assert box.regime_label == "ii"


def test_regime_labels():
    assert toledo_bounds(3, 2, 2, -5).regime_label == "i"
    assert toledo_bounds(3, 2, 2, -2).regime_label == "ii"
    assert toledo_bounds(3, 2, 2, 1).regime_label == "ii"
    assert toledo_bounds(3, 2, 2, 2).regime_label == "ii"
    assert toledo_bounds(3, 2, 2, 7).regime_label == "iii"


def test_regime_continuity_exact():
    for p in range(1, 9):
        for q in range(1, 9):
            for deg_l in range(0, 5):
                m = min(p, q)
                skew = Fraction(abs(p - q), p + q)
                weight = Fraction(2 * p * q, p + q)
                at_low = toledo_bounds(p, q, deg_l, -deg_l)
                assert at_low.upper == deg_l * weight == m * (deg_l + deg_l * skew)
                assert at_low.lower == m * (deg_l * skew - deg_l)
                at_high = toledo_bounds(p, q, deg_l, deg_l)
                assert at_high.lower == -deg_l * weight == m * (-deg_l * skew - deg_l)
                assert at_high.upper == m * (deg_l - deg_l * skew)


def test_regime_bounds_duality():
    rng = SplitMix64(13)
    for _ in range(400):
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        deg_l = rng.randint(0, 4)
        alpha = Fraction(rng.randint(-10 * (deg_l + 2), 10 * (deg_l + 2)), 10)
        direct = toledo_bounds(p, q, deg_l, alpha)
        mirrored = toledo_bounds(q, p, deg_l, -alpha)
        assert mirrored.lower == -direct.upper
        assert mirrored.upper == -direct.lower


def test_regime_width_monotone_in_twist_degree():
    rng = SplitMix64(17)
    for _ in range(200):
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        deg_l = rng.randint(1, 6)
        # keep alpha inside the middle regime for both twisting degrees
        alpha = Fraction(rng.randint(-12 * (deg_l - 1), 12 * (deg_l - 1)), 12) if deg_l > 1 else Fraction(0)
        narrower = toledo_bounds(p, q, deg_l - 1, alpha) if abs(alpha) <= deg_l - 1 else None
        wider = toledo_bounds(p, q, deg_l, alpha)
        if narrower is not None and narrower.regime_label == "ii" and wider.regime_label == "ii":
            assert wider.upper - wider.lower >= narrower.upper - narrower.lower


def test_regime_bounds_reject_negative_twist_degree():
    with pytest.raises(ValueError, match="non-negative"):
        toledo_bounds(1, 1, -1, 0)


def test_regime_bounds_reject_nonpositive_ranks():
    with pytest.raises(ValueError):
        toledo_bounds(0, 1, 2, 0)


@pytest.mark.parametrize(
    "args, name",
    [((True, 1, 0, 0), "p"), ((1.0, 1, 0, 0), "p"), ((1, True, 0, 0), "q"), ((1, 1, 0.0, 0), "deg_l"),
     ((1, 1.0, 0, 0), "q"), ((1, 1, True, 0), "deg_l")],
)
def test_regime_bounds_reject_bools_and_floats(args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        toledo_bounds(*args)


def test_envelope_identity_small_grid():
    for p in range(1, 5):
        for q in range(1, 5):
            for deg_l in range(0, 3):
                for num in range(-4 * (deg_l + 2), 4 * (deg_l + 2) + 1):
                    alpha = Fraction(num, 4)
                    closed_form = toledo_bounds(p, q, deg_l, alpha)
                    scanned = envelope_toledo_bounds(p, q, deg_l, alpha)
                    assert (closed_form.lower, closed_form.upper) == (scanned.lower, scanned.upper)


def test_mw_check_pass_example():
    verdict = mw_check(HitchinPairType(1, 1, 1, 0), 2, 0)
    assert verdict.passed and verdict.side is None and verdict.margin is None
    assert verdict.tau == 1


def test_mw_check_fail_example():
    verdict = mw_check(HitchinPairType(1, 1, 3, 0), 2, 0)
    assert not verdict.passed
    assert verdict.side == "upper"
    assert verdict.margin == 1
    assert verdict.tau == 3


def test_mw_check_lower_violation_side():
    verdict = mw_check(HitchinPairType(1, 1, -3, 0), 2, 0)
    assert not verdict.passed and verdict.side == "lower" and verdict.margin == 1


def test_mw_check_zero_toledo_passes_whenever_interval_contains_zero():
    rng = SplitMix64(19)
    for _ in range(200):
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        k = rng.randint(-5, 5)
        t = HitchinPairType(p, q, k * p, k * q)  # mu(V) = mu(W) = k, tau = 0
        assert toledo(t) == 0
        deg_l = rng.randint(0, 4)
        alpha = rng.rational(6)
        if toledo_bounds(p, q, deg_l, alpha).contains(0):
            assert mw_check(t, deg_l, alpha).passed


def test_mw_check_with_ranks_and_infeasible_interval():
    t = HitchinPairType(1, 1, 0, 0)
    feasible = mw_check(t, 2, 0, HiggsRankPair(1, 1))
    assert feasible.passed
    infeasible = mw_check(t, 0, 1, HiggsRankPair(1, 0))
    assert not infeasible.passed
    assert infeasible.side == "infeasible" and infeasible.margin is None
    assert infeasible.interval.is_infeasible


def test_mw_verdict_serialization():
    verdict = mw_check(HitchinPairType(1, 1, 3, 0), 2, 0)
    doc = verdict.to_json()
    assert doc["verdict"] == "fail" and doc["side"] == "upper" and doc["margin"] == "1/1"
    assert doc["interval"] == BoundInterval.closed(-2, 2, "ii").to_json()
