"""The integer-numerator kernels against the plain-Fraction formulas they replace.

`alpha_slope_quiver`, `toledo_bounds`, `toledo_bounds_for_ranks` and
`envelope_toledo_bounds` sum integer numerators over one common denominator
and build one Fraction per returned value.  The reference functions below are
the earlier Fraction-arithmetic bodies, kept verbatim, and every kernel must
return equal values, the same regime label and the same infeasible state on
seeded random inputs: alpha numerators up to 10^12 in size over denominators
up to 10^6, quiver vertices of rank 0, negative degrees, p and q in 1..8, and
alpha exactly at the regime joints -deg(L) and deg(L), where the label is "ii".
"""

from __future__ import annotations

from fractions import Fraction

from upqstab import (
    BoundInterval,
    HiggsRankPair,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    alpha_slope_quiver,
    as_rational,
    envelope_toledo_bounds,
    toledo_bounds,
    toledo_bounds_for_ranks,
)
from upqstab.oracle import SplitMix64


def _reference_alpha_slope_quiver(e, alpha):
    values = alpha.values if isinstance(alpha, ParameterVector) else tuple(as_rational(v) for v in alpha)
    if len(values) != e.vertex_count:
        raise ValueError(
            f"parameter vector has {len(values)} entries for {e.vertex_count} vertices"
        )
    numerator = Fraction(e.total_degree) + sum(
        (a * r for a, r in zip(values, e.ranks)), Fraction(0)
    )
    return numerator / e.total_rank


def _reference_toledo_bounds_for_ranks(t, deg_l, alpha, ranks):
    ranks.validate_for(t)
    a = as_rational(alpha)
    weight = Fraction(2 * t.p * t.q, t.p + t.q)
    lower = -ranks.rk_beta * deg_l + a * (ranks.rk_beta - weight)
    upper = ranks.rk_gamma * deg_l + a * (ranks.rk_gamma - weight)
    if lower > upper:
        return BoundInterval.infeasible()
    return BoundInterval.closed(lower, upper)


def _reference_toledo_bounds(p, q, deg_l, alpha):
    a = as_rational(alpha)
    m = min(p, q)
    skew = Fraction(abs(p - q), p + q)
    weight = Fraction(2 * p * q, p + q)

    lower_low = m * (-a * skew - deg_l)  # minimizing side for alpha <= deg(L)
    upper_high = m * (deg_l - a * skew)  # maximizing side for alpha >= -deg(L)

    if a < -deg_l:
        return BoundInterval.closed(lower_low, -a * weight, "i")
    if a > deg_l:
        return BoundInterval.closed(-a * weight, upper_high, "iii")
    return BoundInterval.closed(lower_low, upper_high, "ii")


def _reference_envelope_toledo_bounds(p, q, deg_l, alpha):
    a = as_rational(alpha)
    weight = Fraction(2 * p * q, p + q)
    lowers = [-r * deg_l + a * (r - weight) for r in range(min(p, q) + 1)]
    uppers = [r * deg_l + a * (r - weight) for r in range(min(p, q) + 1)]
    return BoundInterval.closed(min(lowers), max(uppers))


def _alpha(rng: SplitMix64, deg_l: int = 0) -> Fraction:
    """Half huge (|num| <= 10^12, den <= 10^6), a quarter small, a quarter exactly +-deg(L)."""
    shape = rng.randint(0, 3)
    if shape <= 1:
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
    if shape == 2:
        return rng.rational(deg_l + 2)
    return Fraction(deg_l if rng.randint(0, 1) else -deg_l)


def _assert_same(got: BoundInterval, want: BoundInterval) -> None:
    assert got == want, (got, want)
    assert got.is_infeasible or (type(got.lower) is Fraction and type(got.upper) is Fraction)


def test_alpha_slope_quiver_matches_fraction_sum():
    rng = SplitMix64(901)
    zero_rank_vertices = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        ranks = [rng.randint(0, 4) for _ in range(n)]
        if sum(ranks) == 0:
            ranks[rng.randint(0, n - 1)] = rng.randint(1, 4)
        zero_rank_vertices += ranks.count(0)
        e = QuiverNumericalType(tuple(ranks), tuple(rng.randint(-40, 20) for _ in range(n)))
        values = [_alpha(rng, rng.randint(0, 5)) for _ in range(n)]
        alpha = ParameterVector.of(*values) if rng.randint(0, 1) else values
        got = alpha_slope_quiver(e, alpha)
        assert got == _reference_alpha_slope_quiver(e, alpha)
        assert type(got) is Fraction
    assert zero_rank_vertices > 500


def test_toledo_bounds_matches_fraction_regimes():
    rng = SplitMix64(902)
    labels = {"i": 0, "ii": 0, "iii": 0}
    for _ in range(3000):
        p, q, deg_l = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 5)
        a = _alpha(rng, deg_l)
        got = toledo_bounds(p, q, deg_l, a)
        _assert_same(got, _reference_toledo_bounds(p, q, deg_l, a))
        labels[got.regime_label] += 1
    assert min(labels.values()) > 300, labels


def test_toledo_bounds_at_the_regime_joints_is_regime_ii():
    for deg_l in range(6):
        for p in range(1, 9):
            for q in range(1, 9):
                for a in (deg_l, -deg_l, Fraction(deg_l), Fraction(-deg_l)):
                    got = toledo_bounds(p, q, deg_l, a)
                    assert got.regime_label == "ii"
                    _assert_same(got, _reference_toledo_bounds(p, q, deg_l, a))
                # one step of a large denominator off each joint leaves regime ii
                step = Fraction(1, 10**6)
                assert toledo_bounds(p, q, deg_l, -deg_l - step).regime_label == "i"
                assert toledo_bounds(p, q, deg_l, deg_l + step).regime_label == "iii"


def test_toledo_bounds_for_ranks_matches_fraction_bounds():
    rng = SplitMix64(903)
    infeasible = 0
    for _ in range(3000):
        t = HitchinPairType(rng.randint(1, 8), rng.randint(1, 8), rng.randint(-12, 12), rng.randint(-12, 12))
        cap = min(t.p, t.q)
        ranks = HiggsRankPair(rng.randint(0, cap), rng.randint(0, cap))
        deg_l = rng.randint(-5, 5)  # any integer at the rank level
        a = _alpha(rng, abs(deg_l))
        got = toledo_bounds_for_ranks(t, deg_l, a, ranks)
        _assert_same(got, _reference_toledo_bounds_for_ranks(t, deg_l, a, ranks))
        infeasible += got.is_infeasible
    assert 300 < infeasible < 2700, infeasible


def test_envelope_scan_matches_fraction_scan():
    rng = SplitMix64(904)
    for _ in range(3000):
        p, q, deg_l = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 5)
        a = _alpha(rng, deg_l)
        _assert_same(envelope_toledo_bounds(p, q, deg_l, a), _reference_envelope_toledo_bounds(p, q, deg_l, a))
