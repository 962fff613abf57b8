"""The integer-numerator kernels against the plain-Fraction formulas they replace.

`alpha_slope_quiver`, `alpha_slope_upq`, `toledo_bounds`,
`toledo_bounds_for_ranks` and `envelope_toledo_bounds` sum integer numerators
over one common denominator and build one Fraction per returned value;
`ParameterVector.shifted` builds one per entry from the integer ratios;
`compare_at` cross-multiplies two such num/den pairs and builds none.  The
reference functions below are the earlier Fraction-arithmetic bodies, kept
verbatim, and every kernel must return equal values, the same regime label and
the same infeasible state on seeded random inputs: alpha numerators up to 10^12
in size over denominators up to 10^6, given as an int, a "num/den" string or a
Fraction, zero and negative shifts, quiver vertices of rank 0, negative
degrees, equal slopes, p and q in 1..8, and alpha exactly at the regime joints
-deg(L) and deg(L), where the label is "ii".  A parameter vector or a sub-type
of the wrong length is refused with the same message as before.
`SplitMix64.randint` over spans up to 10^12, lo == hi included, must draw
exactly lo + next_u64() % (hi - lo + 1), stream for stream.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    HiggsRankPair,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    alpha_slope_quiver,
    alpha_slope_upq,
    as_rational,
    compare_at,
    envelope_toledo_bounds,
    slope,
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


def _reference_compare_at(sub, whole, alpha):
    if sub.vertex_count != whole.vertex_count:
        raise ValueError(
            f"vertex count mismatch: sub has {sub.vertex_count}, whole has {whole.vertex_count}"
        )
    difference = _reference_alpha_slope_quiver(sub, alpha) - _reference_alpha_slope_quiver(whole, alpha)
    return (difference > 0) - (difference < 0)


def _reference_alpha_slope_upq(t, alpha):
    return slope(t.total_rank, t.total_degree) + as_rational(alpha) * t.rank_ratio()


def _reference_shifted(self, constant):
    a = as_rational(constant)
    return tuple.__new__(ParameterVector, [v + a for v in self])


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


def _quiver_type(rng: SplitMix64, n: int) -> QuiverNumericalType:
    ranks = [rng.randint(0, 3) for _ in range(n)]
    if sum(ranks) == 0:
        ranks[rng.randint(0, n - 1)] = rng.randint(1, 3)
    return QuiverNumericalType(tuple(ranks), tuple(rng.randint(-40, 20) for _ in range(n)))


def test_compare_at_matches_the_sign_of_the_fraction_difference():
    rng = SplitMix64(905)
    signs = {-1: 0, 0: 0, 1: 0}
    zero_rank_vertices = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        sub = _quiver_type(rng, n)
        shape = rng.randint(0, 3)
        if shape == 0:  # a multiple of sub: equal slopes at every alpha
            k = rng.randint(1, 3)
            whole = QuiverNumericalType(tuple(k * r for r in sub.ranks), tuple(k * d for d in sub.degrees))
        elif shape == 1:
            whole = sub
        else:
            whole = _quiver_type(rng, n)
        zero_rank_vertices += sub.ranks.count(0)
        values = [_alpha(rng, rng.randint(0, 5)) for _ in range(n)]
        alpha = ParameterVector.of(*values) if rng.randint(0, 1) else values
        got = compare_at(sub, whole, alpha)
        assert got == _reference_compare_at(sub, whole, alpha)
        signs[got] += 1
    assert min(signs.values()) > 500 and zero_rank_vertices > 500, (signs, zero_rank_vertices)


def _spelled(rng: SplitMix64, value: Fraction) -> int | str | Fraction:
    """value as an int when it is one and the draw says so, else as a "num/den" string or a Fraction."""
    shape = rng.randint(0, 2)
    if shape == 0 and value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}" if shape == 1 else value


def test_alpha_slope_upq_matches_fraction_formula():
    rng = SplitMix64(906)
    spellings = {int: 0, str: 0, Fraction: 0}
    for _ in range(3000):
        t = HitchinPairType(rng.randint(1, 8), rng.randint(1, 8), rng.randint(-40, 40), rng.randint(-40, 40))
        alpha = _spelled(rng, _alpha(rng, rng.randint(0, 5)))
        got = alpha_slope_upq(t, alpha)
        assert got == _reference_alpha_slope_upq(t, alpha)
        assert type(got) is Fraction
        spellings[type(alpha)] += 1
    assert min(spellings.values()) > 300, spellings


def test_shifted_matches_the_entrywise_fraction_sum():
    rng = SplitMix64(908)
    zero = negative = 0
    for _ in range(3000):
        alpha = ParameterVector.of(*(_alpha(rng, rng.randint(0, 5)) for _ in range(rng.randint(1, 5))))
        shift = _alpha(rng, rng.randint(0, 5)) if rng.randint(0, 3) else Fraction(0)
        zero += shift == 0
        negative += shift < 0
        shift = _spelled(rng, shift)
        got = alpha.shifted(shift)
        assert got == _reference_shifted(alpha, shift)
        assert type(got) is ParameterVector and all(type(v) is Fraction for v in got)
    assert zero > 600 and negative > 600, (zero, negative)


def test_length_mismatches_keep_their_messages():
    e = QuiverNumericalType((1, 2), (0, -3))
    with pytest.raises(ValueError) as raised:
        alpha_slope_quiver(e, [1, "1/2", Fraction(3)])
    assert str(raised.value) == "parameter vector has 3 entries for 2 vertices"
    with pytest.raises(ValueError) as raised:
        compare_at(e, QuiverNumericalType((1, 0, 1), (0, 0, 0)), [0, 0])
    assert str(raised.value) == "vertex count mismatch: sub has 2, whole has 3"


def test_randint_draws_the_modulo_of_next_u64_stream_for_stream():
    for seed in (0, 907, 2**64 - 1):
        fast, slow, shapes = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed + 1)
        for _ in range(3000):
            lo = shapes.randint(-10**12, 10**12)
            shape = shapes.randint(0, 2)
            hi = lo if shape == 0 else lo + shapes.randint(0, 10 if shape == 1 else 10**12)
            assert fast.randint(lo, hi) == lo + slow.next_u64() % (hi - lo + 1)
        assert fast.next_u64() == slow.next_u64()


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
