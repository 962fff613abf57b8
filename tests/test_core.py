"""Slopes, Toledo invariants, parameter conversions, and their exact identities."""

from __future__ import annotations

import copy
import math
import pickle
import re
import sys
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
from upqstab.core import _exceeds_digit_limit, _fraction
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


def test_bools_and_other_objects_are_not_rationals():
    with pytest.raises(TypeError, match="got bool True"):
        as_rational(True)
    with pytest.raises(TypeError, match="cannot interpret"):
        as_rational(object())


def test_type_invariants_are_enforced():
    with pytest.raises(ValueError):
        HitchinPairType(0, 1, 0, 0)
    with pytest.raises(ValueError):
        HitchinPairType(1, -2, 0, 0)
    with pytest.raises(ValueError):
        QuiverNumericalType(ranks=(0, 0), degrees=(1, 0))
    with pytest.raises(ValueError):
        QuiverNumericalType(ranks=(1,), degrees=(1, 0))
    # the ranks sum to 1, so only the per-vertex check can refuse them
    with pytest.raises(ValueError, match="vertex ranks must be non-negative"):
        QuiverNumericalType((-1, 2), (0, 0))
    with pytest.raises(ValueError):
        GeometryContext(genus=-1, twist_degree=0)
    with pytest.raises(ValueError):
        GeometryContext(genus=2, twist_degree=3, canonical=True)
    with pytest.raises(ValueError):
        BoundInterval.closed(1, 0)
    with pytest.raises(TypeError):
        BoundInterval.closed(0.5, 1)
    with pytest.raises(ValueError):
        BoundInterval.closed(0, 1, "iv")
    with pytest.raises(ValueError):
        BoundInterval.infeasible("iv")
    with pytest.raises(ValueError):
        HiggsRankPair(-1, 0)


@pytest.mark.parametrize(
    "record, plain, bad",
    [
        (HitchinPairType(1, 1, 0, 0), (1, 1, 0, 0), {"p": 0}),
        (GeometryContext(2, 2, True), (2, 2, True), {"twist_degree": 3}),
        (HiggsRankPair(1, 0), (1, 0), {"rk_beta": -1}),
        (QuiverNumericalType([1, 1], [1, 0]), ((1, 1), (1, 0)), {"ranks": (1,)}),
    ],
    ids=["type", "ctx", "ranks", "quiver"],
)
def test_inputs_are_validated_records(record, plain, bad):
    cls = type(record)
    assert record == plain and hash(record) == hash(plain) and tuple(record) == plain
    assert pickle.loads(pickle.dumps(record)) == record and type(copy.copy(record)) is cls
    fields = {**record._asdict(), **bad}
    with pytest.raises(ValueError) as direct:
        cls(**fields)
    for build in (lambda: record._replace(**bad), lambda: cls._make(fields.values())):
        with pytest.raises(ValueError, match=re.escape(str(direct.value))):
            build()
    # a record forged past __new__ is checked again when it is unpickled or copied
    forged = tuple.__new__(cls, fields.values())
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(forged))
    with pytest.raises(ValueError):
        copy.copy(forged)


class _Int(int):
    """A valid int that is not exactly an int."""


def _require_int_before(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _pair_type_before(p, q, a, b):
    """HitchinPairType's checks written out plainly, with the messages they have always had."""
    for value, name in ((p, "p"), (q, "q"), (a, "a"), (b, "b")):
        _require_int_before(value, name)
    if p < 1 or q < 1:
        raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={p}, q={q}")
    return (p, q, a, b)


def _quiver_type_before(ranks, degrees):
    """QuiverNumericalType's checks written out plainly, with the messages they have always had."""
    ranks = tuple(_require_int_before(r, "rank") for r in ranks)
    degrees = tuple(_require_int_before(d, "degree") for d in degrees)
    if len(ranks) != len(degrees):
        raise ValueError(f"rank/degree length mismatch: {len(ranks)} vs {len(degrees)}")
    if any(r < 0 for r in ranks):
        raise ValueError(f"vertex ranks must be non-negative, got {ranks}")
    if sum(ranks) < 1:
        raise ValueError("total rank must be at least 1")
    return (ranks, degrees)


def _typed(value):
    """value with the exact type of every leaf, so 1, True and _Int(1) differ."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return type(value), value


def _outcome(build, args):
    try:
        return "built", _typed(tuple(build(*args)))
    except (TypeError, ValueError) as error:
        return type(error), str(error)


@pytest.mark.parametrize(
    "args",
    [
        (1, 1, 0, 0), (2, 3, -5, 10**30), (_Int(2), 1, 0, _Int(-1)),
        (True, 1, 0, 0), (1, 1, False, 0), (1.0, 1, 0, 0), (1, 1, 0, 0.5), ("1", 1, 0, 0),
        (0, 1, 0, 0), (1, 0, 0, 0), (1, -2, 0, 0), (-1, -1, 0, 0), (_Int(0), 1, 0, 0),
    ],
)
def test_pair_type_constructor_keeps_its_checks(args):
    assert _outcome(HitchinPairType, args) == _outcome(_pair_type_before, args)


@pytest.mark.parametrize(
    "args",
    [
        ((1, 1), (1, 0)), ([1, 0, 2], [0, 0, -3]), ((_Int(1), 0), (0, _Int(2))), ((3,), (10**30,)),
        ((True, 1), (0, 0)), ((1, 1), (0, False)), ((1.0, 1), (0, 0)), ((1, 1), (0.5, 0)),
        ((1,), (1, 0)), ((1, 1), (0,)), ((), ()), ((), (1,)), ((0, 0), (1, 0)), ((0,), (0,)),
        ((-1, 2), (0, 0)), ((-1,), (0,)), ((_Int(-1), 2), (0, 0)), ((1, 2), None),
    ],
)
def test_quiver_type_constructor_keeps_its_checks(args):
    assert _outcome(QuiverNumericalType, args) == _outcome(_quiver_type_before, args)


def test_values_built_from_valid_ones_equal_their_checked_forms():
    rng = SplitMix64(71)
    for _ in range(200):
        t = _random_pair_type(rng)
        alpha = ParameterVector(tuple(rng.rational(4) for _ in range(rng.randint(1, 4))))
        shift = rng.rational(6) if rng.randint(0, 1) else rng.randint(-6, 6)
        for built, checked in (
            (t.dual(), HitchinPairType(t.q, t.p, t.b, t.a)),
            (upq_quiver_type(t), QuiverNumericalType([t.p, t.q], [t.a, t.b])),
            (upq_parameter_vector(shift), ParameterVector([shift, 0])),
            (alpha.shifted(shift), ParameterVector([v + shift for v in alpha])),
        ):
            assert type(built) is type(checked) and _typed(tuple(built)) == _typed(tuple(checked))
    assert upq_parameter_vector("-3/6") == (Fraction(-1, 2), 0)
    with pytest.raises(TypeError, match="floating point"):
        upq_parameter_vector(0.5)
    with pytest.raises(TypeError, match="floating point"):
        ParameterVector.of(1).shifted(0.5)


def test_parameter_vector_is_a_validated_tuple():
    alpha = ParameterVector.of(1, 0)
    assert isinstance(alpha, tuple) and len(alpha) == 2 and alpha.values == (1, 0)
    assert alpha == (Fraction(1), Fraction(0)) and hash(alpha) == hash((1, 0))
    assert all(type(v) is Fraction for v in alpha) and type(alpha.values) is tuple
    assert ParameterVector(["1/2", 3]) == (Fraction(1, 2), 3)
    assert pickle.loads(pickle.dumps(alpha)) == alpha and type(copy.copy(alpha)) is ParameterVector
    assert eval(repr(alpha), {"ParameterVector": ParameterVector, "Fraction": Fraction}) == alpha
    forged = tuple.__new__(ParameterVector, (0.5,))
    with pytest.raises(TypeError, match="floating point"):
        pickle.loads(pickle.dumps(forged))


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


# a 5001-digit value: past the default int-to-str digit limit, so str() of it raises
_BIG = 10**5000
_PAST_LIMIT = f"an integer of more than {getattr(sys, 'get_int_max_str_digits', lambda: 0)()} digits"
_INFEASIBLE = "; use BoundInterval.infeasible() for empty intervals"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "call, small, shown, big, message",
    [
        (lambda v: slope(v, 0), 0, ("0",), -_BIG, "undefined slope: rank must be >= 1, got {}"),
        (lambda v: QuiverNumericalType((1, v), (0, 0)), -1, ("-1",), -_BIG, "vertex ranks must be non-negative, got (1, {})"),
        (lambda v: QuiverNumericalType((v,), (0,)), -2, ("-2",), -_BIG, "vertex ranks must be non-negative, got ({},)"),
        (lambda v: GeometryContext(v, 0), -1, ("-1",), -_BIG, "genus must be non-negative, got {}"),
        (lambda v: GeometryContext(v, 0, canonical=True), 2, ("2",), _BIG,
         "canonical twist requires twist_degree = 2*genus - 2 = {}, got 0"),
        (lambda v: GeometryContext(2, v, canonical=True), 3, ("3",), _BIG,
         "canonical twist requires twist_degree = 2*genus - 2 = 2, got {}"),
        (lambda v: BoundInterval.closed(v, 0), Fraction(1, 2), ("1/2",), Fraction(1, _BIG) + 1,
         "lower bound {} exceeds upper bound 0" + _INFEASIBLE),
        (lambda v: BoundInterval.closed(0, v), -1, ("-1",), -_BIG, "lower bound 0 exceeds upper bound {}" + _INFEASIBLE),
        (lambda v: HiggsRankPair(v + 1, 0).validate_for(HitchinPairType(v, v, 0, 0)), 1, ("2", "1", "1", "1"), _BIG,
         "Higgs field ranks {},0 out of range for type ({},{},0,0): each must be <= min(p,q) = {}"),
    ],
    ids=["slope", "quiver_ranks", "quiver_one_rank", "genus", "canonical_genus", "canonical_twist_degree",
         "bound_lower", "bound_upper", "higgs_ranks_cap"],
)
def test_a_refused_number_past_the_digit_limit_is_named_by_the_limit(call, small, shown, big, message):
    # a short value keeps the message it always had; one past the limit is named by it, not by str()'s error
    # shown holds the small value's fills of the message's holes; past the limit each hole is the limit
    for value, fills in ((small, shown), (big, [_PAST_LIMIT] * len(shown))):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message.format(*fills)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "call, small, shown, big, error, message",
    [
        (lambda v: slope(v, 1), Fraction(1, 3), "Fraction(1, 3)", Fraction(_BIG, 3), TypeError,
         "rank must be an integer, got {}"),
        (lambda v: HitchinPairType(1, 1, v, 0), Fraction(1, 3), "Fraction(1, 3)", Fraction(_BIG, 3), TypeError,
         "a must be an integer, got {}"),
        (lambda v: GeometryContext(v, 0), "2", "'2'", Fraction(_BIG, 3), TypeError, "genus must be an integer, got {}"),
        (lambda v: QuiverNumericalType((v,), (1,)), 1.0, "1.0", Fraction(_BIG, 3), TypeError,
         "rank must be an integer, got {}"),
        (as_rational, [1], "[1]", [_BIG], TypeError, "cannot interpret {} as a rational"),
        (lambda v: BoundInterval.closed(0, 1, v), "iv", "'iv'", _BIG, ValueError,
         "regime_label must be one of 'i', 'ii', 'iii', got {}"),
    ],
    ids=["slope", "pair_type", "geometry", "quiver_type", "as_rational", "regime_label"],
)
def test_a_refused_value_past_the_digit_limit_keeps_its_error(call, small, shown, big, error, message):
    # the messages echo the value's repr, which raises ValueError past the limit: the limit is named instead
    for value, fill in ((small, shown), (big, _PAST_LIMIT)):
        with pytest.raises(error) as info:
            call(value)
        assert str(info.value) == message.format(fill)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "call",
    [lambda: int("9" * 5001), lambda: str(_BIG), lambda: b"%d" % _BIG],
    ids=["int_of_text", "str_of_int", "bytes_format_of_int"],
)
def test_the_interpreters_digit_limit_error_is_recognised(call):
    # parse_rational reads with int(), and the reports print with str() and bytes %: each interpreter words it alike
    with pytest.raises(ValueError) as info:
        call()
    assert _exceeds_digit_limit(info.value), str(info.value)


def _direct_fraction_pairs() -> list[tuple[int, int]]:
    """Seeded (num, den) pairs with den > 0: zero, negative numerators, den = 1, shared factors, 60-digit values."""
    rng = SplitMix64(149)

    def sixty_digits() -> int:
        a, b, c, d = rng.draws(4)
        return 10**59 + (a << 192 | b << 128 | c << 64 | d) % (9 * 10**59)

    pairs = [(0, 1), (0, 12), (1, 1), (-1, 1), (6, 4), (-6, 4), (12, 18), (-7, 7)]
    for _ in range(150):
        num, den, factor = rng.randint(-500, 500), rng.randint(1, 500), rng.randint(2, 60)
        pairs += [(num, den), (-abs(num) - 1, den), (num, 1), (num * factor, den * factor)]
        big_num, big_den, big_factor = sixty_digits(), sixty_digits(), sixty_digits()
        pairs += [
            (big_num, big_den),
            (-big_num, big_den),
            (-big_num, 1),
            (big_num * big_factor, big_den * big_factor),
            (num * big_factor, den * big_factor),
        ]
    return pairs


def test_direct_fraction_is_the_stdlib_fraction():
    # _fraction sets Fraction's private slots, so each supported Python must build what Fraction(num, den) builds
    pairs = _direct_fraction_pairs()
    others = [Fraction(3, -4), Fraction(0), Fraction(5), *(Fraction(n, d) for n, d in pairs[::7])]
    for index, (num, den) in enumerate(pairs):
        fast, slow = _fraction(num, den), Fraction(num, den)
        assert type(fast) is Fraction, (num, den)
        assert fast.as_integer_ratio() == slow.as_integer_ratio(), (num, den)
        assert type(fast.numerator) is int and type(fast.denominator) is int
        assert fast == slow and hash(fast) == hash(slow), (num, den)
        assert (str(fast), repr(fast), format_rational(fast)) == (str(slow), repr(slow), format_rational(slow))
        for twin in (pickle.loads(pickle.dumps(fast)), copy.copy(fast), copy.deepcopy(fast)):
            assert type(twin) is Fraction and twin.as_integer_ratio() == slow.as_integer_ratio(), (num, den)
        other = others[index % len(others)]
        results = [fast + other, other + fast, fast - other, other - fast, fast * other, other * fast]
        expected = [slow + other, other + slow, slow - other, other - slow, slow * other, other * slow]
        if other:
            results.append(fast / other)
            expected.append(slow / other)
        if slow:
            results.append(other / fast)
            expected.append(other / slow)
        assert [r.as_integer_ratio() for r in results] == [e.as_integer_ratio() for e in expected], (num, den, other)
