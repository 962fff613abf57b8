"""The brute-force oracles themselves, and the selftest property driver."""

from __future__ import annotations

import copy
import inspect
import itertools
import json
import operator
import pickle
import sys
from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    Wall,
    WallWitness,
    alpha_slope_quiver,
    alpha_slope_upq,
    brute_force_walls,
    compare_at,
    enumerate_walls,
    envelope_toledo_bounds,
    format_rational,
    property_driver,
    required_degree_bound,
    slope,
    toledo,
    toledo_bounds,
    upq_parameter_vector,
    upq_quiver_type,
)
from upqstab import oracle
from upqstab.cli import main
from upqstab.oracle import SplitMix64


def test_brute_force_canonical_instance():
    walls = brute_force_walls(HitchinPairType(1, 1, 1, 0), (-2, 2), 5)
    assert [w.alpha for w in walls] == [-1, 1]
    assert walls[0].witnesses == (WallWitness(0, 1, 0), WallWitness(1, 0, 1))
    assert walls[1].witnesses == (WallWitness(0, 1, 1), WallWitness(1, 0, 0))


def test_brute_force_degenerate_point_off_wall():
    assert brute_force_walls(HitchinPairType(1, 1, 1, 0), (Fraction(1, 3), Fraction(1, 3)), 5) == []


def test_brute_force_refuses_insufficient_bound():
    t = HitchinPairType(1, 1, 1, 0)
    assert required_degree_bound(t, (-6, 6)) == 3
    with pytest.raises(ValueError, match="at least 3"):
        brute_force_walls(t, (-6, 6), 2)
    # exactly the required bound is accepted
    assert brute_force_walls(t, (-6, 6), 3) == enumerate_walls(t, (-6, 6))


def test_required_degree_bound_rejects_a_reversed_interval():
    with pytest.raises(ValueError, match="empty interval direction"):
        required_degree_bound(HitchinPairType(1, 1, 1, 0), (2, -2))


def test_brute_force_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="non-negative"):
        brute_force_walls(HitchinPairType(1, 1, 1, 0), (0, 1), -1)


def test_brute_force_accepts_a_bound_of_zero():
    # the wall alpha = 0 of (1,1,0,0) has only degree-0 witnesses
    t = HitchinPairType(1, 1, 0, 0)
    assert required_degree_bound(t, (0, 0)) == 0
    walls = brute_force_walls(t, (0, 0), 0)
    assert walls == enumerate_walls(t, (0, 0)) == [Wall(Fraction(0), (WallWitness(0, 1, 0), WallWitness(1, 0, 0)))]
    # an interval with no reachable witness needs a bound of 0 and has no wall
    off_wall = (Fraction(1, 3), Fraction(1, 3))
    assert required_degree_bound(t, off_wall) == 0
    assert brute_force_walls(t, off_wall, 0) == enumerate_walls(t, off_wall) == []


def test_brute_force_matches_enumerator_example():
    t = HitchinPairType(2, 1, 1, 0)
    oracle_walls = brute_force_walls(t, (0, 1), 6)
    assert oracle_walls == enumerate_walls(t, (0, 1))
    assert [w.alpha for w in oracle_walls] == [1]


def test_oracle_scan_is_insensitive_to_oversized_bounds():
    t = HitchinPairType(1, 2, -1, 2)
    assert brute_force_walls(t, (-3, 3), 10) == brute_force_walls(t, (-3, 3), 60)


def test_envelope_two_element_scan():
    box = envelope_toledo_bounds(1, 1, 2, 0)
    assert (box.lower, box.upper) == (-2, 2)


def test_envelope_boundary_example():
    assert envelope_toledo_bounds(2, 1, 1, -1).upper == Fraction(4, 3)


def test_envelope_collapses_without_twist_or_parameter():
    box = envelope_toledo_bounds(3, 2, 0, 0)
    assert (box.lower, box.upper) == (0, 0)


def test_envelope_validates_inputs():
    with pytest.raises(ValueError):
        envelope_toledo_bounds(1, 1, -1, 0)
    with pytest.raises(ValueError):
        envelope_toledo_bounds(0, 1, 1, 0)


def test_envelope_equals_regime_bounds_spotwise():
    rng = SplitMix64(211)
    for _ in range(300):
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        deg_l = rng.randint(0, 4)
        alpha = Fraction(rng.randint(-9 * (deg_l + 2), 9 * (deg_l + 2)), 9)
        closed_form = toledo_bounds(p, q, deg_l, alpha)
        scanned = envelope_toledo_bounds(p, q, deg_l, alpha)
        assert (closed_form.lower, closed_form.upper) == (scanned.lower, scanned.upper)


def test_splitmix64_reference_vector():
    # first outputs for seed 0 of the public splitmix64 algorithm
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


class _ScalarSplitMix64:
    """The reference stream: the scalar splitmix64 step, one output per draw, as `randint` computed it unbatched."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self._state = seed & self._MASK

    def next_u64(self):
        return self.randint(0, self._MASK)

    def randint(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        # the splitmix64 step
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)


_SEEDS = (0, 1, 2**64 - 1, 2**64 + 5)
_BATCH = 256


@pytest.mark.parametrize("seed", _SEEDS)
def test_batched_stream_equals_the_scalar_step(seed):
    batched, scalar = SplitMix64(seed), _ScalarSplitMix64(seed)
    draws = 3 * _BATCH + 1
    assert [batched.next_u64() for _ in range(draws)] == [scalar.next_u64() for _ in range(draws)]


def _mixed_draws():
    """(lo, hi) spans for randint, None for next_u64: lo == hi, small, near and past 2^64, negative ends."""
    shapes = itertools.cycle([
        (5, 5), (-3, 4), None, (0, 1), (-(2**63), 2**63 - 1), (0, 2**64 - 1), (0, 2**64), (-7, 2**70),
        None, (10**20, 10**20 + 3), (-(2**65), -(2**65)), (1, 6), (-(2**80), 2**80),
    ])
    return list(itertools.islice(shapes, 4 * _BATCH + 3))


@pytest.mark.parametrize("seed", _SEEDS)
def test_randint_and_next_u64_interleaved_follow_the_scalar_stream(seed):
    batched, scalar = SplitMix64(seed), _ScalarSplitMix64(seed)
    for span in _mixed_draws():
        if span is None:
            assert batched.next_u64() == scalar.next_u64()
        else:
            drawn = batched.randint(*span)
            assert drawn == scalar.randint(*span) and span[0] <= drawn <= span[1]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("taken", [0, 1, 100, _BATCH - 1, _BATCH, _BATCH + 44])
def test_a_copy_or_pickle_taken_mid_batch_goes_on_with_the_same_stream(seed, taken):
    gen, scalar = SplitMix64(seed), _ScalarSplitMix64(seed)
    for _ in range(taken):
        assert gen.randint(-9, 9) == scalar.randint(-9, 9)
    copies = [copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))]
    rest = [scalar.next_u64() for _ in range(_BATCH + 10)]
    # the original runs on first; its refills must not reach its copies
    assert [gen.next_u64() for _ in rest] == rest
    for other in copies:
        assert type(other) is SplitMix64
        assert [other.next_u64() for _ in rest] == rest


_TAKES = (0, 1, 255, 256, 257, 769)


def _takes(gen):
    """Each batch take of _TAKES, each followed by a randint and a next_u64."""
    out = []
    for k in _TAKES:
        out += [gen.draws(k), gen.randint(-9, 9), gen.next_u64()]
    return out


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("taken", [0, 1, 100, _BATCH - 1, _BATCH, _BATCH + 44])
def test_batch_takes_follow_the_scalar_stream_across_a_copy_or_pickle(seed, taken):
    gen, scalar = SplitMix64(seed), _ScalarSplitMix64(seed)
    assert gen.draws(taken) == tuple(scalar.next_u64() for _ in range(taken))
    copies = [copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))]
    expected = []
    for k in _TAKES:
        expected += [tuple(scalar.next_u64() for _ in range(k)), scalar.randint(-9, 9), scalar.next_u64()]
    # the original runs on first; its refills must not reach its copies
    assert _takes(gen) == expected
    for other in copies:
        assert _takes(other) == expected


def test_splitmix64_randint_bounds_and_determinism():
    a, b = SplitMix64(42), SplitMix64(42)
    draws_a = [a.randint(-5, 7) for _ in range(500)]
    draws_b = [b.randint(-5, 7) for _ in range(500)]
    assert draws_a == draws_b
    assert all(-5 <= d <= 7 for d in draws_a)
    with pytest.raises(ValueError):
        a.randint(3, 2)


def test_drawn_records_equal_their_checked_constructors():
    # the case makers build records drawn valid with tuple.__new__; the checked constructors agree
    rng = SplitMix64(2027)
    for _ in range(2000):
        case = oracle._make_translation_case(rng)
        for key in ("sub", "whole"):
            drawn = case[key]
            checked = QuiverNumericalType(*drawn)
            assert type(drawn) is QuiverNumericalType and drawn == checked
            assert type(drawn.ranks) is type(drawn.degrees) is tuple
        alpha = case["alpha"]
        assert type(alpha) is ParameterVector and alpha == ParameterVector(alpha)
        assert all(type(value) is Fraction for value in alpha) and len(alpha) == len(case["sub"].ranks)
        for drawn in (oracle._random_pair_type(rng), oracle._make_tau_gap_case(rng)["type"]):
            assert type(drawn) is HitchinPairType and drawn == HitchinPairType(*drawn)


# The fixed-count makers as they were written on randint, one call per value, kept as the
# reference for the batch takes and the rational memo in oracle.
def _randint_quiver_type(rng, n):
    ranks = [rng.randint(0, 3) for _ in range(n)]
    if sum(ranks) == 0:
        ranks[rng.randint(0, n - 1)] = rng.randint(1, 3)
    return QuiverNumericalType(ranks, [rng.randint(-5, 5) for _ in range(n)])


def _randint_pair_type(rng):
    return HitchinPairType(rng.randint(1, 6), rng.randint(1, 6), rng.randint(-8, 8), rng.randint(-8, 8))


def _randint_translation_case(rng):
    n = rng.randint(2, 4)
    return {
        "sub": _randint_quiver_type(rng, n),
        "whole": _randint_quiver_type(rng, n),
        "alpha": ParameterVector([rng.rational(4) for _ in range(n)]),
        "shift": rng.rational(5),
    }


def _randint_bounds_duality_case(rng):
    deg_l = rng.randint(0, 4)
    return {
        "p": rng.randint(1, 8),
        "q": rng.randint(1, 8),
        "deg_l": deg_l,
        "alpha": Fraction(rng.randint(-12 * (deg_l + 2), 12 * (deg_l + 2)), 12),
    }


# the tau-gap maker draws with randint itself
_RANDINT_MAKERS = {
    "translation_invariance": _randint_translation_case,
    "upq_specialization": lambda rng: {"type": _randint_pair_type(rng), "alpha": rng.rational(6)},
    "toledo_duality": lambda rng: {"type": _randint_pair_type(rng)},
    "bounds_duality": _randint_bounds_duality_case,
    "tau_bound_implies_slope_gap": oracle._make_tau_gap_case,
    "envelope_identity": _randint_bounds_duality_case,
}


@pytest.mark.parametrize("seed", _SEEDS)
def test_the_makers_draw_the_cases_of_their_randint_forms(seed):
    # the suites in the driver's order, 300 trials each, so takes cross many batch ends
    drawn, reference = SplitMix64(seed), SplitMix64(seed)
    for name, make_case, _ in oracle._SUITES:
        for _ in range(300):
            case, expected = make_case(drawn), _RANDINT_MAKERS[name](reference)
            assert case == expected and list(case) == list(expected), (name, case, expected)
            assert [type(value) for value in case.values()] == [type(value) for value in expected.values()]
    assert drawn.next_u64() == reference.next_u64()


class _Scripted:
    """A stand-in rng that hands out the given draws in order, each inside its span."""

    def __init__(self, draws):
        self.draws = list(draws)

    def randint(self, lo, hi):
        value = self.draws.pop(0)
        assert lo <= value <= hi
        return value


def test_the_integer_tau_gap_test_equals_the_toledo_bound_over_the_draw_grid():
    # each grid draw is followed by one the test accepts; a case that leaves it unread took the grid draw
    accepted_next = (1, 2, 5, 0, 0)
    for p, q, genus in itertools.product(range(1, 9), range(1, 9), range(2, 6)):
        if p == q:
            rng = _Scripted((p, q, *accepted_next))
            assert oracle._make_tau_gap_case(rng) == {"type": (1, 2, 0, 0), "genus": 5} and not rng.draws
            continue
        bound = min(p, q) * (2 * genus - 2)
        for a, b in itertools.product(range(-12, 13), repeat=2):
            rng = _Scripted((p, q, genus, a, b, *accepted_next))
            case = oracle._make_tau_gap_case(rng)
            taken = len(rng.draws) == len(accepted_next)
            assert taken == (abs(toledo(HitchinPairType(p, q, a, b))) <= bound), (p, q, genus, a, b)
            if taken:
                assert case == {"type": HitchinPairType(p, q, a, b), "genus": genus}


def test_property_driver_all_suites_pass():
    report = property_driver(seed=0, trials=60)
    assert report["all_passed"]
    names = [suite["name"] for suite in report["suites"]]
    assert names == [
        "translation_invariance",
        "upq_specialization",
        "toledo_duality",
        "bounds_duality",
        "tau_bound_implies_slope_gap",
        "envelope_identity",
    ]
    for suite in report["suites"]:
        assert suite["cases"] == 60 and suite["failures"] == [] and suite["passed"]


def test_property_driver_is_deterministic():
    first = property_driver(seed=0, trials=40)
    second = property_driver(seed=0, trials=40)
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_property_driver_keeps_draw_order_and_trial_numbers(monkeypatch):
    def draw(rng):
        return {"value": rng.randint(0, 99)}

    def check(case):
        return "multiple of 7" if case["value"] % 7 == 0 else None

    monkeypatch.setattr(oracle, "_SUITES", (("first", draw, check), ("second", draw, check)))
    trials = 300
    rng = SplitMix64(11)
    expected = []
    for _ in range(2):
        values = [draw(rng)["value"] for _ in range(trials)]
        expected.append([{"trial": i, "reason": "multiple of 7", "value": v}
                         for i, v in enumerate(values) if v % 7 == 0])
    report = property_driver(seed=11, trials=trials)
    assert [suite["failures"] for suite in report["suites"]] == expected
    # the second suite's trials count from 0 again while its draws go on from the first's
    assert expected[1] and expected[0] != expected[1]


def test_property_driver_takes_only_a_seed_and_a_trial_count():
    assert list(inspect.signature(property_driver).parameters) == ["seed", "trials"]


def test_ordered_map_stays_bound_for_the_tracer():
    # perfbench/tracing.py patches oracle.ordered_map by name; unpatched it maps inline, in order
    assert oracle.ordered_map(lambda x: -x, [3, 1, 2]) == [-3, -1, -2]


def _input_json(value):
    # the form a failure record gives a case input, spelled out apart from the driver
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return value
    return value.to_json()


def _replayed_cases(seed, trials):
    """Every suite's cases, drawn again in the driver's order from SplitMix64(seed)."""
    rng = SplitMix64(seed)
    return {name: [make_case(rng) for _ in range(trials)] for name, make_case, _ in oracle._SUITES}


# (suite, name patched in oracle, a replacement that breaks the suite's identity, the reason).
# _make_tau_gap_case tests the tau bound in integers and calls no patched name, so that suite
# is broken through its check's slope: a gap of 1000 (q - p) is on the wrong side of +-deg K
# for every p != q.
_BROKEN_SUITES = [
    ("translation_invariance", "alpha_slope_quiver", lambda e, alpha: Fraction(0),
     "slope shift identity broken on sub"),
    ("translation_invariance", "compare_at", lambda sub, whole, alpha: alpha,
     "comparison sign changed under translation"),
    ("upq_specialization", "alpha_slope_upq", lambda t, alpha: alpha_slope_upq(t, alpha) + 1,
     "scalar and quiver slopes disagree"),
    ("toledo_duality", "toledo", lambda t: Fraction(1), "toledo duality broken"),
    ("bounds_duality", "toledo_bounds", lambda p, q, deg_l, alpha: BoundInterval(Fraction(0), Fraction(p)),
     "bounds duality broken"),
    ("bounds_duality", "toledo_bounds", lambda p, q, deg_l, alpha: BoundInterval.infeasible(), "bounds infeasible"),
    ("tau_bound_implies_slope_gap", "slope", lambda r, d: Fraction(-1000 * r),
     "tau bound did not force the slope-gap condition"),
    ("envelope_identity", "envelope_toledo_bounds", lambda p, q, deg_l, alpha: BoundInterval(None, None),
     "regime formulas disagree with the rank scan"),
]


def _broken_ids(rows: list) -> list[str]:
    """suite-name per row, and the reason too when an earlier row patches that name for that suite."""
    ids = []
    for suite, name, _, reason in rows:
        ident = f"{suite}-{name}"
        ids.append(ident if ident not in ids else f"{ident}-{reason.replace(' ', '_')}")
    return ids


@pytest.mark.parametrize("suite, name, broken, reason", _BROKEN_SUITES, ids=_broken_ids(_BROKEN_SUITES))
def test_failures_carry_trial_reason_and_the_drawn_inputs(suite, name, broken, reason, monkeypatch, capsys):
    monkeypatch.setattr(oracle, name, broken)
    seed, trials = 5, 40
    report = property_driver(seed, trials)
    cases = _replayed_cases(seed, trials)
    failed = {s["name"]: s for s in report["suites"]}[suite]
    assert not failed["passed"] and not report["all_passed"]
    assert failed["failures"] and {f["reason"] for f in failed["failures"]} == {reason}
    # a patch may break other suites too; every failure of every suite has the same form
    for s in report["suites"]:
        for failure in s["failures"]:
            inputs = dict(failure)
            trial, why = inputs.pop("trial"), inputs.pop("reason")
            assert isinstance(why, str) and why
            assert inputs == {key: _input_json(value) for key, value in cases[s["name"]][trial].items()}
    # a failed suite exits 1, and the report is still written
    assert main(["selftest", "--seed", str(seed), "--trials", str(trials)]) == 1
    captured = capsys.readouterr()
    printed = json.loads(captured.out)
    assert printed["all_passed"] is False
    assert printed["suites"] == report["suites"]
    names = ", ".join(s["name"] for s in report["suites"] if not s["passed"])
    assert captured.err == f"upqstab: error: selftest suites failed: {names}\n"


# The six checks as they were written on Fractions, kept as the reference for the
# integer-pair forms in oracle.  They look their engine names up in this module, so a
# test that patches a name in oracle patches it here as well.
def _reference_translation_case(case: dict) -> str | None:
    shifted = case["alpha"].shifted(case["shift"])
    for key in ("sub", "whole"):
        e = case[key]
        if alpha_slope_quiver(e, shifted) != alpha_slope_quiver(e, case["alpha"]) + case["shift"]:
            return f"slope shift identity broken on {key}"
    if compare_at(case["sub"], case["whole"], shifted) != compare_at(
        case["sub"], case["whole"], case["alpha"]
    ):
        return "comparison sign changed under translation"
    return None


def _reference_specialization_case(case: dict) -> str | None:
    t, a = case["type"], case["alpha"]
    if alpha_slope_upq(t, a) != alpha_slope_quiver(upq_quiver_type(t), upq_parameter_vector(a)):
        return "scalar and quiver slopes disagree"
    return None


def _reference_toledo_duality_case(case: dict) -> str | None:
    t = case["type"]
    if toledo(t) != -toledo(t.dual()):
        return "toledo duality broken"
    return None


def _reference_bounds_duality_case(case: dict) -> str | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    direct = toledo_bounds(p, q, deg_l, a)
    mirrored = toledo_bounds(q, p, deg_l, -a)
    if mirrored.lower != -direct.upper or mirrored.upper != -direct.lower:
        return "bounds duality broken"
    return None


def _reference_tau_gap_case(case: dict) -> str | None:
    t, deg_k = case["type"], 2 * case["genus"] - 2
    gap = slope(t.p, t.a) - slope(t.q, t.b)
    ok = gap > -deg_k if t.q < t.p else gap < deg_k
    if not ok:
        return "tau bound did not force the slope-gap condition"
    return None


def _reference_envelope_case(case: dict) -> str | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    closed_form = toledo_bounds(p, q, deg_l, a)
    scanned = envelope_toledo_bounds(p, q, deg_l, a)
    if closed_form.lower != scanned.lower or closed_form.upper != scanned.upper:
        return "regime formulas disagree with the rank scan"
    return None


# (maker, check, its reference, the engine name whose values the check compares)
_REWRITTEN_CHECKS = {
    "translation_invariance": (oracle._make_translation_case, oracle._check_translation_case,
                               _reference_translation_case, "alpha_slope_quiver"),
    "upq_specialization": (oracle._make_specialization_case, oracle._check_specialization_case,
                           _reference_specialization_case, "alpha_slope_upq"),
    "toledo_duality": (oracle._make_toledo_duality_case, oracle._check_toledo_duality_case,
                       _reference_toledo_duality_case, "toledo"),
    "bounds_duality": (oracle._make_bounds_duality_case, oracle._check_bounds_duality_case,
                       _reference_bounds_duality_case, "toledo_bounds"),
    "tau_bound_implies_slope_gap": (oracle._make_tau_gap_case, oracle._check_tau_gap_case,
                                    _reference_tau_gap_case, "slope"),
    "envelope_identity": (oracle._make_bounds_duality_case, oracle._check_envelope_case,
                          _reference_envelope_case, "envelope_toledo_bounds"),
}


def _nudged(value):
    return value + Fraction(1, value.denominator + 1)


def _perturbed(true, form):
    """`true` with `form` applied to its value, or to both ends of a bound interval."""

    def patched(*args):
        value = true(*args)
        if isinstance(value, BoundInterval):
            return BoundInterval(form(value.lower), form(value.upper), value.regime_label)
        return form(value)

    return patched


@pytest.mark.parametrize("suite", _REWRITTEN_CHECKS)
def test_an_integer_pair_check_returns_what_its_fraction_form_returns(suite, monkeypatch):
    # on the engine's true values, then on each value plus 1/(den + 1), then on its negation
    make_case, check, reference, name = _REWRITTEN_CHECKS[suite]
    rng = SplitMix64(3203)
    cases = [make_case(rng) for _ in range(2000)]
    true = getattr(oracle, name)
    outcomes = set()
    for form in (None, _nudged, operator.neg):
        if form is not None:
            patched = _perturbed(true, form)
            monkeypatch.setattr(oracle, name, patched)
            monkeypatch.setitem(globals(), name, patched)
        for case in cases:
            reason = check(case)
            assert reason == reference(case), (suite, form, case)
            outcomes.add(reason)
    # the perturbed values break the identity on some cases, so both answers are compared
    assert None in outcomes and len(outcomes) > 1


def test_the_envelope_check_on_missing_ends_returns_what_its_fraction_form_returns(monkeypatch):
    # a missing end equals only a missing end, so an interval with a None end fails against one with a value
    case = {"p": 2, "q": 3, "deg_l": 1, "alpha": Fraction(1, 2)}
    ends = (None, Fraction(0), Fraction(-3, 2))
    boxes = [BoundInterval(lower, upper) for lower in ends for upper in ends]
    outcomes = set()
    for closed_form, scanned in itertools.product(boxes, repeat=2):
        for namespace in (oracle.__dict__, globals()):
            monkeypatch.setitem(namespace, "toledo_bounds", lambda *args: closed_form)
            monkeypatch.setitem(namespace, "envelope_toledo_bounds", lambda *args: scanned)
        reason = oracle._check_envelope_case(case)
        assert reason == _reference_envelope_case(case), (closed_form, scanned)
        assert (reason is None) == (closed_form == scanned)
        outcomes.add(reason)
    assert outcomes == {None, "regime formulas disagree with the rank scan"}


def test_property_driver_single_trial():
    report = property_driver(seed=9, trials=1)
    assert all(suite["cases"] == 1 for suite in report["suites"])


def test_property_driver_rejects_bad_trials():
    with pytest.raises(ValueError, match="trials"):
        property_driver(seed=0, trials=0)


def test_walls_are_value_objects():
    w1 = Wall(Fraction(1, 2), (WallWitness(1, 0, 0),))
    w2 = Wall(Fraction(1, 2), (WallWitness(1, 0, 0),))
    assert w1 == w2 and hash(w1) == hash(w2)


# a 5001-digit value: past the default int-to-str digit limit, so str() of it raises
_BIG = 10**5000
_PAST_LIMIT = f"an integer of more than {getattr(sys, 'get_int_max_str_digits', lambda: 0)()} digits"
_PAIR = HitchinPairType(1, 1, 1, 0)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "call, small, shown, big, message",
    [
        (lambda v: required_degree_bound(_PAIR, (v, 0)), Fraction(1, 3), ("1/3",), _BIG, "empty interval direction: lo={} > hi=0"),
        (lambda v: required_degree_bound(_PAIR, (0, v)), -2, ("-2",), Fraction(-1, _BIG),
         "empty interval direction: lo=0 > hi={}"),
        (lambda v: brute_force_walls(_PAIR, (0, 1), v), -1, ("-1",), -_BIG, "degree_bound must be non-negative, got {}"),
        # (1, 1, 1, 0) over [0, x] needs a bound of about x / 2
        (lambda v: brute_force_walls(_PAIR, (0, v), 0), 6, ("3",), _BIG,
         "degree_bound 0 is insufficient for this interval; completeness requires at least {}"),
        (lambda v: brute_force_walls(_PAIR, (0, 4 * v), v), 1, ("1", "2"), _BIG,
         "degree_bound {} is insufficient for this interval; completeness requires at least {}"),
        (lambda v: envelope_toledo_bounds(v, 1, 0, 0), 0, ("0",), -_BIG, "ranks must satisfy p >= 1 and q >= 1, got p={}, q=1"),
        (lambda v: envelope_toledo_bounds(1, v, 0, 0), -3, ("-3",), -_BIG,
         "ranks must satisfy p >= 1 and q >= 1, got p=1, q={}"),
        (lambda v: envelope_toledo_bounds(1, 1, v, 0), -1, ("-1",), -_BIG, "deg(L) must be non-negative, got {}"),
        (lambda v: property_driver(0, v), 0, ("0",), -_BIG, "trials must be >= 1, got {}"),
        (lambda v: SplitMix64(0).randint(v, 0), 1, ("1",), _BIG, "empty range [{}, 0]"),
    ],
    ids=["required_bound_lo", "required_bound_hi", "negative_bound", "insufficient_needed", "insufficient_bound",
         "envelope_p", "envelope_q", "envelope_deg_l", "driver_trials", "randint_range"],
)
def test_a_refused_number_past_the_digit_limit_is_named_by_the_limit(call, small, shown, big, message):
    # a short value keeps the message it always had; one past the limit is named by it, not by str()'s error
    # shown holds the small value's fills of the message's holes; past the limit each hole is the limit
    for value, fills in ((small, shown), (big, [_PAST_LIMIT] * len(shown))):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message.format(*fills)
