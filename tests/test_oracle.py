"""The brute-force oracles themselves, and the selftest property driver."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    HitchinPairType,
    Wall,
    WallWitness,
    alpha_slope_upq,
    brute_force_walls,
    enumerate_walls,
    envelope_toledo_bounds,
    format_rational,
    property_driver,
    required_degree_bound,
    toledo_bounds,
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


def test_brute_force_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="positive"):
        brute_force_walls(HitchinPairType(1, 1, 1, 0), (0, 1), 0)


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


def test_splitmix64_randint_bounds_and_determinism():
    a, b = SplitMix64(42), SplitMix64(42)
    draws_a = [a.randint(-5, 7) for _ in range(500)]
    draws_b = [b.randint(-5, 7) for _ in range(500)]
    assert draws_a == draws_b
    assert all(-5 <= d <= 7 for d in draws_a)
    with pytest.raises(ValueError):
        a.randint(3, 2)


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


def test_property_driver_jobs_do_not_change_the_report():
    assert property_driver(seed=3, trials=30, jobs=1) == property_driver(seed=3, trials=30, jobs=4)


def test_property_driver_batches_keep_draw_order_and_trial_numbers(monkeypatch):
    def draw(rng):
        return {"value": rng.randint(0, 99)}

    def check(case):
        return "multiple of 7" if case["value"] % 7 == 0 else None

    monkeypatch.setattr(oracle, "_SUITES", (("first", draw, check), ("second", draw, check)))
    trials = 2 * oracle._CASE_BATCH + 5
    rng = SplitMix64(11)
    expected = []
    for _ in range(2):
        values = [draw(rng)["value"] for _ in range(trials)]
        expected.append([{"trial": i, "reason": "multiple of 7", "value": v}
                         for i, v in enumerate(values) if v % 7 == 0])
    report = property_driver(seed=11, trials=trials)
    assert [suite["failures"] for suite in report["suites"]] == expected
    assert max(f["trial"] for f in expected[1]) >= 2 * oracle._CASE_BATCH
    for batch in (1, 7, trials):
        monkeypatch.setattr(oracle, "_CASE_BATCH", batch)
        assert property_driver(seed=11, trials=trials, jobs=2) == report


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
# _make_tau_gap_case calls toledo until a case meets the tau bound, so that suite is broken
# through slope: a gap of 1000 (q - p) is on the wrong side of +-deg K for every p != q.
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
    ("tau_bound_implies_slope_gap", "slope", lambda r, d: Fraction(-1000 * r),
     "tau bound did not force the slope-gap condition"),
    ("envelope_identity", "envelope_toledo_bounds", lambda p, q, deg_l, alpha: BoundInterval(None, None),
     "regime formulas disagree with the rank scan"),
]


@pytest.mark.parametrize(
    "suite, name, broken, reason", _BROKEN_SUITES, ids=[f"{s}-{n}" for s, n, *_ in _BROKEN_SUITES]
)
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
    main(["selftest", "--seed", str(seed), "--trials", str(trials)])
    printed = json.loads(capsys.readouterr().out)
    assert printed["all_passed"] is False
    assert printed["suites"] == report["suites"]


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
