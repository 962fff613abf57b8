"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go;
without -s they still appear for any failing criterion.  Every comparison is
exact rational equality (zero tolerance); the only floats here are the
wall-clock budgets, which never touch engine arithmetic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from upqstab import (
    HitchinPairType,
    Wall,
    WallWitness,
    brute_force_walls,
    enumerate_walls,
    envelope_toledo_bounds,
    irreducibility_certificate,
    property_driver,
    required_degree_bound,
    toledo_bounds,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number}: {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _rank_pairs_up_to_total(total: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(1, total) for q in range(1, total) if p + q <= total]


@pytest.fixture(scope="module")
def criterion_1_run() -> tuple[int, int, float]:
    """(instances, mismatches, seconds) of wall enumeration against brute force."""
    interval = (Fraction(-6), Fraction(6))
    started = time.monotonic()
    instances = mismatches = 0
    for p, q in _rank_pairs_up_to_total(5):
        for a in range(-3, 4):
            for b in range(-3, 4):
                t = HitchinPairType(p, q, a, b)
                bound = max(1, required_degree_bound(t, interval))
                if enumerate_walls(t, interval) != brute_force_walls(t, interval, bound):
                    mismatches += 1
                instances += 1
    return instances, mismatches, time.monotonic() - started


def test_criterion_1_wall_enumeration_matches_oracle(criterion_1_run):
    instances, mismatches, _ = criterion_1_run
    _criterion(
        1,
        "wall enumeration equals brute force (p+q<=5, |a|,|b|<=3, [-6,6])",
        mismatches == 0 and instances == 490,
        f"{instances} instances, {mismatches} mismatches",
    )


def test_criterion_1_wall_enumeration_time_budget(criterion_1_run):
    # apart from the verdict, so a slow or traced run reports its time alone
    instances, _, elapsed = criterion_1_run
    _criterion(
        1, "wall enumeration against brute force within 10 s", elapsed < 10.0, f"{instances} instances, {elapsed:.2f}s"
    )


def test_criterion_2_canonical_instance():
    walls = enumerate_walls(HitchinPairType(1, 1, 1, 0), (-2, 2))
    expected = [
        Wall(Fraction(-1), (WallWitness(0, 1, 0), WallWitness(1, 0, 1))),
        Wall(Fraction(1), (WallWitness(0, 1, 1), WallWitness(1, 0, 0))),
    ]
    _criterion(2, "type (1,1,1,0) on [-2,2] has walls exactly {-1, 1}", walls == expected)


def _alpha_grid(deg_l: int) -> list[Fraction]:
    # 41 evenly spaced rationals covering [-deg_l - 2, deg_l + 2]
    span = deg_l + 2
    return [Fraction(-span) + k * Fraction(span, 20) for k in range(41)]


def test_criterion_3_envelope_identity_on_grid():
    started = time.monotonic()
    checked = failures = 0
    for p in range(1, 9):
        for q in range(1, 9):
            for deg_l in range(0, 5):
                for alpha in _alpha_grid(deg_l):
                    closed_form = toledo_bounds(p, q, deg_l, alpha)
                    scanned = envelope_toledo_bounds(p, q, deg_l, alpha)
                    if (closed_form.lower, closed_form.upper) != (scanned.lower, scanned.upper):
                        failures += 1
                    checked += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and checked == 8 * 8 * 5 * 41 and elapsed < 5.0
    _criterion(
        3,
        "rank-free bounds equal the rank-scan envelope on the 41-point grid",
        ok,
        f"{checked} points, {failures} failures, {elapsed:.2f}s",
    )


def test_criterion_4_regime_continuity():
    failures = 0
    for p in range(1, 9):
        for q in range(1, 9):
            m = min(p, q)
            skew = Fraction(abs(p - q), p + q)
            weight = Fraction(2 * p * q, p + q)
            for deg_l in range(0, 5):
                low, high = Fraction(-deg_l), Fraction(deg_l)
                # independent evaluation of each regime formula at the joints
                lower_i, upper_i = m * (-low * skew - deg_l), -low * weight
                lower_ii_low, upper_ii_low = m * (-low * skew - deg_l), m * (deg_l - low * skew)
                lower_ii_high, upper_ii_high = m * (-high * skew - deg_l), m * (deg_l - high * skew)
                lower_iii, upper_iii = -high * weight, m * (deg_l - high * skew)
                if (lower_i, upper_i) != (lower_ii_low, upper_ii_low):
                    failures += 1
                if (lower_iii, upper_iii) != (lower_ii_high, upper_ii_high):
                    failures += 1
                # and the implementation agrees with both joints
                at_low = toledo_bounds(p, q, deg_l, low)
                at_high = toledo_bounds(p, q, deg_l, high)
                if (at_low.lower, at_low.upper) != (lower_i, upper_i):
                    failures += 1
                if (at_high.lower, at_high.upper) != (lower_iii, upper_iii):
                    failures += 1
    _criterion(4, "adjacent regime formulas agree exactly at alpha = +-deg(L)", failures == 0)


def test_criterion_5_alpha_zero_specialization():
    failures = 0
    for p in range(1, 9):
        for q in range(1, 9):
            for deg_l in range(0, 5):
                box = toledo_bounds(p, q, deg_l, 0)
                if (box.lower, box.upper) != (-min(p, q) * deg_l, min(p, q) * deg_l):
                    failures += 1
    _criterion(5, "alpha = 0 bounds reduce to |tau| <= min(p,q) deg(L)", failures == 0)


def test_criterion_6_certificates():
    positive = irreducibility_certificate(HitchinPairType(1, 1, -1, 0), 2, 0)
    degenerate = irreducibility_certificate(HitchinPairType(1, 1, 0, 0), 2, 0)
    ok = (
        positive.closure_irreducible
        and positive.fully_irreducible
        and not degenerate.closure_irreducible
    )
    for alpha in (0, Fraction(1, 2), -2, 5):
        over = irreducibility_certificate(HitchinPairType(1, 1, 3, 0), 2, alpha)
        ok = ok and not over.tau_bound_ok
    _criterion(6, "irreducibility certificates on the three reference types", ok)


def test_criteria_7_and_8_property_driver_1000():
    report = property_driver(seed=0, trials=1000)
    by_name = {suite["name"]: suite for suite in report["suites"]}
    gap = by_name["tau_bound_implies_slope_gap"]
    _criterion(
        7,
        "1000 conditioned random types satisfy the strict slope-gap condition",
        gap["passed"] and gap["cases"] == 1000,
        f"{len(gap['failures'])} counterexamples",
    )
    invariants_ok = all(
        by_name[name]["passed"] and by_name[name]["cases"] == 1000
        for name in ("translation_invariance", "toledo_duality", "bounds_duality")
    )
    _criterion(
        8,
        "1000 random instances: translation invariance and duality identities",
        invariants_ok and report["all_passed"],
    )


def _run_cli(args: list[str]) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "upqstab", *args],
        capture_output=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_criterion_9_cli_determinism():
    walls_args = ["walls", "--type", "2,1,1,0", "--interval", "-3,3"]
    selftest_args = ["selftest", "--seed", "0", "--trials", "120"]
    ok = True
    for args in (walls_args, selftest_args):
        runs = [_run_cli(args) for _ in range(3)]
        ok = ok and runs[0] == runs[1] == runs[2]
        ok = ok and json.loads(runs[0])  # stdout is a single JSON document
    _criterion(9, "walls and selftest output is byte-identical across repeated runs", bool(ok))
