"""The integer-keyed wall kernel against independent brute-force rebuilds.

Walls are compared with `brute_force_walls` (a per-degree linear solve in
Fractions), chambers with a sweep over the brute-force walls, and the
Milnor-Wood filter with an explicit scan over degree splits a' + b' = d'.
Intervals are random rationals with denominators above 1, endpoints placed
exactly on walls, and degenerate lo == hi intervals on and off walls; the
filter also gets rational intervals inside (-2, 2), the only window where it
can drop witnesses (deg L = 0, min(p', q') |alpha| < 2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from upqstab import (
    Chamber,
    ChamberReport,
    GeometryContext,
    HitchinPairType,
    Wall,
    WallWitness,
    brute_force_walls,
    chamber_report,
    enumerate_walls,
    required_degree_bound,
    toledo,
    toledo_bounds,
    wall_alpha,
)
from upqstab.oracle import SplitMix64


def _random_type(rng: SplitMix64) -> HitchinPairType:
    return HitchinPairType(rng.randint(1, 4), rng.randint(1, 4), rng.randint(-6, 6), rng.randint(-6, 6))


def _random_wall_alpha(rng: SplitMix64, t: HitchinPairType) -> Fraction:
    """The wall of a random witness with a non-ambient rank ratio."""
    while True:
        p_sub, q_sub = rng.randint(0, t.p), rng.randint(0, t.q)
        if not 1 <= p_sub + q_sub <= t.total_rank - 1:
            continue
        alpha = wall_alpha(t, WallWitness(p_sub, q_sub, rng.randint(-8, 8)))
        if alpha is not None:
            return alpha


def _random_interval(rng: SplitMix64, t: HitchinPairType) -> tuple[Fraction, Fraction]:
    """A rational interval; a quarter of the cases put an end, or both, on a wall."""
    lo = rng.rational(4)
    hi = lo + Fraction(rng.randint(0, 40), rng.randint(1, 6))
    shape = rng.randint(0, 7)
    if shape == 0:
        lo = _random_wall_alpha(rng, t)
        hi = max(hi, lo)
    elif shape == 1:
        hi = _random_wall_alpha(rng, t)
        lo = min(lo, hi)
    elif shape == 2:
        lo = hi = _random_wall_alpha(rng, t)
    elif shape == 3:
        hi = lo
    return lo, hi


def _brute_walls(t: HitchinPairType, interval: tuple[Fraction, Fraction]) -> list[Wall]:
    return brute_force_walls(t, interval, max(1, required_degree_bound(t, interval)))


def _cases(seed: int, count: int):
    rng = SplitMix64(seed)
    for _ in range(count):
        t = _random_type(rng)
        yield t, _random_interval(rng, t)


def test_walls_match_brute_force_on_random_rational_intervals():
    shapes = {"on_wall_end": 0, "degenerate": 0, "non_integer_end": 0}
    for t, (lo, hi) in _cases(seed=2024, count=300):
        walls = enumerate_walls(t, (lo, hi))
        assert walls == _brute_walls(t, (lo, hi)), (t, lo, hi)
        for wall in walls:
            assert all(wall_alpha(t, w) == wall.alpha for w in wall.witnesses)
        alphas = {w.alpha for w in walls}
        shapes["on_wall_end"] += lo in alphas or hi in alphas
        shapes["degenerate"] += lo == hi
        shapes["non_integer_end"] += lo.denominator > 1 or hi.denominator > 1
    assert min(shapes.values()) >= 20, shapes


def _brute_chambers(alphas: list[Fraction], lo: Fraction, hi: Fraction) -> list[Chamber]:
    """Sweep left to right, closing a chamber at every wall strictly inside."""
    on_wall = set(alphas)
    if lo == hi:
        return [] if lo in on_wall else [Chamber(lo, hi, True, True)]
    chambers = []
    start, start_closed = lo, lo not in on_wall
    for alpha in sorted(on_wall):
        if lo < alpha < hi:
            chambers.append(Chamber(start, alpha, start_closed, False))
            start, start_closed = alpha, False
    chambers.append(Chamber(start, hi, start_closed, hi not in on_wall))
    return chambers


def test_chambers_match_a_brute_force_sweep():
    for t, (lo, hi) in _cases(seed=2025, count=200):
        walls = _brute_walls(t, (lo, hi))
        expected = ChamberReport(
            (lo, hi), tuple(walls), tuple(_brute_chambers([w.alpha for w in walls], lo, hi))
        )
        assert chamber_report(t, (lo, hi)) == expected, (t, lo, hi)


def _has_feasible_split(w: WallWitness, deg_l: int, alpha: Fraction) -> bool:
    """Scan every split a' + b' = d' for a Toledo invariant inside the bounds.

    A witness with a rank-0 side is a single bundle: its Toledo invariant is 0
    and the rank-free bounds do not apply, so it is kept.  Otherwise a
    feasible split has |tau'| <= max(|lower|, |upper|) and
    tau' = 2a' - 2p'd'/r', so |a'| <= |d'| + max(|lower|, |upper|) bounds the scan.
    """
    if w.p_sub == 0 or w.q_sub == 0:
        return True
    bounds = toledo_bounds(w.p_sub, w.q_sub, deg_l, alpha)
    if bounds.is_infeasible:
        return False
    reach = abs(w.d_sub) + math.ceil(max(abs(bounds.lower), abs(bounds.upper)))
    return any(
        bounds.contains(toledo(HitchinPairType(w.p_sub, w.q_sub, a_sub, w.d_sub - a_sub)))
        for a_sub in range(-reach, reach + 1)
    )


def _near_zero_interval(rng: SplitMix64) -> tuple[Fraction, Fraction]:
    """A rational interval inside (-2, 2), the only place deg L = 0 can drop witnesses."""
    lo, hi = sorted(Fraction(rng.randint(-11, 11), rng.randint(6, 12)) for _ in range(2))
    return lo, hi


def test_mw_filter_matches_an_explicit_split_scan():
    # deg L = 0 is where the filter drops witnesses, so it gets half the cases,
    # and half of the intervals hug alpha = 0, where those drops happen
    rng = SplitMix64(2026)
    twists = (0, 1, 0, 2, 0, 3)
    dropped = {deg_l: 0 for deg_l in set(twists)}
    kept = near_zero = 0
    for index in range(240):
        t = _random_type(rng)
        if rng.randint(0, 1):
            lo, hi = _near_zero_interval(rng)
            near_zero += 1
        else:
            lo, hi = _random_interval(rng, t)
        ctx = GeometryContext(0, twists[index % len(twists)])
        expected = []
        for wall in _brute_walls(t, (lo, hi)):
            survivors = tuple(
                w for w in wall.witnesses if _has_feasible_split(w, ctx.twist_degree, wall.alpha)
            )
            dropped[ctx.twist_degree] += len(wall.witnesses) - len(survivors)
            kept += len(survivors)
            if survivors:
                expected.append(Wall(wall.alpha, survivors))
        assert enumerate_walls(t, (lo, hi), mw_twist_degree=ctx.twist_degree) == expected, (t, lo, hi, ctx)
        if ctx.twist_degree >= 1:
            assert expected == enumerate_walls(t, (lo, hi)), (t, lo, hi, ctx)
    assert near_zero >= 80, near_zero
    assert dropped[0] > 0 and kept > dropped[0], (dropped, kept)
    assert dropped[1] == dropped[2] == dropped[3] == 0, dropped


def test_split_scan_obeys_the_width_argument():
    """The oracle alone: at deg L >= 1, or where min(p', q') |alpha| >= 2, a split exists."""
    rng = SplitMix64(2027)
    wide = 0
    for _ in range(3000):
        w = WallWitness(rng.randint(1, 5), rng.randint(1, 5), rng.randint(-12, 12))
        deg_l = rng.randint(0, 3)
        alpha = rng.rational(3, max_den=7)
        if deg_l >= 1 or min(w.p_sub, w.q_sub) * abs(alpha) >= 2:
            wide += 1
            assert _has_feasible_split(w, deg_l, alpha), (w, deg_l, alpha)
    assert wide >= 2000, wide
