"""The periodic wall table against the direct integer table it stands for.

`walls._periodic_wall_table` builds the walls of one period and counts the
copies of it the interval holds; here every table is expanded copy by copy,
shifting each key by P scale and each d' by -coeff/g per copy (coeff =
p' q - p q', g = gcd(p, q), P = (p + q)/g), and compared with
`walls._wall_table` over the same interval, key for key and group for group.
Types are seeded with g in {1, 2, 3, 4}, p = q included; intervals are
rational, narrower than P, exactly k P wide, and k P plus or minus the gap to
a neighbouring wall, with ends on and off walls, under every Milnor-Wood
filter setting, deg L = 0 intervals inside, across and outside |alpha| < 2
included.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from upqstab import HitchinPairType
from upqstab import walls as walls_module
from upqstab.oracle import SplitMix64
from upqstab.walls import _periodic_wall_table, _wall_table

_TWISTS = (None, 0, 1, 2)


def _expanded(t: HitchinPairType, table) -> tuple:
    """The table's walls over its whole interval, as `_wall_table` lists them."""
    g = math.gcd(t.p, t.q)
    period = t.total_rank // g
    keys, groups = [], []
    for copy in range(table.copies + 1):
        walls = len(table.keys) if copy < table.copies else table.prefix
        for key, group in zip(table.keys[:walls], table.groups[:walls]):
            keys.append(key + copy * period * table.scale)
            groups.append(tuple(
                (p_sub, q_sub, d_sub - copy * (p_sub * t.q - t.p * q_sub) // g) for p_sub, q_sub, d_sub in group
            ))
    return table.lo, table.hi, table.scale, keys, groups


def _random_type(rng: SplitMix64, g: int) -> HitchinPairType:
    while True:
        p0, q0 = rng.randint(1, 4), rng.randint(1, 4)
        if math.gcd(p0, q0) == 1:
            return HitchinPairType(g * p0, g * q0, rng.randint(-6, 6), rng.randint(-6, 6))


def _neighbours(t: HitchinPairType, alpha: Fraction) -> tuple[Fraction, Fraction]:
    """The nearest walls strictly below and strictly above alpha."""
    lo, hi, scale, keys, _ = _wall_table(t, (alpha - 2, alpha + 2), None)
    below = max(key for key in keys if key < alpha * scale)
    above = min(key for key in keys if key > alpha * scale)
    return Fraction(below, scale), Fraction(above, scale)


def _random_interval(rng: SplitMix64, t: HitchinPairType) -> tuple[Fraction, Fraction]:
    period = t.total_rank // math.gcd(t.p, t.q)
    lo = Fraction(rng.randint(-40, 40), rng.randint(1, 4))
    if rng.randint(0, 1):
        # lo on a wall
        lo = _neighbours(t, lo)[1]
    copies = rng.randint(0, 4)
    shape = rng.randint(0, 4)
    if shape == 0:
        # narrower than a period
        return lo, lo + Fraction(rng.randint(0, 6 * period - 1), 6)
    hi = lo + copies * period
    below, above = _neighbours(t, hi)
    if shape == 2:
        hi = max(lo, below)
    elif shape == 3:
        hi = above
    elif shape == 4:
        # off a wall, between hi's neighbours
        hi = max(lo, (below + above) / 2)
    return lo, hi


def _check(t: HitchinPairType, interval, twist) -> object:
    table = _periodic_wall_table(t, interval, twist)
    assert _expanded(t, table) == _wall_table(t, interval, twist), (t, interval, twist)
    return table


def test_expanded_periodic_table_equals_the_direct_table():
    rng = SplitMix64(6060)
    seen = {"copies": 0, "no_copies": 0, "gcd_1": 0, "gcd_2": 0, "gcd_3": 0, "gcd_4": 0, "p_eq_q": 0,
            "hi_on_copy_wall": 0, "whole_periods": 0}
    for index in range(400):
        g = 1 + index % 4
        t = _random_type(rng, g)
        lo, hi = _random_interval(rng, t)
        table = _check(t, (lo, hi), _TWISTS[rng.randint(0, 3)])
        period = t.total_rank // g
        seen["copies" if table.copies else "no_copies"] += 1
        seen[f"gcd_{g}"] += table.copies > 0
        seen["p_eq_q"] += t.p == t.q and table.copies > 0
        seen["whole_periods"] += table.copies > 0 and hi - lo == table.copies * period
        # the last wall of the interval sits on hi
        last = table.prefix - 1
        seen["hi_on_copy_wall"] += table.copies > 0 and last >= 0 and (
            table.keys[last] + table.copies * period * table.scale == hi * table.scale
        )
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("twist", _TWISTS)
def test_milnor_wood_window_inside_across_and_outside(twist):
    # at deg L = 0 the filter can drop witnesses only where |alpha| < 2, so an
    # interval meeting that window is built whole; elsewhere it repeats
    rng = SplitMix64(7070 + (twist or 0))
    for _ in range(60):
        t = _random_type(rng, rng.randint(1, 4))
        period = t.total_rank // math.gcd(t.p, t.q)
        for lo, hi in (
            (Fraction(-7, 4), Fraction(5, 3)),  # inside
            (Fraction(-9, 4) - 2 * period, Fraction(1, 3)),  # across -2
            (Fraction(-1, 2), Fraction(13, 5) + 3 * period),  # across 2
            (Fraction(2), Fraction(2) + 2 * period),  # outside, starting on |alpha| = 2
            (Fraction(-5, 2) - 3 * period, Fraction(-2)),  # outside, ending on |alpha| = 2
        ):
            table = _check(t, (lo, hi), twist)
            meets_window = lo < 2 and hi > -2
            assert (table.copies == 0) == (meets_window and twist == 0 or hi - lo < period), (t, lo, hi, twist)


def test_candidates_are_refused_over_the_whole_interval(monkeypatch):
    # the window alone holds fewer candidates than the limit; the interval does not
    t = HitchinPairType(4, 2, 1, -3)
    interval = (Fraction(-31, 3), Fraction(47, 2))
    candidates = sum(map(len, _wall_table(t, interval, None)[4]))
    monkeypatch.setattr(walls_module, "MAX_WITNESSES", candidates - 1)
    with pytest.raises(ValueError, match=f"the interval holds {candidates} candidate witnesses"):
        _periodic_wall_table(t, interval, None)
    monkeypatch.setattr(walls_module, "MAX_WITNESSES", candidates)
    assert _periodic_wall_table(t, interval, None).copies == 11
