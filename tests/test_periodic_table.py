"""The periodic wall table against the direct integer table it stands for.

`walls._periodic_wall_table` builds the walls of one period, the window, and
lists the interval's walls as runs of its copies, with one exact run where
the deg L = 0 Milnor-Wood filter can drop a witness; the window is empty
exactly when that run starts at lo and reaches hi.  Every table is checked
against that shape, then expanded run by run and copy by copy, shifting each
key by P scale and each d' by -coeff/g per copy (coeff = p' q - p q', g =
gcd(p, q), P = (p + q)/g), and compared with `_wall_table` over the same
interval, key for key and group for group; `enumerate_walls`, which expands
the same table into records, must equal that table's records.  The reference
`_wall_table` lives in `wall_reference.py`, outside the package.  Types are
seeded with g in {1, 2, 3, 4}, p = q included; intervals are rational,
narrower than P, exactly k P wide, and k P plus or minus the gap to a
neighbouring wall, with ends on and off walls, under every Milnor-Wood filter
setting, deg L = 0 intervals inside, across, on and outside |alpha| < 2
included, and +-2 on a cut point lo + k P.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from test_render_differential import _expected_csv, _expected_json
from upqstab import HitchinPairType, chamber_report, enumerate_walls
from upqstab import walls as walls_module
from upqstab.cli import main
from upqstab.oracle import SplitMix64
from upqstab.walls import _period_cuts, _periodic_wall_table
from wall_reference import _wall_table, wall_records

_TWISTS = (None, 0, 1, 2)


def _expanded(t: HitchinPairType, table) -> tuple:
    """The table's walls over its whole interval, as `_wall_table` lists them."""
    g = math.gcd(t.p, t.q)
    period = t.total_rank // g
    keys, groups = [], []
    for index, first, walls in table.runs:
        run_keys, run_groups = table.periods[index]
        for n in range(walls):
            copy, i = divmod(n, len(run_keys))
            copy += first
            keys.append(run_keys[i] + copy * period * table.scale)
            groups.append(tuple(
                (p_sub, q_sub, d_sub - copy * (p_sub * t.q - t.p * q_sub) // g) for p_sub, q_sub, d_sub in run_groups[i]
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
    direct = _wall_table(t, interval, twist)
    assert _expanded(t, table) == direct, (t, interval, twist)
    assert enumerate_walls(t, interval, mw_twist_degree=twist) == wall_records(direct), (t, interval, twist)
    return table


def _cuts(t: HitchinPairType, lo: Fraction, hi: Fraction, twist) -> tuple:
    """(copies, first, stop), computed from P: the table's shape over [lo, hi].

    copies is the number of whole copies of the window [lo, lo + P) in the
    interval.  At deg L = 0 the filter can drop witnesses only where |alpha|
    < 2, so an interval meeting that window holds one exact run over the
    copies [first, stop) that meet it, cut at hi, between runs of the window;
    first and stop are None when there is no exact run.  The window is left
    empty when the exact run starts at lo and reaches hi.
    """
    period = t.total_rank // math.gcd(t.p, t.q)
    copies = math.floor((hi - lo) / period)
    if twist != 0 or hi <= -2 or lo >= 2:
        return copies, None, None
    return copies, max(0, math.floor((-2 - lo) / period)), math.ceil((2 - lo) / period)


def _fraction_cuts(lo: Fraction, hi: Fraction, period: int, scale: int, twist) -> tuple:
    """`_period_cuts` in Fraction arithmetic: (copies, first, stop, past_hi, bound)."""
    copies = math.floor((hi - lo) / period)
    first, stop, past_hi = copies + 1, None, False
    if twist == 0 and lo < 2 and hi > -2:
        first = max(0, math.floor((-2 - lo) / period))
        stop = math.ceil((2 - lo) / period)
        past_hi = lo + stop * period > hi
    return copies, first, stop, past_hi, math.floor((hi - copies * period) * scale)


def test_integer_period_cuts_match_the_fraction_formulas():
    rng = SplitMix64(6161)
    seen = {"end_on_kP": 0, "end_on_2": 0, "point": 0, "below_P": 0, "exact_run": 0, "past_hi": 0, "lo_to_hi": 0}
    for index in range(6000):
        period = rng.randint(1, 12)
        den = rng.randint(1, 9)
        lo = Fraction(rng.randint(-30 * den, 20 * den), den)
        shape = index % 5
        if shape == 0:
            hi = lo + rng.randint(0, 5) * period
        elif shape == 1:
            lo, hi = sorted((lo, Fraction(2 * (1 - 2 * rng.randint(0, 1)))))
        elif shape == 2:
            hi = lo
        elif shape == 3:
            hi = lo + Fraction(rng.randint(0, period * den - 1), den)
        else:
            hi = lo + Fraction(rng.randint(0, 80 * den), rng.randint(1, 9))
        if rng.randint(0, 3) == 0:
            # an end on a multiple of P
            lo, hi = sorted((lo, Fraction(rng.randint(-6, 6) * period)))
        scale = rng.randint(1, 10**6)
        twist = _TWISTS[index % 4]
        cuts = _period_cuts(lo, hi, period, scale, twist)
        assert cuts == _fraction_cuts(lo, hi, period, scale, twist), (lo, hi, period, scale, twist)
        copies, first, stop, past_hi, _ = cuts
        seen["end_on_kP"] += lo % period == 0 or hi % period == 0
        seen["end_on_2"] += lo in (-2, 2) or hi in (-2, 2)
        seen["point"] += lo == hi
        seen["below_P"] += hi - lo < period
        seen["exact_run"] += first <= copies
        seen["past_hi"] += past_hi and first > 0
        seen["lo_to_hi"] += first == 0 and past_hi
    assert min(seen.values()) >= 75, seen


def test_expanded_periodic_table_equals_the_direct_table():
    rng = SplitMix64(6060)
    seen = {"copies": 0, "no_copies": 0, "gcd_1": 0, "gcd_2": 0, "gcd_3": 0, "gcd_4": 0, "p_eq_q": 0,
            "hi_on_copy_wall": 0, "whole_periods": 0}
    for index in range(400):
        g = 1 + index % 4
        t = _random_type(rng, g)
        lo, hi = _random_interval(rng, t)
        twist = _TWISTS[rng.randint(0, 3)]
        table = _check_runs(t, lo, hi, twist)
        keys = _expanded(t, table)[3]
        period = t.total_rank // g
        copies = _cuts(t, lo, hi, twist)[0]
        seen["copies" if copies else "no_copies"] += 1
        seen[f"gcd_{g}"] += copies > 0
        seen["p_eq_q"] += t.p == t.q and copies > 0
        seen["whole_periods"] += copies > 0 and hi - lo == copies * period
        # the last wall of the interval sits on hi
        seen["hi_on_copy_wall"] += copies > 0 and bool(keys) and keys[-1] == hi * table.scale
    assert min(seen.values()) >= 10, seen


def _check_runs(t: HitchinPairType, lo: Fraction, hi: Fraction, twist) -> object:
    """The table, after checking its periods and runs against the shape `_cuts` computes.

    The window holds the unfiltered walls of [lo, lo + P), cut at hi, unless
    the exact run starts at lo and reaches hi: then it is empty.  The window
    makes one run up to hi, unless there is an exact run, which lies between
    runs of the window.
    """
    table = _check(t, (lo, hi), twist)
    period = t.total_rank // math.gcd(t.p, t.q)
    copies, first, stop = _cuts(t, lo, hi, twist)
    end = None if first is None else lo + stop * period
    _, _, scale, direct_keys, direct_groups = _wall_table(t, (lo, hi), None)
    assert table.scale == scale
    window = [(key, group) for key, group in zip(direct_keys, direct_groups) if key < (lo + period) * scale]
    if first == 0 and end > hi:
        window = []
    keys, groups = table.periods[0]
    assert list(zip(keys, groups)) == window, (t, lo, hi, twist)
    n = len(keys)
    # the walls of the window's last copy, copy `copies`, that lie at or below hi
    cut = sum(key + copies * period * scale <= hi * scale for key in keys)
    if first is None:
        assert (len(table.periods), table.runs) == (1, tuple(run for run in [(0, 0, copies * n + cut)] if run[2]))
        return table
    exact_keys = table.periods[1][0]
    expected = [(0, 0, first * n), (1, 0, len(exact_keys))]
    if end <= hi:
        expected.append((0, stop, (copies - stop) * n + cut))
    assert (len(table.periods), table.runs) == (2, tuple(run for run in expected if run[2])), (t, lo, hi)
    # the exact run's walls lie in [lo + first P, end), or up to hi
    assert not exact_keys or (lo + first * period) * scale <= exact_keys[0]
    assert not exact_keys or exact_keys[-1] < end * scale or end > hi
    return table


@pytest.mark.parametrize("twist", _TWISTS)
def test_milnor_wood_window_inside_across_and_outside(twist):
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
            _check_runs(t, lo, hi, twist)


def test_deg_l_zero_ends_inside_on_and_outside_the_window_and_on_cut_points():
    # each end inside (-2, 2), on +-2 or outside it, and +-2 on a cut point
    # lo + k P, so that a wall at +-2 lies where two runs meet
    rng = SplitMix64(8080)
    seen = {"three_runs": 0, "exact_to_hi": 0, "lo_to_hi": 0, "lo_to_hi_past_P": 0, "minus_2_on_cut": 0,
            "plus_2_on_cut": 0, "wall_on_cut": 0, "inside": 0, "short_exact": 0}
    for _ in range(16):
        t = _random_type(rng, rng.randint(1, 4))
        period = t.total_rank // math.gcd(t.p, t.q)
        k = rng.randint(0, 3)
        inside = Fraction(rng.randint(-7, 7), 4)
        outside = Fraction(rng.randint(9, 40), 4) + k * period
        # just past -2: from lo = -2 - k P the exact run is shorter than a
        # period, may lack a family, and so is built at a smaller scale
        past = -2 + Fraction(rng.randint(1, 11), 12)
        for lo in (-2 - k * period, 2 - (k + 1) * period, -outside, inside, Fraction(-2), Fraction(2)):
            for hi in (2 + k * period, -2 + (k + 1) * period, outside, inside, Fraction(-2), Fraction(2), past):
                if lo > hi:
                    continue
                table = _check_runs(t, lo, hi, 0)
                keys = set(_expanded(t, table)[3])
                copies, first, stop = _cuts(t, lo, hi, 0)
                seen["three_runs"] += first is not None and lo + stop * period <= hi
                seen["exact_to_hi"] += first is not None and first > 0 and lo + stop * period > hi
                # the exact run starts at lo and reaches hi, within a period of lo or past it
                seen["lo_to_hi"] += first == 0 and lo + stop * period > hi and copies == 0
                seen["lo_to_hi_past_P"] += first == 0 and lo + stop * period > hi and copies > 0
                seen["inside"] += -2 < lo and hi < 2
                if first is not None:
                    cuts = {lo + first * period, lo + stop * period} & {Fraction(-2), Fraction(2)}
                    seen["minus_2_on_cut"] += -2 in cuts
                    seen["plus_2_on_cut"] += 2 in cuts
                    seen["wall_on_cut"] += any(cut * table.scale in keys for cut in cuts)
                    exact_keys = table.periods[1][0]
                    seen["short_exact"] += bool(exact_keys) and hi - (lo + first * period) < period
    assert min(seen.values()) >= 10, seen


def test_split_tables_render_as_the_library_reports(capsys):
    # walls, chambers and CSV of tables with an exact run, against the stdlib
    # encoders over the library's records: the chambers tile across each join
    rng = SplitMix64(9191)
    runs = {1: 0, 2: 0, 3: 0, "lo_on_wall": 0, "hi_on_wall": 0, "wall_at_2": 0}
    for _ in range(60):
        t = _random_type(rng, rng.randint(1, 4))
        period = t.total_rank // math.gcd(t.p, t.q)
        # ends on cut points, on walls and off them
        lo = [Fraction(-2 - rng.randint(0, 3) * period), Fraction(rng.randint(-30, 4), rng.randint(1, 4))][rng.randint(0, 1)]
        hi = [Fraction(2 + rng.randint(0, 3) * period), lo + Fraction(rng.randint(0, 90), rng.randint(1, 4))][rng.randint(0, 1)]
        if rng.randint(0, 2) == 0:
            lo = _neighbours(t, lo)[1]
        if rng.randint(0, 2) == 0:
            hi = _neighbours(t, hi)[0]
        if lo > hi:
            lo, hi = hi, lo
        table = _periodic_wall_table(t, (lo, hi), 0)
        report = chamber_report(t, (lo, hi), mw_twist_degree=0)
        base = ["--type", f"{t.p},{t.q},{t.a},{t.b}", "--interval", f"{lo.numerator}/{lo.denominator},"
                f"{hi.numerator}/{hi.denominator}", "--mw-filter", "--degL", "0"]
        for command in ("walls", "chambers"):
            assert main([command, *base]) == 0
            assert capsys.readouterr().out == _expected_json(command, t, True, report), (command, base)
        assert main(["walls", *base, "--format", "csv"]) == 0
        assert capsys.readouterr().out == _expected_csv(report.walls), base
        if len(table.periods) > 1:
            # the exact run between two runs of the window, after or before one, or alone from lo to hi
            runs[len(table.runs)] += 1
            alphas = {w.alpha for w in report.walls}
            runs["lo_on_wall"] += lo in alphas
            runs["hi_on_wall"] += hi in alphas
            runs["wall_at_2"] += bool(alphas & {Fraction(-2), Fraction(2)})
    assert min(runs.values()) >= 5, runs


def test_the_deg_l_zero_table_at_the_witness_cap_holds_one_window_and_a_short_middle():
    # a structural bound, not a clock: the filter's exact run covers at most
    # ceil(4/P) + 1 periods, and every other wall is a copy of the one window
    t = HitchinPairType(7, 5, 3, -2)
    period = 12
    table = _periodic_wall_table(t, (-9250, 9250), 0)
    (keys, groups), (exact_keys, _) = table.periods
    # the last run of the window ends in copy 18500 // P, the one cut at hi
    _, stop, walls = table.runs[-1]
    assert stop + walls // len(keys) == 18500 // period
    assert [index for index, _, _ in table.runs] == [0, 1, 0]
    assert Fraction(exact_keys[-1] - exact_keys[0], table.scale) < (math.ceil(4 / period) + 1) * period
    assert len(exact_keys) <= (math.ceil(4 / period) + 1) * len(keys)
    assert sum(map(len, groups)) == 648


def test_candidates_are_refused_over_the_whole_interval(monkeypatch):
    # the window alone holds fewer candidates than the limit; the interval does not
    t = HitchinPairType(4, 2, 1, -3)
    interval = (Fraction(-31, 3), Fraction(47, 2))
    candidates = sum(map(len, _wall_table(t, interval, None)[4]))
    monkeypatch.setattr(walls_module, "MAX_WITNESSES", candidates - 1)
    with pytest.raises(ValueError, match=f"the interval holds {candidates} candidate witnesses"):
        _periodic_wall_table(t, interval, None)
    monkeypatch.setattr(walls_module, "MAX_WITNESSES", candidates)
    table = _periodic_wall_table(t, interval, None)
    ((index, first, walls),) = table.runs
    assert (index, first, walls // len(table.periods[0][0])) == (0, 0, 11)


def test_the_families_are_scanned_once_per_table(monkeypatch):
    calls = []
    scan = walls_module._held_families

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(walls_module, "_held_families", counted)
    t = HitchinPairType(7, 5, 3, -2)
    for interval, twist, indices, repeats in (
        ((-50, 50), 0, [0, 1, 0], True),  # an exact run between two runs of the window
        ((-50, 5), 0, [0, 1], True),  # the exact run reaches hi
        ((-50, 50), None, [0], True),  # one run of the window, over 8 copies of P = 12
        ((0, 5), None, [0], False),  # shorter than P: the window is cut at hi
        ((-1, 5), 0, [1], False),  # the exact run starts at lo and reaches hi: the window is empty
    ):
        calls.clear()
        table = _periodic_wall_table(t, interval, twist)
        assert [index for index, _, _ in table.runs] == indices
        assert bool(table.periods[0][0]) == (indices != [1])
        # whether the first run takes more walls than one copy of its period holds
        index, _, walls = table.runs[0]
        assert (walls > len(table.periods[index][0])) == repeats
        assert len(calls) == 1, (interval, twist, len(calls))
