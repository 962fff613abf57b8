"""The one-pass walls/chambers renderer against the stdlib encoder.

`main` writes walls and chambers reports from templates; here every report is
rebuilt from the library's `to_json` trees and encoded with
`json.dumps(..., indent=2, sort_keys=True)`, and every CSV with `csv.writer`,
over explicit chamber shapes and seeded random types with p, q <= 7 and
rational intervals: intervals with no walls, intervals with an end or both
ends on a wall, and both Milnor-Wood filter twists.  A second seeded set draws intervals 40 to 100
wide, so reports reach over 1000 walls and single walls over 20 witnesses.
The library's walls expand the same periodic table the renderer writes from,
so each report's walls are first checked against the whole-interval
`_wall_table` of `wall_reference.py`.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from upqstab import (
    ChamberReport,
    GeometryContext,
    HitchinPairType,
    Wall,
    WallWitness,
    chamber_report,
    enumerate_walls,
    format_rational,
    wall_alpha,
)
from upqstab.cli import main
from upqstab.oracle import SplitMix64
from wall_reference import _wall_table, wall_records

# (argv suffix, geometry context) per Milnor-Wood filter setting
_TWISTS = [
    ([], None),
    (["--mw-filter", "--degL", "0"], GeometryContext(genus=0, twist_degree=0)),
    (["--mw-filter", "--canonical", "--genus", "2"], GeometryContext.canonical_twist(2)),
]


def _random_type(rng: SplitMix64) -> HitchinPairType:
    return HitchinPairType(rng.randint(1, 7), rng.randint(1, 7), rng.randint(-8, 8), rng.randint(-8, 8))


def _random_wall_alpha(rng: SplitMix64, t: HitchinPairType) -> Fraction:
    while True:
        p_sub, q_sub = rng.randint(0, t.p), rng.randint(0, t.q)
        if not 1 <= p_sub + q_sub <= t.total_rank - 1:
            continue
        alpha = wall_alpha(t, WallWitness(p_sub, q_sub, rng.randint(-8, 8)))
        if alpha is not None:
            return alpha


def _random_interval(rng: SplitMix64, t: HitchinPairType) -> tuple[Fraction, Fraction]:
    lo = rng.rational(4)
    hi = lo + Fraction(rng.randint(0, 12), rng.randint(1, 6))
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
        # strictly inside the gap between two consecutive walls
        alphas = [w.alpha for w in enumerate_walls(t, (lo, lo + 2))]
        if len(alphas) >= 2:
            i = rng.randint(0, len(alphas) - 2)
            gap = alphas[i + 1] - alphas[i]
            lo, hi = alphas[i] + gap / 3, alphas[i] + 2 * gap / 3
        else:
            hi = lo
    return lo, hi


# explicit chamber shapes, unfiltered.  The walls of (2,3,1,-1) repeat with
# period 5, eight to a period: 0, 5/6, 5/4, 5/3, 5/2, 10/3, 15/4, 25/6, then
# 5, ...; (1,1,0,0) has one wall at each even integer, period 2.
_SHAPES = [
    ((2, 3, 1, -1), "1/4", "1/3"),  # no wall
    ((2, 3, 1, -1), "1/3", "1/3"),  # one point, off a wall
    ((2, 3, 1, -1), "5/4", "5/4"),  # one point, on a wall
    ((2, 3, 1, -1), "5/6", "2"),  # lo on a wall
    ((2, 3, 1, -1), "1/2", "5/3"),  # hi on a wall
    ((2, 3, 1, -1), "-5/3", "5/2"),  # both ends on walls
    ((2, 3, 1, -1), "5/6", "1"),  # a single wall, at lo
    ((2, 3, 1, -1), "-5/3", "40/3"),  # three copies of the period, both ends on walls
    ((1, 1, 0, 0), "0", "4"),  # two copies, both ends on walls
    ((2, 3, 1, -1), "1/10", "21/2"),  # 16 walls, two whole copies of the period
    ((1, 1, 0, 0), "1", "3"),  # one wall, one whole copy
]


def _cases(rng: SplitMix64):
    """The explicit shapes, then 300 seeded random queries: (type, (lo, hi), twist)."""
    for spec, lo, hi in _SHAPES:
        yield HitchinPairType(*spec), (Fraction(lo), Fraction(hi)), _TWISTS[0]
    for _ in range(300):
        t = _random_type(rng)
        interval = _random_interval(rng, t)
        yield t, interval, _TWISTS[rng.randint(0, 2)]


def _stdout(argv: list[str], capsys) -> str:
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def _expected_json(command: str, t: HitchinPairType, mw_filter: bool, report: ChamberReport) -> str:
    tree = {"command": command, "type": t.to_json(), "mw_filter": mw_filter}
    if command == "walls":
        lo, hi = report.interval
        tree["interval"] = [format_rational(lo), format_rational(hi)]
        tree["walls"] = [w.to_json() for w in report.walls]
    else:
        tree.update(report.to_json())
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def _expected_csv(walls: tuple[Wall, ...]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["alpha_num", "alpha_den", "p_sub", "q_sub", "d_sub"])
    for wall in walls:
        for w in wall.witnesses:
            writer.writerow([wall.alpha.numerator, wall.alpha.denominator, w.p_sub, w.q_sub, w.d_sub])
    return buffer.getvalue()


def test_rendered_reports_match_the_stdlib_encoders(capsys):
    rng = SplitMix64(4040)
    shapes = {"no_walls": 0, "degenerate_on_wall": 0, "end_on_wall": 0, "degL_0": 0, "canonical": 0}
    for t, (lo, hi), (twist_args, ctx) in _cases(rng):
        # walls are those of the chamber report: chamber_report calls enumerate_walls, which
        # expands the CLI's periodic table, so they are also checked against the whole-interval table
        twist = None if ctx is None else ctx.twist_degree
        report = chamber_report(t, (lo, hi), mw_twist_degree=twist)
        assert list(report.walls) == wall_records(_wall_table(t, (lo, hi), twist)), (t, lo, hi, twist)
        base = ["--type", f"{t.p},{t.q},{t.a},{t.b}",
                "--interval", f"{format_rational(lo)},{format_rational(hi)}", *twist_args]
        for command in ("walls", "chambers"):
            out = _stdout([command, *base], capsys)
            assert out == _expected_json(command, t, bool(twist_args), report), (command, base)
        assert _stdout(["walls", *base, "--format", "csv"], capsys) == _expected_csv(report.walls), base

        alphas = {w.alpha for w in report.walls}
        shapes["no_walls"] += not alphas
        shapes["degenerate_on_wall"] += lo == hi and lo in alphas
        shapes["end_on_wall"] += lo != hi and (lo in alphas or hi in alphas)
        shapes["degL_0"] += "--degL" in twist_args
        shapes["canonical"] += "--canonical" in twist_args
    assert min(shapes.values()) >= 20, shapes


def test_wide_reports_match_the_stdlib_encoders(capsys):
    rng = SplitMix64(9090)
    most_walls = most_witnesses = filter_drops = 0
    for index in range(20):
        t = _random_type(rng)
        lo = rng.rational(8)
        hi = lo + Fraction(rng.randint(240, 600), 6)
        twist_args, ctx = _TWISTS[index % 3]
        twist = None if ctx is None else ctx.twist_degree
        report = chamber_report(t, (lo, hi), mw_twist_degree=twist)
        assert list(report.walls) == wall_records(_wall_table(t, (lo, hi), twist)), (t, lo, hi, twist)
        base = ["--type", f"{t.p},{t.q},{t.a},{t.b}",
                "--interval", f"{format_rational(lo)},{format_rational(hi)}", *twist_args]
        for command in ("walls", "chambers"):
            out = _stdout([command, *base], capsys)
            assert out == _expected_json(command, t, bool(twist_args), report), (command, base)
        assert _stdout(["walls", *base, "--format", "csv"], capsys) == _expected_csv(report.walls), base

        most_walls = max(most_walls, len(report.walls))
        most_witnesses = max([most_witnesses, *(len(w.witnesses) for w in report.walls)])
        if ctx is not None:
            unfiltered = enumerate_walls(t, (lo, hi))
            filter_drops += sum(len(w.witnesses) for w in unfiltered) > sum(len(w.witnesses) for w in report.walls)
    assert most_walls > 1000 and most_witnesses > 20 and filter_drops >= 2, (most_walls, most_witnesses, filter_drops)
