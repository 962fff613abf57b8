"""The walls/chambers renderer against the stdlib encoders on integers past a machine word.

Seeded types with |a|, |b| up to 10^25 put the witnesses' d' far past 2^64,
and interval ends with 20-digit numerators and denominators, half of them
shifted by up to 10^20, put the wall alphas' numerators and the chamber ends
past it too.  Every `walls` JSON, `walls` CSV and `chambers` report must equal
the stdlib encoding of the library's records (the reference of
test_render_differential), whose walls must equal those of the
whole-interval `_wall_table`, under all three Milnor-Wood filter twists, with
reports reaching over several copies of their period and the deg L = 0
filter dropping witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from test_render_differential import _TWISTS, _expected_csv, _expected_json, _stdout
from upqstab import HitchinPairType, chamber_report, enumerate_walls, format_rational
from upqstab.oracle import SplitMix64
from upqstab.walls import MAX_WITNESSES, _periodic_wall_table
from wall_reference import _wall_table, wall_records

_WORD = 2**64


def _twenty_digits(rng: SplitMix64) -> int:
    return rng.randint(10**19, 10**20 - 1)


def test_big_integer_reports_match_the_stdlib_encoders(capsys):
    rng = SplitMix64(2525)
    big = 10**25
    seen = {"walls": [0, 0, 0], "big_alpha": 0, "copies": 0, "filter_drops": 0}
    most_d = 0
    for index in range(36):
        twist_args, ctx = _TWISTS[index % 3]
        mw_twist_degree = None if ctx is None else ctx.twist_degree
        t = HitchinPairType(rng.randint(1, 7), rng.randint(1, 7), rng.randint(-big, big), rng.randint(-big, big))
        # near alpha = 0, where the deg L = 0 filter acts, or shifted by up to 10^20
        shift = 0 if index % 2 else rng.randint(-10**20, 10**20)
        lo = shift + Fraction((2 * rng.randint(0, 1) - 1) * _twenty_digits(rng), _twenty_digits(rng))
        hi = lo + Fraction(rng.randint(0, 60), rng.randint(1, 4))
        report = chamber_report(t, (lo, hi), mw_twist_degree=mw_twist_degree)
        assert list(report.walls) == wall_records(_wall_table(t, (lo, hi), mw_twist_degree)), (t, lo, hi)
        witnesses = [w for wall in report.walls for w in wall.witnesses]
        assert len(witnesses) < MAX_WITNESSES
        base = ["--type", f"{t.p},{t.q},{t.a},{t.b}",
                "--interval", f"{format_rational(lo)},{format_rational(hi)}", *twist_args]
        for command in ("walls", "chambers"):
            out = _stdout([command, *base], capsys)
            assert out == _expected_json(command, t, bool(twist_args), report), (command, base)
        assert _stdout(["walls", *base, "--format", "csv"], capsys) == _expected_csv(report.walls), base

        seen["walls"][index % 3] += bool(report.walls)
        seen["big_alpha"] += any(abs(wall.alpha.numerator) > _WORD for wall in report.walls)
        most_d = max([most_d, *(abs(w.d_sub) for w in witnesses)])
        if mw_twist_degree == 0:
            unfiltered = enumerate_walls(t, (lo, hi))
            seen["filter_drops"] += sum(len(wall.witnesses) for wall in unfiltered) > len(witnesses)
        table = _periodic_wall_table(t, (lo, hi), mw_twist_degree)
        seen["copies"] += any(first or walls > len(table.periods[i][0]) for i, first, walls in table.runs)
    assert min(seen["walls"]) >= 6 and seen["big_alpha"] >= 6 and seen["copies"] >= 6, seen
    assert seen["filter_drops"] >= 2, seen
    assert most_d > 10**24, most_d
