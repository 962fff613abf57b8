"""Four exact symmetries of the walls and chambers, over the library and the CLI's reports.

Each maps the walls of one query onto the walls of another, witness for
witness, with and without the Milnor-Wood filter; no oracle is needed:

- twist by k: (p, q, a + p k, b + q k) over the same interval, each witness
  (p', q', d') to (p', q', d' + (p' + q') k);
- (p, q, -a, -b) over [-hi, -lo], alpha to -alpha, (p', q', d') to (p', q', -d');
- (q, p, b, a) over [-hi, -lo], alpha to -alpha, (p', q', d') to (q', p', d');
- (q, p, -b, -a) over the same interval, (p', q', d') to (q', p', -d').

The chambers of the image query are the same under the twist and under
(q, p, -b, -a).  Under the two that send alpha to -alpha, the list reverses
and each chamber [x, y] becomes [-y, -x], its two closed flags swapped.

A query is a seeded random type, a random rational interval (an end on a
wall a third of the time) and a filter setting: none, or deg L = 0 or 1.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from upqstab import HitchinPairType, chamber_report, enumerate_walls
from upqstab.cli import main
from upqstab.oracle import SplitMix64

FILTERS = (None, 0, 1)


def _twist(t, lo, hi, k):
    image = HitchinPairType(t.p, t.q, t.a + t.p * k, t.b + t.q * k)
    return image, lo, hi, lambda alpha, p, q, d: (alpha, p, q, d + (p + q) * k)


def _negate(t, lo, hi, k):
    image = HitchinPairType(t.p, t.q, -t.a, -t.b)
    return image, -hi, -lo, lambda alpha, p, q, d: (-alpha, p, q, -d)


def _dual(t, lo, hi, k):
    return t.dual(), -hi, -lo, lambda alpha, p, q, d: (-alpha, q, p, d)


def _dual_negate(t, lo, hi, k):
    image = HitchinPairType(t.q, t.p, -t.b, -t.a)
    return image, lo, hi, lambda alpha, p, q, d: (alpha, q, p, -d)


SYMMETRIES = {"twist": _twist, "negate": _negate, "dual": _dual, "dual_negate": _dual_negate}
# the symmetries that send alpha to -alpha
REFLECTING = {"negate", "dual"}


def _image_chambers(symmetry, chambers):
    """The image query's chambers, as (lo, hi, lo_closed, hi_closed) tuples."""
    if symmetry not in REFLECTING:
        return list(chambers)
    return [(-hi, -lo, hi_closed, lo_closed) for lo, hi, lo_closed, hi_closed in reversed(chambers)]


def _queries(seed: int, count: int):
    """(type, lo, hi, k) drawn from SplitMix64(seed): p, q <= 6, |a|, |b| <= 9, ends in [-8, 8], k != 0."""
    rng = SplitMix64(seed)
    for _ in range(count):
        t = HitchinPairType(rng.randint(1, 6), rng.randint(1, 6), rng.randint(-9, 9), rng.randint(-9, 9))
        lo, hi = sorted((rng.rational(8), rng.rational(8)))
        walls = enumerate_walls(t, (-8, 8))
        if walls and rng.randint(0, 2) == 0:
            on = walls[rng.randint(0, len(walls) - 1)].alpha
            lo, hi = (on, max(hi, on)) if rng.randint(0, 1) else (min(lo, on), on)
        yield t, lo, hi, rng.randint(1, 3) * (1 if rng.randint(0, 1) else -1)


def _library_rows(t, lo, hi, degree):
    walls = enumerate_walls(t, (lo, hi), mw_twist_degree=degree)
    return [(w.alpha, *witness) for w in walls for witness in w.witnesses]


def _argv(command, t, lo, hi, degree):
    argv = [command, "--type", ",".join(map(str, t)), "--interval", f"{lo},{hi}"]
    return argv if degree is None else [*argv, "--mw-filter", "--degL", str(degree)]


def _csv_rows(t, lo, hi, degree, capsys):
    assert main([*_argv("walls", t, lo, hi, degree), "--format", "csv"]) == 0
    reader = csv.reader(io.StringIO(capsys.readouterr().out))
    assert next(reader) == ["alpha_num", "alpha_den", "p_sub", "q_sub", "d_sub"]
    return [(Fraction(int(n), int(d)), int(p), int(q), int(e)) for n, d, p, q, e in reader]


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("degree", FILTERS)
def test_library_walls_map_onto_the_image_querys_walls(symmetry, degree):
    witnesses = 0
    for t, lo, hi, k in _queries(2701, 150):
        image, image_lo, image_hi, move = SYMMETRIES[symmetry](t, lo, hi, k)
        rows = _library_rows(t, lo, hi, degree)
        assert sorted(move(*row) for row in rows) == _library_rows(image, image_lo, image_hi, degree), (t, lo, hi, k)
        witnesses += len(rows)
    assert witnesses > 1000


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("degree", FILTERS)
def test_csv_rows_map_onto_the_image_querys_rows(symmetry, degree, capsys):
    for t, lo, hi, k in _queries(2702, 40):
        image, image_lo, image_hi, move = SYMMETRIES[symmetry](t, lo, hi, k)
        rows = _csv_rows(t, lo, hi, degree, capsys)
        assert rows == _library_rows(t, lo, hi, degree)
        assert sorted(move(*row) for row in rows) == _csv_rows(image, image_lo, image_hi, degree, capsys), (t, lo, hi, k)


def _json_report(command, t, lo, hi, degree, capsys):
    """The CLI's JSON report as its witness rows and chambers, after checking its query fields."""
    assert main(_argv(command, t, lo, hi, degree)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == t.to_json() and report["mw_filter"] == (degree is not None)
    assert [Fraction(end) for end in report["interval"]] == [lo, hi]
    rows = [(Fraction(w["alpha"]), p, q, d) for w in report["walls"] for p, q, d in w["witnesses"]]
    if command == "walls":
        return rows, None
    assert all(w["witness_count"] == len(w["witnesses"]) for w in report["walls"])
    chambers = [(Fraction(c["lo"]), Fraction(c["hi"]), c["lo_closed"], c["hi_closed"]) for c in report["chambers"]]
    return rows, chambers


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("degree", FILTERS)
def test_library_chambers_map_onto_the_image_querys_chambers(symmetry, degree):
    chambers = 0
    for t, lo, hi, k in _queries(2703, 100):
        image, image_lo, image_hi, _ = SYMMETRIES[symmetry](t, lo, hi, k)
        report = chamber_report(t, (lo, hi), mw_twist_degree=degree)
        image_report = chamber_report(image, (image_lo, image_hi), mw_twist_degree=degree)
        assert list(image_report.chambers) == _image_chambers(symmetry, report.chambers), (t, lo, hi, k)
        chambers += len(report.chambers)
    assert chambers > 300


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("degree", FILTERS)
@pytest.mark.parametrize("command", ["walls", "chambers"])
def test_json_reports_map_onto_the_image_querys_report(command, symmetry, degree, capsys):
    for t, lo, hi, k in _queries(2704, 30):
        image, image_lo, image_hi, move = SYMMETRIES[symmetry](t, lo, hi, k)
        rows, chambers = _json_report(command, t, lo, hi, degree, capsys)
        image_rows, image_chambers = _json_report(command, image, image_lo, image_hi, degree, capsys)
        assert rows == _library_rows(t, lo, hi, degree)
        assert sorted(move(*row) for row in rows) == image_rows, (t, lo, hi, k)
        if command == "chambers":
            assert chambers == list(chamber_report(t, (lo, hi), mw_twist_degree=degree).chambers)
            assert image_chambers == _image_chambers(symmetry, chambers), (t, lo, hi, k)


def test_the_filter_drops_witnesses_in_the_drawn_queries():
    # at deg L = 0 the symmetries are tested on queries where the filter acts
    dropped = sum(
        len(_library_rows(t, lo, hi, None)) > len(_library_rows(t, lo, hi, 0)) for t, lo, hi, _ in _queries(2701, 150)
    )
    assert dropped >= 10
