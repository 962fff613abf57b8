"""Four exact symmetries of the walls, over the library and the CLI's CSV.

Each maps the walls of one query onto the walls of another, witness for
witness, with and without the Milnor-Wood filter; no oracle is needed:

- twist by k: (p, q, a + p k, b + q k) over the same interval, each witness
  (p', q', d') to (p', q', d' + (p' + q') k);
- (p, q, -a, -b) over [-hi, -lo], alpha to -alpha, (p', q', d') to (p', q', -d');
- (q, p, b, a) over [-hi, -lo], alpha to -alpha, (p', q', d') to (q', p', d');
- (q, p, -b, -a) over the same interval, (p', q', d') to (q', p', -d').

A query is a seeded random type, a random rational interval (an end on a
wall a third of the time) and a filter setting: none, or deg L = 0 or 1.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import pytest

from upqstab import HitchinPairType, enumerate_walls
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


def _csv_rows(t, lo, hi, degree, capsys):
    argv = ["walls", "--type", ",".join(map(str, t)), "--interval", f"{lo},{hi}", "--format", "csv"]
    if degree is not None:
        argv += ["--mw-filter", "--degL", str(degree)]
    assert main(argv) == 0
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


def test_the_filter_drops_witnesses_in_the_drawn_queries():
    # at deg L = 0 the symmetries are tested on queries where the filter acts
    dropped = sum(
        len(_library_rows(t, lo, hi, None)) > len(_library_rows(t, lo, hi, 0)) for t, lo, hi, _ in _queries(2701, 150)
    )
    assert dropped >= 10
