"""Critical values of the stability parameter, chambers, and irreducibility checks.

A value of the stability parameter is critical ("a wall") for a numerical
type t = (p, q, a, b) when some proper sub-type t' = (p', q', a', b') with a
different rank ratio p'/(p'+q') != p/(p+q) can have equal parameter-weighted
slope.  Since that slope depends on (p', q', d') with d' = a' + b' only,
witnesses are stored in that collapsed form; the split (a', b') is
reconstructed only inside the optional Milnor-Wood feasibility filter.

Semistability is constant on the open chambers between consecutive walls.

The walls repeat with period P = (p + q)/g, g = gcd(p, q).  The wall of
(p', q', d') is alpha = (D r' - d' r)/coeff with D = a + b, r = p + q,
r' = p' + q' and coeff = p' q - p q', a multiple of g.  So alpha + P is the
wall of (p', q', d' - coeff/g), a witness of the same family, and since P is
an integer the shift keeps alpha's denominator in lowest terms.  The
Milnor-Wood filter breaks the period only where it can drop a witness: at
deg L = 0, where |alpha| < 2 (see `_mw_kept`), and it checks a witness there
in integers, on the wall's scaled key, one family at a time.
`_periodic_wall_table` builds every query one way: it scans the rank
families once, cuts each family's d'-range to one period from lo (cut at hi
on an interval shorter than that) and lists the interval's walls as runs of
its copies; at deg L = 0 it also cuts out, and builds exactly, the few
copies that meet |alpha| < 2.  `enumerate_walls` expands those runs into
records, and the CLI renders them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import partial
from itertools import repeat

# perfbench/tracing.py patches walls.ordered_map by name, so the name stays bound
from .concurrency import ordered_map
from .core import (
    BoundInterval,
    HitchinPairType,
    RationalLike,
    _Record,
    _fraction,
    _require_int,
    _shown_number,
    as_rational,
    format_rational,
    gcd_rank_degree,
    slope,
    toledo,
)
# perfbench/tracing.py patches walls.toledo_bounds by name, so the name stays bound
from .milnor_wood import toledo_bounds

# Candidate witnesses one query may build, and rank families one type may
# have: both are counted before any is built.  Near the family cap a query
# scans every family even where it has no wall, and keeps only those with one:
# a `walls` run of (998,998,0,1) over [0, 0] takes about 0.4 s and 16 MB peak
# RSS.  At the witness cap ((7,5,3,-2) over [-9250, 9250]) every caller
# builds one period (`_periodic_wall_table`, 648 of the 999,004 witnesses
# there).  `enumerate_walls` expands it into about 290k `Wall` records and
# takes about 2.6 s and 184 MB, most of it cyclic GC passes over the new
# records (0.9 s with the collector off).  The CLI holds the report once, as
# byte pieces: a JSON `walls` run takes about 0.3 s and 94 MB, a `chambers`
# run 0.45 s and 132 MB and a CSV run 0.3 s and 33 MB, most of the memory
# being the report itself (CPU time and peak RSS of a fresh process, median
# of 5, Python 3.11.7, one core of a 2-vCPU Xeon VM).  With `--mw-filter
# --degL 0` the table also builds exactly the copies of the period that meet
# |alpha| < 2 (one, [-10, 2), there), and each run takes the same within
# 0.05 s and 1 MB (built whole, they took 2.7 to 3.3 s and 352 to 500 MB).
# The largest test or benchmark query has about 49k witnesses.
MAX_WITNESSES = 1_000_000


class WallWitness(_Record, namedtuple("WallWitness", "p_sub q_sub d_sub")):
    """Sub-type ranks and total degree (p', q', d' = a' + b') witnessing a wall.

    A plain triple of ints: it compares, hashes and sorts as its tuple.
    """

    __slots__ = ()

    def sort_key(self) -> tuple[int, int, int]:
        return tuple(self)

    def to_json(self) -> list[int]:
        return list(self)


class Wall(_Record, namedtuple("Wall", "alpha witnesses")):
    """A critical parameter value (a Fraction) with every witnessing sub-type.

    A plain record: it compares, hashes and unpacks as its (alpha, witnesses)
    tuple, witnesses being a tuple of `WallWitness`.  Its producers guarantee
    what it does not check: at least one witness, distinct and in (p', q', d')
    order, as `enumerate_walls` emits them and as `brute_force_walls` sorts
    them.
    """

    __slots__ = ()


class Chamber(_Record, namedtuple("Chamber", "lo hi lo_closed hi_closed")):
    """A maximal wall-free segment [lo, hi] (Fractions) of the queried interval.

    The closed flags (bools) record whether the endpoint belongs to the
    chamber: an endpoint is included only when it is an end of the queried
    interval and not itself a wall.
    """

    __slots__ = ()


class ChamberReport(_Record, namedtuple("ChamberReport", "interval walls chambers")):
    """Walls in an interval, in increasing alpha, plus the chambers between them.

    interval is the (lo, hi) pair of Fractions; walls and chambers are tuples
    of `Wall` and `Chamber`.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        lo, hi = self.interval
        return {
            "interval": [format_rational(lo), format_rational(hi)],
            "walls": [
                dict(w.to_json(), witness_count=len(w.witnesses)) for w in self.walls
            ],
            "chambers": [c.to_json() for c in self.chambers],
        }


def wall_alpha(t: HitchinPairType, w: WallWitness) -> Fraction | None:
    """The unique parameter where the sub-type matches the ambient slope.

    Solves d'/r' + alpha p'/r' = d/r + alpha p/r for alpha; returns None
    exactly when the rank ratios coincide and no solution exists.
    """
    r = t.total_rank
    r_sub = w.p_sub + w.q_sub
    if not (0 <= w.p_sub <= t.p and 0 <= w.q_sub <= t.q and 1 <= r_sub <= r - 1):
        raise ValueError(
            f"witness ranks ({_shown_number(w.p_sub)},{_shown_number(w.q_sub)}) out of range for ambient type "
            f"({_shown_number(t.p)},{_shown_number(t.q)}): need 0 <= p' <= p, 0 <= q' <= q, 1 <= p'+q' <= p+q-1"
        )
    coeff = w.p_sub * r - t.p * r_sub
    if coeff == 0:
        return None
    return Fraction(t.total_degree * r_sub - w.d_sub * r, coeff)


def _wall_families(t: HitchinPairType) -> Iterator[tuple[int, int, int]]:
    """Sub-ranks (p', q') that can witness a wall, with coeff = p' r - p r' != 0.

    Yielded in (p', q') order, which is also the witness order inside a wall.
    """
    r = t.total_rank
    for p_sub in range(t.p + 1):
        for q_sub in range(t.q + 1):
            r_sub = p_sub + q_sub
            coeff = p_sub * r - t.p * r_sub
            if 1 <= r_sub <= r - 1 and coeff:
                yield p_sub, q_sub, coeff


def _mw_kept(p_sub: int, q_sub: int, scale: int, witnesses: Iterable) -> Iterable:
    """The witnesses of family (p', q') that some split a' + b' = d' makes Milnor-Wood feasible at deg L = 0.

    witnesses holds (key, (p', q', d')) pairs, each witness on the wall
    alpha = key/scale, scale >= 1 and key/scale not necessarily in lowest
    terms; the pairs that survive are returned in their order.  tau' = 2a' -
    2 p' d'/r' is affine in a', so the admissible a' form a rational
    interval, and feasibility is exactly the existence of an integer in it.  A rank-0 side forces that side's
    degree to 0, hence tau' = 0, and the bounds collapse to [0, 0]: such
    witnesses always survive.

    At deg L = 0 the bounds `toledo_bounds(p', q', 0, alpha)` of regimes i
    and iii are the smaller and the larger of -m' |p' - q'| alpha / r' and
    -2 p' q' alpha / r', with m' = min(p', q').  Since 2 p' q' >= m' |p' -
    q'|, the second is the lower end when alpha >= 0 and the upper end when
    alpha < 0.  Over r' scale their numerators skew * key and weighted * key
    are ints, as is that of the shift 2 p' d'/r', so a' lies in [(lower +
    shift)/den, (upper + shift)/den] with den = 2 r' scale: one ceiling and
    one floor division decide the check.  The family's constants are
    computed once.

    Width argument: with l = deg L, the a'-interval is closed and has length
    m' l where |alpha| <= l (regime ii) and m' (l + |alpha|) / 2 where
    |alpha| > l (regimes i and iii).  A closed interval of length >= 1 holds
    an integer, so every witness survives at l >= 1, and at l = 0 only a
    witness with m' |alpha| < 2 can fail: only those are checked.
    """
    m = min(p_sub, q_sub)
    if not m:
        return witnesses
    narrow = 2 * scale
    skew = -m * abs(p_sub - q_sub)
    weighted = -2 * p_sub * q_sub
    shift = 2 * p_sub * scale
    den = 2 * (p_sub + q_sub) * scale
    kept = []
    for key, w in witnesses:
        if m * abs(key) < narrow:
            moved = shift * w[2]
            if key < 0:
                lower, upper = skew * key + moved, weighted * key + moved
            else:
                lower, upper = weighted * key + moved, skew * key + moved
            if -(-lower // den) > upper // den:
                continue
        kept.append((key, w))
    return kept


def _held_families(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    mw_twist_degree: int | None,
) -> tuple[Fraction, Fraction, int, list[tuple[int, int, int, range]]]:
    """The interval ends as Fractions, the key scale, and each family with a wall in the interval.

    Families come in (p', q') order as (p', q', coeff, degrees), degrees being
    the range of d' whose wall lies in the interval, and the scale is
    lcm(|coeff|) over them (1 for none).  More than MAX_WITNESSES rank
    families, or candidate witnesses, is refused before any is listed.
    """
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    if lo > hi:
        raise ValueError(f"empty interval direction: lo={_shown_number(lo)} > hi={_shown_number(hi)}")
    if mw_twist_degree is not None:
        _require_int(mw_twist_degree, "mw_twist_degree")
        if mw_twist_degree < 0:
            raise ValueError(
                f"mw_twist_degree (deg L of the Milnor-Wood filter) must be >= 0, got {_shown_number(mw_twist_degree)}"
            )

    # of the (p+1)(q+1) sub-ranks (p', q'), the gcd(p, q) + 1 multiples of
    # (p, q)/gcd(p, q), from (0, 0) to (p, q), are not families
    family_count = (t.p + 1) * (t.q + 1) - math.gcd(t.p, t.q) - 1
    if family_count > MAX_WITNESSES:
        raise ValueError(
            f"the type has {_shown_number(family_count)} rank families, more than the limit of "
            f"{MAX_WITNESSES}; query a type of lower rank"
        )
    # The wall of (p', q', d') is alpha = (D r' - d' r)/coeff with D = a + b,
    # so d' at alpha = n/m is (D r' m - n coeff)/(r m): inverting it at the
    # interval ends gives each family's whole d'-range, with no degree cutoff.
    # Only the families with a wall in the interval are kept.
    r, total_degree = t.total_rank, t.total_degree
    lo_num, lo_den, lo_rden = lo.numerator, lo.denominator, r * lo.denominator
    hi_num, hi_den, hi_rden = hi.numerator, hi.denominator, r * hi.denominator
    held = []
    count = 0
    for p_sub, q_sub, coeff in _wall_families(t):
        base = total_degree * (p_sub + q_sub)
        at_lo = base * lo_den - lo_num * coeff  # d' at lo, over lo_rden
        at_hi = base * hi_den - hi_num * coeff
        # d' rises with alpha iff coeff < 0
        if coeff < 0:
            first, last = -(-at_lo // lo_rden), at_hi // hi_rden
        else:
            first, last = -(-at_hi // hi_rden), at_lo // lo_rden
        if first <= last:
            degrees = range(first, last + 1)
            held.append((p_sub, q_sub, coeff, degrees))
            # len() of a range longer than sys.maxsize raises OverflowError
            count += degrees.stop - degrees.start
    if count > MAX_WITNESSES:
        raise ValueError(
            f"the interval holds {_shown_number(count)} candidate witnesses, more than the limit of "
            f"{MAX_WITNESSES}; query a narrower interval"
        )
    return lo, hi, math.lcm(*(abs(coeff) for _, _, coeff, _ in held)), held


def _walls_of(t: HitchinPairType, held: Iterable, scale: int, mw_twist_degree: int | None) -> tuple[list, list]:
    """The walls over the d'-ranges in held as (keys, groups), keyed over scale, a multiple of each |coeff|.

    keys[i] = alpha_i * scale for the walls in increasing alpha, and
    groups[i] is the tuple of the (p', q', d') triples witnessing wall i, in
    (p', q', d') order and never empty; no Fraction is built.  At deg L = 0
    each family's witnesses pass `_mw_kept` before they are grouped, so a
    wall whose witnesses all fail is never listed.
    """
    r, total_degree = t.total_rank, t.total_degree
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for p_sub, q_sub, coeff, degrees in held:
        # the wall of d' is alpha = (base - d' r)/coeff, so its keys fall by r unit per degree
        base = total_degree * (p_sub + q_sub)
        unit = scale // coeff
        keys = range((base - degrees.start * r) * unit, (base - degrees.stop * r) * unit, -r * unit)
        witnesses = zip(keys, zip(repeat(p_sub), repeat(q_sub), degrees))
        if mw_twist_degree == 0:
            witnesses = _mw_kept(p_sub, q_sub, scale, witnesses)
        for key, w in witnesses:
            if key in groups:
                groups[key].append(w)
            else:
                groups[key] = [w]
    keys = sorted(groups)
    # popped, so each group's list is freed as its tuple is built
    pop = groups.pop
    return keys, [tuple(pop(key)) for key in keys]


def _window_copies(held: list, g: int, first: int, n: int) -> Iterator[tuple[int, int, int, range]]:
    """The families of held, the scan of [lo, hi], each cut to copies [first, first + n) of [lo, lo + P).

    A family has |coeff|/g walls per copy (g = gcd(p, q)), and its d' rises
    with alpha iff coeff < 0, so its copies count from the start of its
    d'-range when coeff < 0 and from the stop when coeff > 0.
    """
    for p_sub, q_sub, coeff, degrees in held:
        per_copy = abs(coeff) // g
        if coeff < 0:
            start = degrees.start + first * per_copy
        else:
            start = degrees.stop - (first + n) * per_copy
        yield p_sub, q_sub, coeff, range(max(start, degrees.start), min(start + n * per_copy, degrees.stop))


class _PeriodicWallTable(namedtuple("_PeriodicWallTable", "lo hi scale p0 q0 periods runs")):
    """The walls of `enumerate_walls` over [lo, hi] as runs of copies of its periods.

    lo and hi are the interval ends as Fractions, scale = lcm(|coeff|) over
    the families with a wall in the interval (1 when none has one), and P =
    p0 + q0 with (p0, q0) = (p, q)/gcd(p, q).  periods holds (keys, groups)
    pairs as `_walls_of` lists walls: the window, the walls of [lo, lo + P)
    unfiltered (cut at hi, and empty when the exact run starts at lo and
    reaches hi), then the exact run if there is one.  Copy j of a wall has
    key + j P scale, and each of its witnesses (p', q', d') becomes (p', q',
    d' + j (p0 q' - q0 p')).

    runs lists the walls in increasing alpha, as runs (index, first, walls),
    each holding the first `walls` (>= 1) walls of copies first, first + 1,
    ... of periods[index].
    """

    __slots__ = ()


def _period_cuts(
    lo: Fraction, hi: Fraction, period: int, scale: int, mw_twist_degree: int | None
) -> tuple[int, int, int | None, bool, int]:
    """(copies, first, stop, past_hi, bound): where `_periodic_wall_table` cuts [lo, hi] into copies of [lo, lo + P).

    copies = floor((hi - lo)/P) is the number of whole copies of the window
    in the interval.  At deg L = 0, on an interval meeting |alpha| < 2, the
    copies [first, stop) with first = max(0, floor((-2 - lo)/P)) and stop =
    ceil((2 - lo)/P) are built exactly, and past_hi is lo + stop P > hi;
    otherwise first = copies + 1, stop is None and past_hi is False.  bound
    = floor((hi - copies P) scale) is the largest key of the window whose
    wall, in copy number `copies`, is at or below hi.  All in integers, on
    the numerators and denominators of lo and hi.
    """
    lo_num, lo_den = lo.numerator, lo.denominator
    hi_num, hi_den = hi.numerator, hi.denominator
    copies = (hi_num * lo_den - lo_num * hi_den) // (period * lo_den * hi_den)
    # no exact run unless first <= copies
    first, stop, past_hi = copies + 1, None, False
    if mw_twist_degree == 0 and lo_num < 2 * lo_den and hi_num > -2 * hi_den:
        span = period * lo_den
        first = max(0, (-2 * lo_den - lo_num) // span)
        stop = -((lo_num - 2 * lo_den) // span)
        past_hi = (lo_num + stop * span) * hi_den > hi_num * lo_den
    return copies, first, stop, past_hi, (hi_num - copies * period * hi_den) * scale // hi_den


def _periodic_wall_table(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    mw_twist_degree: int | None,
) -> _PeriodicWallTable:
    """The walls of `enumerate_walls(t, interval, mw_twist_degree=mw_twist_degree)`, built from one period.

    One scan of the rank families over the whole interval counts the
    candidates, and refuses more than MAX_WITNESSES of them, or of the rank
    families, before any is built.  The window is copy 0, cut at hi
    when the interval is shorter than a period; without an exact run one run
    of its copies reaches hi.  Copies are built exactly only where the
    Milnor-Wood filter can drop a witness: at deg L = 0, the copies [first,
    stop) that meet |alpha| < 2, with lo + first P <= -2 and lo + stop P >=
    2, are one exact run between two runs of the window (the second starting
    at copy stop and cut at hi), or the exact run reaches hi when lo + stop P
    > hi.  When it also starts at lo (first = 0) no run takes the window,
    which is left empty.  All are half-open copies cut from the families'
    d'-ranges, so a wall on a cut point is in one run.
    """
    lo, hi, scale, held = _held_families(t, interval, mw_twist_degree)
    g = math.gcd(t.p, t.q)
    p0, q0 = t.p // g, t.q // g
    period = p0 + q0
    copies, first, stop, past_hi, bound = _period_cuts(lo, hi, period, scale, mw_twist_degree)
    # no copy of the window outside |alpha| < 2 loses a witness to the filter;
    # it is left empty when the exact run starts at lo and reaches hi, as no run takes it
    window = _walls_of(t, _window_copies(held, g, 0, 0 if first == 0 and past_hi else 1), scale, None)
    keys = window[0]
    walls = copies * len(keys) + sum(key <= bound for key in keys)
    # without an exact run first is copies + 1, so the first run ends at hi
    periods, runs = [window], [(0, 0, min(walls, first * len(keys)))]
    if first <= copies:
        exact = _walls_of(t, _window_copies(held, g, first, stop - first), scale, 0)
        periods.append(exact)
        runs.append((1, 0, len(exact[0])))
        if not past_hi:
            runs.append((0, stop, walls - stop * len(keys)))
    return _PeriodicWallTable(lo, hi, scale, p0, q0, tuple(periods), tuple(run for run in runs if run[2]))


def enumerate_walls(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    *,
    mw_twist_degree: int | None = None,
) -> list[Wall]:
    """Every critical value in the closed interval, with merged witness lists.

    Walls landing exactly on an interval end are included.  With
    mw_twist_degree = l (an int >= 0; None means no filter) a witness is kept
    only if some integer degree split of it satisfies the rank-free
    Milnor-Wood bounds at that wall for deg L = l.  By the width argument of
    the per-family check `_mw_kept` that keeps every witness when l >= 1; at
    l = 0 only a witness with both ranks >= 1 and min(p', q') |alpha| < 2 is
    checked, so only walls with |alpha| < 2 can lose witnesses.

    The witnesses of every family are counted before any is built; more than
    MAX_WITNESSES candidates (unfiltered, as they bound the work), or rank
    families, is a ValueError naming the count.

    The walls are those of the periodic table `_periodic_wall_table`,
    expanded run by run and copy by copy, one Fraction per wall.
    """
    _, _, scale, p0, q0, periods, runs = _periodic_wall_table(t, interval, mw_twist_degree)
    # records are built by tuple.__new__, as their constructors would build
    # them but without a Python-level call per object
    witness = partial(tuple.__new__, WallWitness)
    walls = []
    for index, first, count in runs:
        keys, groups = periods[index]
        for done in range(0, count, len(keys)):
            # copy j moves each key by j P scale and each witness (p', q', d')
            # to (p', q', d' + j (p0 q' - q0 p')); copy 0 takes its triples as they are
            copy = first + done // len(keys)
            shift = copy * (p0 + q0) * scale
            for key, group in zip(keys[: count - done], groups):
                if copy:
                    group = [(p_sub, q_sub, d_sub + copy * (p0 * q_sub - q0 * p_sub)) for p_sub, q_sub, d_sub in group]
                walls.append(tuple.__new__(Wall, (_fraction(key + shift, scale), tuple(map(witness, group)))))
    return walls


def chamber_report(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    *,
    mw_twist_degree: int | None = None,
) -> ChamberReport:
    """Walls plus the open chambers between them, in deterministic order.

    The walls are those of `enumerate_walls` with the same mw_twist_degree,
    under the same witness limit.
    """
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    walls = enumerate_walls(t, (lo, hi), mw_twist_degree=mw_twist_degree)
    alphas = [w.alpha for w in walls]
    # an interval end belongs to its chamber unless a wall sits on it; the
    # walls are sorted, so only the first and the last can
    lo_closed = not alphas or alphas[0] != lo
    hi_closed = not alphas or alphas[-1] != hi
    # the chamber boundaries: every wall, and each end that is no wall
    points = [lo] * lo_closed + alphas + [hi] * hi_closed
    last = len(points) - 2
    chambers = tuple(
        Chamber(x, y, i == 0 and lo_closed, i == last and hi_closed)
        for i, (x, y) in enumerate(zip(points, points[1:]))
    )
    return ChamberReport((lo, hi), tuple(walls), chambers)


class CertificateCondition(_Record, namedtuple("CertificateCondition", "holds alpha_window")):
    """One of the two one-sided parameter windows of the irreducibility check.

    `alpha_window`, a `BoundInterval`, records the window endpoints ([0, hi)
    for the first condition, (lo, 0] for the second; one endpoint is open as
    noted).  An empty window is the infeasible state.  `holds`, a bool,
    additionally accounts for the rank-order and slope-gap side conditions.
    """

    __slots__ = ()


class IrreducibilityCertificate(_Record, namedtuple(
    "IrreducibilityCertificate", "tau tau_bound_ok condition1 condition2 closure_irreducible fully_irreducible"
)):
    """Checkable numerical hypotheses for irreducibility of the moduli space.

    tau is a Fraction, condition1 and condition2 are `CertificateCondition`s
    and the other fields are bools.  closure_irreducible asserts the closure
    of the stable locus is covered by the hypotheses; fully_irreducible
    additionally requires gcd(p+q, a+b) = 1 so that semistable = stable on
    total slope.  A plain record: `irreducibility_certificate` sets
    closure_irreducible to tau_bound_ok and (condition1.holds or
    condition2.holds), and fully_irreducible only where closure_irreducible
    holds.
    """

    __slots__ = ()


def irreducibility_certificate(
    t: HitchinPairType, genus: int, alpha: RationalLike
) -> IrreducibilityCertificate:
    """Evaluate the irreducibility hypotheses for canonically twisted pairs.

    The twisting is the canonical bundle, so deg(L) = 2g - 2 with g >= 2.
    Inequality strictness follows the statement being checked exactly:
      tau-bound:    |tau| <= min(p,q)(2g-2)
      condition 1:  a/p - b/q > -(2g-2), q <= p,
                    0 <= alpha < 2pq/(pq - q^2 + p + q) (b/q - a/p - (2g-2)) + 2g-2
      condition 2:  a/p - b/q < 2g-2, p <= q,
                    2pq/(pq - p^2 + p + q) (b/q - a/p + 2g-2) - (2g-2) < alpha <= 0
    """
    _require_int(genus, "genus")
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {_shown_number(genus)}")
    a = as_rational(alpha)
    deg_k = 2 * genus - 2
    tau = toledo(t)
    tau_bound_ok = abs(tau) <= min(t.p, t.q) * deg_k
    gap = slope(t.p, t.a) - slope(t.q, t.b)

    hi1 = Fraction(2 * t.p * t.q, t.p * t.q - t.q * t.q + t.p + t.q) * (-gap - deg_k) + deg_k
    window1 = BoundInterval.closed(0, hi1) if hi1 > 0 else BoundInterval.infeasible()
    holds1 = t.q <= t.p and gap > -deg_k and 0 <= a < hi1

    lo2 = Fraction(2 * t.p * t.q, t.p * t.q - t.p * t.p + t.p + t.q) * (-gap + deg_k) - deg_k
    window2 = BoundInterval.closed(lo2, 0) if lo2 < 0 else BoundInterval.infeasible()
    holds2 = t.p <= t.q and gap < deg_k and lo2 < a <= 0

    closure = tau_bound_ok and (holds1 or holds2)
    return IrreducibilityCertificate(
        tau=tau,
        tau_bound_ok=tau_bound_ok,
        condition1=CertificateCondition(holds1, window1),
        condition2=CertificateCondition(holds2, window2),
        closure_irreducible=closure,
        fully_irreducible=closure and gcd_rank_degree(t) == 1,
    )
