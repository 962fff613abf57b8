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
deg L = 0, where |alpha| < 2 (see `_witness_survives_mw`), and it checks a
witness there in integers, on the wall's scaled key.
`_periodic_wall_table` builds one period and counts its copies.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import repeat

# perfbench/tracing.py patches walls.ordered_map by name, so the name stays bound
from .concurrency import ordered_map
from .core import (
    BoundInterval,
    HitchinPairType,
    RationalLike,
    _require_int,
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
# RSS.  At the witness cap ((7,5,3,-2) over [-9250, 9250]) the integer table
# `_wall_table` takes about 1 s and 177 MB peak RSS and `enumerate_walls`
# about 4 s and 212 MB, most of it cyclic GC passes over the new records.
# The CLI builds one period (`_periodic_wall_table`, 648 of the 999,004
# witnesses there) and holds the report once, as byte pieces: a JSON `walls`
# run takes about 0.34 s and 95 MB, a `chambers` run 0.49 s and 133 MB and a
# CSV run 0.32 s and 34 MB, most of the memory being the report itself (CPU
# time and peak RSS of a fresh `python -m upqstab` with stdout to /dev/null,
# Python 3.11.7, one core of a 2-vCPU Xeon VM); the largest test or
# benchmark query has about 49k witnesses.
MAX_WITNESSES = 1_000_000


class WallWitness(namedtuple("WallWitness", "p_sub q_sub d_sub")):
    """Sub-type ranks and total degree (p', q', d' = a' + b') witnessing a wall.

    A plain triple of ints: it compares, hashes and sorts as its tuple.
    """

    __slots__ = ()

    def sort_key(self) -> tuple[int, int, int]:
        return tuple(self)

    def to_json(self) -> list[int]:
        return list(self)


class Wall(namedtuple("Wall", "alpha witnesses")):
    """A critical parameter value (a Fraction) with every witnessing sub-type.

    A plain record: it compares, hashes and unpacks as its (alpha, witnesses)
    tuple, witnesses being a tuple of `WallWitness`.  Its producers guarantee
    what it does not check: at least one witness, distinct and in (p', q', d')
    order, as `enumerate_walls` emits them and as `brute_force_walls` sorts
    them.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


class Chamber(namedtuple("Chamber", "lo hi lo_closed hi_closed")):
    """A maximal wall-free segment [lo, hi] (Fractions) of the queried interval.

    The closed flags (bools) record whether the endpoint belongs to the
    chamber: an endpoint is included only when it is an end of the queried
    interval and not itself a wall.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


class ChamberReport(namedtuple("ChamberReport", "interval walls chambers")):
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
            f"witness ranks ({w.p_sub},{w.q_sub}) out of range for ambient type "
            f"({t.p},{t.q}): need 0 <= p' <= p, 0 <= q' <= q, 1 <= p'+q' <= p+q-1"
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


def _witness_survives_mw(w: tuple[int, int, int], key: int, scale: int) -> bool:
    """Is some split a' + b' = d' of the witness (p', q', d') Milnor-Wood feasible at deg L = 0?

    The wall is alpha = key/scale, key and scale ints with scale >= 1 and
    key/scale not necessarily in lowest terms.  tau' = 2a' - 2 p' d'/r' is
    affine in a', so the admissible a' form a rational interval; feasibility
    is exactly the existence of an integer in it.  A rank-0 side forces that
    side's degree to 0, hence tau' = 0, and the bounds collapse to [0, 0]:
    such witnesses always survive.

    At deg L = 0 the bounds `toledo_bounds(p', q', 0, alpha)` of regimes i
    and iii are the smaller and the larger of -m' |p' - q'| alpha / r' and
    -2 p' q' alpha / r', with m' = min(p', q') (both are 0 at alpha = 0).
    Over r' scale their numerators skew and weighted are ints, as is that
    of the shift 2 p' d'/r', so a' lies in [(min + shift)/den,
    (max + shift)/den] with den = 2 r' scale: one ceiling and one floor
    division decide the check.

    Width argument: with l = deg L, the a'-interval is closed and has length
    m' l where |alpha| <= l (regime ii) and m' (l + |alpha|) / 2 where
    |alpha| > l (regimes i and iii).  A closed interval of length >= 1 holds
    an integer, so every witness survives at l >= 1, and at l = 0 only a
    witness with m' |alpha| < 2 can fail.  `_wall_table` calls this check
    only for those.
    """
    p_sub, q_sub, d_sub = w
    if p_sub == 0 or q_sub == 0:
        return True
    skew = -min(p_sub, q_sub) * abs(p_sub - q_sub) * key
    weighted = -2 * p_sub * q_sub * key
    shift = 2 * p_sub * d_sub * scale
    den = 2 * (p_sub + q_sub) * scale
    return -(-(min(skew, weighted) + shift) // den) <= (max(skew, weighted) + shift) // den


def _held_families(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    mw_twist_degree: int | None,
) -> tuple[Fraction, Fraction, list[tuple[int, int, int, range]]]:
    """The interval ends as Fractions, and each family with a wall in the interval.

    Families come in (p', q') order as (p', q', coeff, degrees), degrees being
    the range of d' whose wall lies in the interval.  More than MAX_WITNESSES
    rank families, or candidate witnesses, is refused before any is listed.
    """
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    if lo > hi:
        raise ValueError(f"empty interval direction: lo={lo} > hi={hi}")
    if mw_twist_degree is not None:
        _require_int(mw_twist_degree, "mw_twist_degree")
        if mw_twist_degree < 0:
            raise ValueError(
                f"mw_twist_degree (deg L of the Milnor-Wood filter) must be >= 0, got {mw_twist_degree}"
            )

    # of the (p+1)(q+1) sub-ranks (p', q'), the gcd(p, q) + 1 multiples of
    # (p, q)/gcd(p, q), from (0, 0) to (p, q), are not families
    family_count = (t.p + 1) * (t.q + 1) - math.gcd(t.p, t.q) - 1
    if family_count > MAX_WITNESSES:
        raise ValueError(
            f"the type has {family_count} rank families, more than the limit of "
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
            f"the interval holds {count} candidate witnesses, more than the limit of "
            f"{MAX_WITNESSES}; query a narrower interval"
        )
    return lo, hi, held


def _wall_table(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    mw_twist_degree: int | None,
) -> tuple[Fraction, Fraction, int, list[int], list[tuple[tuple[int, int, int], ...]]]:
    """The walls of `enumerate_walls` as plain ints: (lo, hi, scale, keys, groups).

    lo and hi are the interval ends as Fractions.  The walls are scaled by
    scale = lcm(|coeff|) over the families with a wall in the interval (1 when
    none has one) to integer keys, so keys[i] = alpha_i * scale for the walls
    in increasing alpha, and groups[i] is the tuple of the (p', q', d')
    triples witnessing wall i, in (p', q', d') order and never empty.  No
    Fraction is built per wall, nor per witness the Milnor-Wood filter
    checks: it checks on the integer key.  More than MAX_WITNESSES rank
    families, or candidate witnesses, is refused before any is listed, or
    any key is built.
    """
    lo, hi, held = _held_families(t, interval, mw_twist_degree)
    r, total_degree = t.total_rank, t.total_degree
    scale = math.lcm(*(abs(coeff) for _, _, coeff, _ in held))
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for p_sub, q_sub, coeff, degrees in held:
        # the wall of d' is alpha = (base - d' r)/coeff, so its keys fall by r unit per degree
        base = total_degree * (p_sub + q_sub)
        unit = scale // coeff
        keys = range((base - degrees.start * r) * unit, (base - degrees.stop * r) * unit, -r * unit)
        for key, w in zip(keys, zip(repeat(p_sub), repeat(q_sub), degrees)):
            if key in groups:
                groups[key].append(w)
            else:
                groups[key] = [w]
    # at deg L = 0 a witness can fail the filter only if min(p', q') |key| < 2 scale
    narrow = 2 * scale if mw_twist_degree == 0 else 0
    kept_keys = []
    kept_groups = []
    for key in sorted(groups):
        # popped, so each group's list is freed as its tuple is built
        witnesses = groups.pop(key)
        if -narrow < key < narrow:
            witnesses = [
                w for w in witnesses
                if min(w[0], w[1]) * abs(key) >= narrow or _witness_survives_mw(w, key, scale)
            ]
            if not witnesses:
                continue
        kept_keys.append(key)
        kept_groups.append(tuple(witnesses))
    return lo, hi, scale, kept_keys, kept_groups


class _PeriodicWallTable(namedtuple("_PeriodicWallTable", "lo hi scale keys groups p0 q0 copies prefix")):
    """The walls of `_wall_table` over [lo, hi] as one period of them.

    lo, hi, scale, keys and groups are as in `_wall_table`, but keys and
    groups hold only the walls of the window [lo, lo + P), P = p0 + q0 with
    (p0, q0) = (p, q)/gcd(p, q).  The interval holds `copies` shifted copies
    of the window, then copy number `copies` of its first `prefix` walls.
    Copy j of a wall has key + j P scale, and each of its witnesses (p', q',
    d') becomes (p', q', d' + j (p0 q' - q0 p')).  With copies = 0 the window
    is the whole interval and prefix is its wall count.
    """

    __slots__ = ()


def _periodic_wall_table(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    mw_twist_degree: int | None,
) -> _PeriodicWallTable:
    """The walls of `_wall_table(t, interval, mw_twist_degree)`, built from one period.

    The candidates are counted, and refused, over the whole interval before
    any is built, with the limits and messages of `_wall_table`.  The window
    is the whole interval when it is shorter than a period, and when the
    Milnor-Wood filter can drop a witness: at deg L = 0 on an interval that
    meets |alpha| < 2.
    """
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    g = math.gcd(t.p, t.q)
    p0, q0 = t.p // g, t.q // g
    period = p0 + q0
    copies = math.floor((hi - lo) / period)
    if mw_twist_degree == 0 and lo < 2 and hi > -2:
        copies = 0
    if copies < 1:
        _, _, scale, keys, groups = _wall_table(t, (lo, hi), mw_twist_degree)
        return _PeriodicWallTable(lo, hi, scale, keys, groups, p0, q0, 0, len(keys))
    # counted, and refused, over the whole interval before the window is built
    _held_families(t, (lo, hi), mw_twist_degree)
    # every family has a wall in every period (its walls are r/|coeff| <= P
    # apart), so the window has walls and its scale is the interval's
    _, _, scale, keys, groups = _wall_table(t, (lo, lo + period), mw_twist_degree)
    if keys[-1] == (lo + period) * scale:
        keys.pop()
        groups.pop()
    # copy number `copies` of the window starts at lo + copies P and is cut at hi
    bound = math.floor((hi - copies * period) * scale)
    prefix = sum(key <= bound for key in keys)
    return _PeriodicWallTable(lo, hi, scale, keys, groups, p0, q0, copies, prefix)


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
    `_witness_survives_mw` that keeps every witness when l >= 1; at l = 0
    only a witness with both ranks >= 1 and min(p', q') |alpha| < 2 is
    checked, so only walls with |alpha| < 2 can lose witnesses.

    The witnesses of every family are counted before any is built; more than
    MAX_WITNESSES candidates (unfiltered, as they bound the work), or rank
    families, is a ValueError naming the count.

    The walls are those of the integer table `_wall_table`, one Fraction per
    wall.
    """
    _, _, scale, keys, groups = _wall_table(t, interval, mw_twist_degree)
    # records are built by tuple.__new__, as their constructors would build
    # them but without a Python-level call per object; each group is popped,
    # so its triples are freed as its record is built
    witness = partial(tuple.__new__, WallWitness)
    groups.reverse()
    return [tuple.__new__(Wall, (Fraction(key, scale), tuple(map(witness, groups.pop())))) for key in keys]


def _chamber_tiling(lo, hi, alphas):
    """How the sorted walls alphas inside [lo, hi] cut it into chambers.

    Works on any ordered values: Fractions, or ints and Fractions scaled
    alike.  Returns None when [lo, hi] is one point on a wall, which leaves no
    chamber.  Otherwise returns (inner, lo_closed, hi_closed): the chamber
    boundaries are lo, the walls alphas[inner] and hi, and chamber i lies
    between boundaries i and i + 1.  Only the first chamber's lo and the last
    one's hi can be closed, as lo_closed and hi_closed say: an interval end
    belongs to its chamber unless a wall sits on it.  Walls come sorted, so
    only the first and last can sit on an interval end.
    """
    lo_closed = not alphas or alphas[0] != lo
    hi_closed = not alphas or alphas[-1] != hi
    if lo == hi and not lo_closed:
        return None
    return slice(not lo_closed, len(alphas) - (not hi_closed)), lo_closed, hi_closed


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
    tiling = _chamber_tiling(lo, hi, alphas)
    chambers = []
    if tiling is not None:
        inner, lo_closed, hi_closed = tiling
        points = [lo, *alphas[inner], hi]
        last = len(points) - 2
        chambers = [
            Chamber(x, y, i == 0 and lo_closed, i == last and hi_closed)
            for i, (x, y) in enumerate(zip(points, points[1:]))
        ]
    return ChamberReport((lo, hi), tuple(walls), tuple(chambers))


class CertificateCondition(namedtuple("CertificateCondition", "holds alpha_window")):
    """One of the two one-sided parameter windows of the irreducibility check.

    `alpha_window`, a `BoundInterval`, records the window endpoints ([0, hi)
    for the first condition, (lo, 0] for the second; one endpoint is open as
    noted).  An empty window is the infeasible state.  `holds`, a bool,
    additionally accounts for the rank-order and slope-gap side conditions.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"holds": self.holds, "alpha_window": self.alpha_window.to_json()}


class IrreducibilityCertificate(namedtuple(
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

    def to_json(self) -> dict:
        return {
            "tau": format_rational(self.tau),
            "tau_bound_ok": self.tau_bound_ok,
            "condition1": self.condition1.to_json(),
            "condition2": self.condition2.to_json(),
            "closure_irreducible": self.closure_irreducible,
            "fully_irreducible": self.fully_irreducible,
        }


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
        raise ValueError(f"genus must be at least 2, got {genus}")
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
