"""Critical values of the stability parameter, chambers, and irreducibility checks.

A value of the stability parameter is critical ("a wall") for a numerical
type t = (p, q, a, b) when some proper sub-type t' = (p', q', a', b') with a
different rank ratio p'/(p'+q') != p/(p+q) can have equal parameter-weighted
slope.  Since that slope depends on (p', q', d') with d' = a' + b' only,
witnesses are stored in that collapsed form; the split (a', b') is
reconstructed only inside the optional Milnor-Wood feasibility filter.

Semistability is constant on the open chambers between consecutive walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .concurrency import ordered_map
from .core import (
    BoundInterval,
    GeometryContext,
    HitchinPairType,
    RationalLike,
    as_rational,
    format_rational,
    gcd_rank_degree,
    slope,
    toledo,
)
from .milnor_wood import toledo_bounds


class WallWitness(NamedTuple):
    """Sub-type ranks and total degree (p', q', d' = a' + b') witnessing a wall.

    A plain integer triple: it compares, hashes and sorts as its tuple.
    """

    p_sub: int
    q_sub: int
    d_sub: int

    def sort_key(self) -> tuple[int, int, int]:
        return tuple(self)

    def to_json(self) -> list[int]:
        return list(self)


@dataclass(frozen=True)
class Wall:
    """A critical parameter value with every witnessing sub-type.

    The producer orders the witnesses: they must be distinct and in
    (p', q', d') order, as `enumerate_walls` emits them and as
    `brute_force_walls` sorts them.  Stored as given.
    """

    alpha: Fraction
    witnesses: tuple[WallWitness, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        if not self.witnesses:
            raise ValueError("a wall must carry at least one witness")

    def to_json(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


@dataclass(frozen=True)
class Chamber:
    """A maximal wall-free segment of the queried interval.

    The closed flags record whether the endpoint belongs to the chamber: an
    endpoint is included only when it is an end of the queried interval and
    not itself a wall.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


@dataclass(frozen=True)
class ChamberReport:
    """Walls in an interval plus the chamber decomposition between them."""

    interval: tuple[Fraction, Fraction]
    walls: tuple[Wall, ...]
    chambers: tuple[Chamber, ...]

    def __post_init__(self) -> None:
        alphas = [w.alpha for w in self.walls]
        if any(x >= y for x, y in zip(alphas, alphas[1:])):
            raise ValueError("wall parameter values must be strictly increasing")

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


def _wall_families(t: HitchinPairType) -> list[tuple[int, int, int]]:
    """Sub-ranks (p', q') that can witness a wall, with coeff = p' r - p r' != 0.

    Listed in (p', q') order, which is also the witness order inside a wall.
    """
    r = t.total_rank
    families = []
    for p_sub in range(t.p + 1):
        for q_sub in range(t.q + 1):
            r_sub = p_sub + q_sub
            coeff = p_sub * r - t.p * r_sub
            if 1 <= r_sub <= r - 1 and coeff:
                families.append((p_sub, q_sub, coeff))
    return families


def _family_walls(
    t: HitchinPairType, family: tuple[int, int, int], lo: Fraction, hi: Fraction, scale: int
) -> tuple[int, int, range, range]:
    """Every wall of one rank family in [lo, hi], with no degree cutoff.

    The wall of (p', q', d') is alpha = (D r' - d' r)/coeff, so slope equality
    pins d' as an affine function of alpha and inverting it at the interval
    ends yields the complete d'-range.  Returns (p', q', degrees, keys), where
    keys[i] = alpha * scale is the integer key of the wall witnessed by
    degrees[i]; both are arithmetic progressions, so no Fraction is built.
    """
    p_sub, q_sub, coeff = family
    r = t.total_rank
    base = t.total_degree * (p_sub + q_sub)
    # d' at alpha = n/m is (base m - n coeff)/(r m); it falls as alpha rises iff coeff > 0
    ends = [(base * x.denominator - x.numerator * coeff, r * x.denominator) for x in (lo, hi)]
    (num_min, den_min), (num_max, den_max) = ends if coeff < 0 else ends[::-1]
    d_min = -(-num_min // den_min)
    d_max = num_max // den_max
    unit = scale // coeff
    degrees = range(d_min, d_max + 1)
    keys = range((base - d_min * r) * unit, (base - (d_max + 1) * r) * unit, -r * unit)
    return p_sub, q_sub, degrees, keys


def _witness_survives_mw(w: WallWitness, deg_l: int, alpha: Fraction) -> bool:
    """Is some split a' + b' = d' of the witness Milnor-Wood feasible at alpha?

    tau' = 2a' - 2 p' d'/r' is affine in a', so the admissible a' form a
    rational interval; feasibility is exactly the existence of an integer in
    it.  A rank-0 side forces that side's degree to 0, hence tau' = 0, and
    the bounds collapse to [0, 0]: such witnesses always survive.
    """
    if w.p_sub == 0 or w.q_sub == 0:
        return True
    bounds = toledo_bounds(w.p_sub, w.q_sub, deg_l, alpha)
    if bounds.is_infeasible:
        return False
    r_sub = w.p_sub + w.q_sub
    shift = Fraction(2 * w.p_sub * w.d_sub, r_sub)
    a_lo = (bounds.lower + shift) / 2
    a_hi = (bounds.upper + shift) / 2
    return math.ceil(a_lo) <= math.floor(a_hi)


def enumerate_walls(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    *,
    mw_filter: bool = False,
    ctx: GeometryContext | None = None,
    jobs: int | None = None,
) -> list[Wall]:
    """Every critical value in the closed interval, with merged witness lists.

    Walls landing exactly on an interval end are included.  With mw_filter a
    witness is kept only if some integer degree split of it satisfies the
    rank-free Milnor-Wood bounds at that wall (requires ctx with
    twist_degree >= 0).

    Every family's walls are scaled by L = lcm(|coeff|) to integer keys, so
    candidates are grouped and sorted as plain ints and one Fraction is built
    per distinct wall.
    """
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    if lo > hi:
        raise ValueError(f"empty interval direction: lo={lo} > hi={hi}")
    if mw_filter:
        if ctx is None:
            raise ValueError("mw_filter requires a geometry context")
        if ctx.twist_degree < 0:
            raise ValueError(
                f"mw_filter requires twist_degree >= 0, got {ctx.twist_degree}"
            )

    families = _wall_families(t)
    scale = math.lcm(*(abs(coeff) for _, _, coeff in families))
    per_family = ordered_map(
        lambda family: _family_walls(t, family, lo, hi, scale), families, jobs
    )
    groups: dict[int, list[WallWitness]] = {}
    for p_sub, q_sub, degrees, keys in per_family:
        for key, d_sub in zip(keys, degrees):
            groups.setdefault(key, []).append(WallWitness(p_sub, q_sub, d_sub))
    walls = []
    for key in sorted(groups):
        alpha = Fraction(key, scale)
        witnesses = groups[key]
        if mw_filter:
            witnesses = [
                w for w in witnesses if _witness_survives_mw(w, ctx.twist_degree, alpha)
            ]
        if witnesses:
            walls.append(Wall(alpha, tuple(witnesses)))
    return walls


def chamber_report(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    *,
    mw_filter: bool = False,
    ctx: GeometryContext | None = None,
    jobs: int | None = None,
) -> ChamberReport:
    """Walls plus the open chambers between them, in deterministic order."""
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    walls = enumerate_walls(t, (lo, hi), mw_filter=mw_filter, ctx=ctx, jobs=jobs)
    if lo == hi:
        chambers = [] if walls else [Chamber(lo, hi, True, True)]
    else:
        # walls come sorted, so only the first and last can sit on an interval end
        alphas = [w.alpha for w in walls]
        lo_closed = not alphas or alphas[0] != lo
        hi_closed = not alphas or alphas[-1] != hi
        points = [lo, *alphas[(not lo_closed):len(alphas) - (not hi_closed)], hi]
        last = len(points) - 2
        chambers = [
            Chamber(x, y, i == 0 and lo_closed, i == last and hi_closed)
            for i, (x, y) in enumerate(zip(points, points[1:]))
        ]
    return ChamberReport((lo, hi), tuple(walls), tuple(chambers))


@dataclass(frozen=True)
class CertificateCondition:
    """One of the two one-sided parameter windows of the irreducibility check.

    `alpha_window` records the window endpoints ([0, hi) for the first
    condition, (lo, 0] for the second; one endpoint is open as noted).  An
    empty window is the infeasible state.  `holds` additionally accounts for
    the rank-order and slope-gap side conditions.
    """

    holds: bool
    alpha_window: BoundInterval

    def to_json(self) -> dict:
        return {"holds": self.holds, "alpha_window": self.alpha_window.to_json()}


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Checkable numerical hypotheses for irreducibility of the moduli space.

    closure_irreducible asserts the closure of the stable locus is covered by
    the hypotheses; fully_irreducible additionally requires
    gcd(p+q, a+b) = 1 so that semistable = stable on total slope.
    """

    tau: Fraction
    tau_bound_ok: bool
    condition1: CertificateCondition
    condition2: CertificateCondition
    closure_irreducible: bool
    fully_irreducible: bool

    def __post_init__(self) -> None:
        if self.closure_irreducible != (
            self.tau_bound_ok and (self.condition1.holds or self.condition2.holds)
        ):
            raise ValueError("closure_irreducible is inconsistent with its components")
        if self.fully_irreducible and not self.closure_irreducible:
            raise ValueError("fully_irreducible requires closure_irreducible")

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
    if not isinstance(genus, int) or isinstance(genus, bool):
        raise TypeError(f"genus must be an integer, got {genus!r}")
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
