"""Milnor-Wood bounds on the Toledo invariant of semistable U(p,q)-Hitchin pairs.

Two levels of bounds are provided: `toledo_bounds_for_ranks` takes the ranks
of the two Higgs-field components as known data, `toledo_bounds` optimizes
them away and returns the three-regime envelope in the stability parameter.
Both return exact rational closed intervals.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import (
    BoundInterval,
    HiggsRankPair,
    HitchinPairType,
    RationalLike,
    _require_int,
    as_rational,
    format_rational,
    toledo,
)


def toledo_bounds_for_ranks(
    t: HitchinPairType, deg_l: int, alpha: RationalLike, ranks: HiggsRankPair
) -> BoundInterval:
    """Bounds on tau for a semistable pair with given Higgs-field ranks.

    lower = -rk(beta) deg(L) + alpha (rk(beta) - 2pq/(p+q))
    upper =  rk(gamma) deg(L) + alpha (rk(gamma) - 2pq/(p+q))

    deg(L) may be any integer here.  The interval can be empty, in which case
    the infeasible state is returned.  Both bounds are computed as integer
    numerators over the common denominator (p+q) * den(alpha).
    """
    _require_int(deg_l, "deg_l")
    ranks.validate_for(t)
    a = as_rational(alpha)
    n, den = a.numerator, t.total_rank * a.denominator
    weight = 2 * t.p * t.q  # the numerator of 2pq/(p+q)
    lower = -ranks.rk_beta * deg_l * den + n * (ranks.rk_beta * t.total_rank - weight)
    upper = ranks.rk_gamma * deg_l * den + n * (ranks.rk_gamma * t.total_rank - weight)
    if lower > upper:
        return BoundInterval.infeasible()
    return BoundInterval(Fraction(lower, den), Fraction(upper, den))


def toledo_bounds(p: int, q: int, deg_l: int, alpha: RationalLike) -> BoundInterval:
    """Sharpest rank-free bounds on tau, labeled by parameter regime.

    Regimes in alpha (deg(L) >= 0 required):
      i    alpha <= -deg(L)
      ii   -deg(L) <= alpha <= deg(L)
      iii  deg(L) <= alpha

    At the two boundary values adjacent regime formulas agree exactly; the
    returned interval there carries the label "ii".  The agreement is a
    tested identity, not a runtime check.

    Every bound is an integer numerator over the common denominator
    (p+q) * den(alpha), so each returned endpoint costs one Fraction.
    """
    if not (type(p) is int and type(q) is int and type(deg_l) is int):  # exact ints need no check
        _require_int(p, "p")
        _require_int(q, "q")
        _require_int(deg_l, "deg_l")
    if p < 1 or q < 1:
        raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={p}, q={q}")
    if deg_l < 0:
        raise ValueError(f"deg(L) must be non-negative for rank-free bounds, got {deg_l}")
    a = as_rational(alpha)
    n, d = a.numerator, a.denominator
    den = (p + q) * d
    m = min(p, q)
    skewed = n * abs(p - q)  # alpha |p-q|/(p+q), over den
    l_den = deg_l * den  # deg(L), over den

    lower_low = -m * (skewed + l_den)  # minimizing side for alpha <= deg(L)
    upper_high = m * (l_den - skewed)  # maximizing side for alpha >= -deg(L)
    weighted = -2 * p * q * n  # -alpha 2pq/(p+q), over den

    if n < -deg_l * d:  # alpha < -deg(L)
        return BoundInterval(Fraction(lower_low, den), Fraction(weighted, den), "i")
    if n > deg_l * d:  # alpha > deg(L)
        return BoundInterval(Fraction(weighted, den), Fraction(upper_high, den), "iii")
    return BoundInterval(Fraction(lower_low, den), Fraction(upper_high, den), "ii")


class MWVerdict(namedtuple("MWVerdict", "passed side margin tau interval")):
    """Outcome of a Milnor-Wood membership check.

    passed is a bool, tau the Fraction checked and interval the applicable
    `BoundInterval`.  On failure `side` (a str, else None) names the violated
    bound ("lower", "upper", or "infeasible" when the interval itself is
    empty) and `margin` (a Fraction, else None) is the exact distance to it
    (None only for an infeasible interval, which carries no endpoints).  A
    plain record built by `mw_check`.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "side": self.side,
            "margin": None if self.margin is None else format_rational(self.margin),
            "tau": format_rational(self.tau),
            "interval": self.interval.to_json(),
        }


def mw_check(
    t: HitchinPairType,
    deg_l: int,
    alpha: RationalLike,
    ranks: HiggsRankPair | None = None,
) -> MWVerdict:
    """Check whether toledo(t) lies in the applicable Milnor-Wood interval.

    With `ranks` the rank-level bounds are used (any integer deg(L));
    without, the rank-free regime bounds (deg(L) >= 0).
    """
    tau = toledo(t)
    if ranks is not None:
        interval = toledo_bounds_for_ranks(t, deg_l, alpha, ranks)
    else:
        interval = toledo_bounds(t.p, t.q, deg_l, alpha)
    if interval.is_infeasible:
        return MWVerdict(False, "infeasible", None, tau, interval)
    if tau < interval.lower:
        return MWVerdict(False, "lower", interval.lower - tau, tau, interval)
    if tau > interval.upper:
        return MWVerdict(False, "upper", tau - interval.upper, tau, interval)
    return MWVerdict(True, None, None, tau, interval)
