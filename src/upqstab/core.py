"""Exact numerical invariants of U(p,q)-Hitchin pairs and quiver bundles.

A U(p,q)-Hitchin pair (V, W, beta, gamma) is carried here only through its
numerical type t = (p, q, a, b) = (rk V, rk W, deg V, deg W); a quiver bundle
only through per-vertex (rank, degree) data.  The quiver's arrows and their
twisting enter no formula and are not modelled.  Everything downstream
(slopes, Toledo invariants, Milnor-Wood bounds, wall enumeration) is a
function of these integers and of exact rational stability parameters.

The inputs are named tuples (`ParameterVector` a tuple of Fractions) that
check their fields in `__new__`; `_make` and `_replace` go through it, so no
path builds an invalid input.  Each compares equal to its plain tuple.  A
value built here from values that are already valid (`dual`, `shifted`,
`upq_quiver_type`, `upq_parameter_vector`) is built by `tuple.__new__`,
without checking again what cannot fail.

All arithmetic is arbitrary-precision exact rational via fractions.Fraction,
which stores values in lowest terms with positive denominator.  Floats are
rejected at the boundary: walls and regime boundaries are equalities that
floating point cannot certify.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact Fraction.

    Floats are refused: the engine is float-free by design.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected a rational value, got bool {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(
            f"floating point is not allowed in the engine (got {value!r}); "
            "pass an int, Fraction, or 'num/den' string"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a plain integer string into a Fraction."""
    num_s, slash, den_s = text.strip().partition("/")
    try:
        num, den = int(num_s), int(den_s) if slash else 1
    except ValueError:
        raise ValueError(f"expected an integer or 'num/den' with integer parts, got {text!r}") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Serialize a rational as the exact "num/den" string (always with a slash)."""
    return f"{value.numerator}/{value.denominator}"


def _require_int(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _require_label(label: str | None) -> str | None:
    if label not in (None, "i", "ii", "iii"):
        raise ValueError(f"regime_label must be one of 'i', 'ii', 'iii', got {label!r}")
    return label


def _input_record(name: str, fields: str) -> type:
    """A namedtuple base whose `_make`, and with it `_replace`, calls the subclass's `__new__`."""
    base = namedtuple(name, fields)
    # a plain namedtuple's _make calls tuple.__new__, which would skip the checks
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class HitchinPairType(_input_record("HitchinPairType", "p q a b")):
    """Numerical type t = (p, q, a, b) of a U(p,q)-Hitchin pair: four ints, p, q >= 1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, a: int, b: int) -> "HitchinPairType":
        if not (type(p) is int and type(q) is int and type(a) is int and type(b) is int):  # exact ints need no check
            for value, name in ((p, "p"), (q, "q"), (a, "a"), (b, "b")):
                _require_int(value, name)
        if p < 1 or q < 1:
            raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={p}, q={q}")
        return tuple.__new__(cls, (p, q, a, b))

    @property
    def total_rank(self) -> int:
        return self.p + self.q

    @property
    def total_degree(self) -> int:
        return self.a + self.b

    def rank_ratio(self) -> Fraction:
        """The ratio p/(p+q) weighting the stability parameter."""
        return Fraction(self.p, self.p + self.q)

    def dual(self) -> "HitchinPairType":
        """Swap the two bundles: (p, q, a, b) -> (q, p, b, a)."""
        return tuple.__new__(HitchinPairType, (self.q, self.p, self.b, self.a))

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "a": self.a, "b": self.b}

    @classmethod
    def parse(cls, text: str) -> "HitchinPairType":
        """Parse "p,q,a,b"."""
        try:
            p, q, a, b = (int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"expected 'p,q,a,b' with four integers, got {text!r}") from None
        return cls(p, q, a, b)


class GeometryContext(_input_record("GeometryContext", "genus twist_degree canonical")):
    """Base-curve genus (int >= 0) and twisting-bundle degree (int); canonical (bool) pins it to 2g - 2."""

    __slots__ = ()

    def __new__(cls, genus: int, twist_degree: int, canonical: bool = False) -> "GeometryContext":
        _require_int(genus, "genus")
        _require_int(twist_degree, "twist_degree")
        if genus < 0:
            raise ValueError(f"genus must be non-negative, got {genus}")
        if canonical and twist_degree != 2 * genus - 2:
            raise ValueError(
                f"canonical twist requires twist_degree = 2*genus - 2 = {2 * genus - 2}, "
                f"got {twist_degree}"
            )
        return tuple.__new__(cls, (genus, twist_degree, canonical))

    @classmethod
    def canonical_twist(cls, genus: int) -> "GeometryContext":
        return cls(genus=genus, twist_degree=2 * genus - 2, canonical=True)

    def to_json(self) -> dict:
        return {"genus": self.genus, "twist_degree": self.twist_degree, "canonical": self.canonical}


class HiggsRankPair(_input_record("HiggsRankPair", "rk_beta rk_gamma")):
    """Ranks (two ints >= 0) of the Higgs-field components beta: W -> V (x) L and gamma: V -> W (x) L."""

    __slots__ = ()

    def __new__(cls, rk_beta: int, rk_gamma: int) -> "HiggsRankPair":
        self = tuple.__new__(cls, (_require_int(rk_beta, "rk_beta"), _require_int(rk_gamma, "rk_gamma")))
        if rk_beta < 0 or rk_gamma < 0:
            raise ValueError(f"Higgs field ranks must be non-negative, got {self}")
        return self

    def validate_for(self, t: HitchinPairType) -> None:
        cap = min(t.p, t.q)
        if self.rk_beta > cap or self.rk_gamma > cap:
            raise ValueError(
                f"Higgs field ranks {self.rk_beta},{self.rk_gamma} out of range for type "
                f"({t.p},{t.q},{t.a},{t.b}): each must be <= min(p,q) = {cap}"
            )

    def to_json(self) -> dict:
        return {"rk_beta": self.rk_beta, "rk_gamma": self.rk_gamma}


class QuiverNumericalType(_input_record("QuiverNumericalType", "ranks degrees")):
    """Per-vertex (rank, degree) data of a quiver bundle: equal-length int tuples, ranks >= 0, sum >= 1."""

    __slots__ = ()

    def __new__(cls, ranks: Iterable[int], degrees: Iterable[int]) -> "QuiverNumericalType":
        # tuples of exact ints need no conversion
        if not (type(ranks) is tuple and type(degrees) is tuple and all(type(x) is int for x in ranks + degrees)):
            ranks = tuple(_require_int(r, "rank") for r in ranks)
            degrees = tuple(_require_int(d, "degree") for d in degrees)
        if len(ranks) != len(degrees):
            raise ValueError(f"rank/degree length mismatch: {len(ranks)} vs {len(degrees)}")
        if min(ranks, default=0) < 0:
            raise ValueError(f"vertex ranks must be non-negative, got {ranks}")
        if sum(ranks) < 1:
            raise ValueError("total rank must be at least 1")
        return tuple.__new__(cls, (ranks, degrees))

    @property
    def vertex_count(self) -> int:
        return len(self.ranks)

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    def to_json(self) -> dict:
        return {"ranks": list(self.ranks), "degrees": list(self.degrees)}


class ParameterVector(tuple):
    """Per-vertex exact rational stability parameters (alpha_i): a tuple of Fractions."""

    __slots__ = ()

    def __new__(cls, values: Iterable[RationalLike]) -> "ParameterVector":
        return tuple.__new__(cls, map(as_rational, values))

    @classmethod
    def of(cls, *values: RationalLike) -> "ParameterVector":
        return cls(values)

    def __repr__(self) -> str:
        return f"ParameterVector({tuple(self)!r})"

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def shifted(self, constant: RationalLike) -> "ParameterVector":
        """Overall translation alpha -> alpha + a*(1,...,1)."""
        a = as_rational(constant)
        return tuple.__new__(ParameterVector, [v + a for v in self])

    def to_json(self) -> dict:
        return {"alpha": [format_rational(v) for v in self]}


class BoundInterval(namedtuple("BoundInterval", "lower upper regime_label", defaults=(None,))):
    """Closed interval [lower, upper] of exact rationals, or the infeasible state.

    lower and upper are Fractions with lower <= upper, or both None in the
    infeasible state (an empty interval is never stored as lower > upper);
    regime_label is "i", "ii", "iii" or None.  A plain record built by the
    engine: values from outside go through `closed` or `infeasible`, which
    check them.
    """

    __slots__ = ()

    @classmethod
    def closed(
        cls, lower: RationalLike, upper: RationalLike, regime_label: str | None = None
    ) -> "BoundInterval":
        lower, upper = as_rational(lower), as_rational(upper)
        if lower > upper:
            raise ValueError(
                f"lower bound {lower} exceeds upper bound {upper}; "
                "use BoundInterval.infeasible() for empty intervals"
            )
        return cls(lower, upper, _require_label(regime_label))

    @classmethod
    def infeasible(cls, regime_label: str | None = None) -> "BoundInterval":
        return cls(None, None, _require_label(regime_label))

    @property
    def is_infeasible(self) -> bool:
        return self.lower is None

    def contains(self, value: RationalLike) -> bool:
        if self.is_infeasible:
            return False
        x = as_rational(value)
        return self.lower <= x <= self.upper

    def to_json(self) -> dict:
        if self.is_infeasible:
            return {"infeasible": True, "regime_label": self.regime_label}
        return {
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "regime_label": self.regime_label,
        }


def upq_quiver_type(t: HitchinPairType) -> QuiverNumericalType:
    """Numerical type of t viewed as a bundle over the two-vertex quiver."""
    p, q, a, b = t
    return tuple.__new__(QuiverNumericalType, ((p, q), (a, b)))


_ZERO = Fraction(0)


def upq_parameter_vector(alpha: RationalLike) -> ParameterVector:
    """The scalar parameter as a vector (alpha, 0): the weight sits on the V-vertex."""
    return tuple.__new__(ParameterVector, (as_rational(alpha), _ZERO))


def slope(rank: int, degree: int) -> Fraction:
    """Slope of a bundle: degree divided by rank."""
    _require_int(rank, "rank")
    _require_int(degree, "degree")
    if rank < 1:
        raise ValueError(f"undefined slope: rank must be >= 1, got {rank}")
    return Fraction(degree, rank)


def _slope_terms(e: QuiverNumericalType, alpha: ParameterVector) -> tuple[int, int]:
    """mu_alpha(e) as (num, den) with den > 0, not in lowest terms."""
    if len(alpha) != e.vertex_count:
        raise ValueError(
            f"parameter vector has {len(alpha)} entries for {e.vertex_count} vertices"
        )
    # the sum as num/den over the product of the alpha denominators
    num, den = e.total_degree, 1
    for a, r in zip(alpha, e.ranks):
        d = a.denominator
        num = num * d + a.numerator * r * den
        den *= d
    return num, den * e.total_rank


def alpha_slope_quiver(e: QuiverNumericalType, alpha: ParameterVector | Sequence[RationalLike]) -> Fraction:
    """Parameter-weighted slope sum_i(deg E_i + alpha_i rk E_i) / sum_i rk E_i."""
    if not isinstance(alpha, ParameterVector):
        alpha = ParameterVector(alpha)
    # one gcd, in the Fraction
    return Fraction(*_slope_terms(e, alpha))


def alpha_slope_upq(t: HitchinPairType, alpha: RationalLike) -> Fraction:
    """mu_alpha of a U(p,q)-type: mu(V + W) + alpha * p/(p+q)."""
    return slope(t.total_rank, t.total_degree) + as_rational(alpha) * t.rank_ratio()


def toledo(t: HitchinPairType) -> Fraction:
    """Toledo invariant tau = 2pq/(p+q) * (mu(V) - mu(W)) = 2(qa - pb)/(p+q)."""
    return Fraction(2 * (t.q * t.a - t.p * t.b), t.p + t.q)


def alpha_to_c_pair(t: HitchinPairType, alpha: RationalLike) -> tuple[Fraction, Fraction]:
    """Convert alpha to the gauge-theoretic pair (c1, c2).

    (c1, c2) is pinned exactly by c2 - c1 = alpha together with the
    Chern-Weil constraint p/(p+q) c1 + q/(p+q) c2 = mu(V + W).
    """
    a = as_rational(alpha)
    mu = slope(t.total_rank, t.total_degree)
    c1 = mu - a * Fraction(t.q, t.p + t.q)
    c2 = mu + a * Fraction(t.p, t.p + t.q)
    return c1, c2


def compare_at(
    sub: QuiverNumericalType,
    whole: QuiverNumericalType,
    alpha: ParameterVector | Sequence[RationalLike],
) -> int:
    """Exact sign of mu_alpha(sub) - mu_alpha(whole) in {-1, 0, +1}.

    Compares the two slopes as num/den pairs cross-multiplied in integers,
    with no Fraction built.
    """
    if sub.vertex_count != whole.vertex_count:
        raise ValueError(
            f"vertex count mismatch: sub has {sub.vertex_count}, whole has {whole.vertex_count}"
        )
    if not isinstance(alpha, ParameterVector):
        alpha = ParameterVector(alpha)
    n1, d1 = _slope_terms(sub, alpha)
    n2, d2 = _slope_terms(whole, alpha)
    # both denominators are positive, so cross-multiplying keeps the sign
    diff = n1 * d2 - n2 * d1
    return (diff > 0) - (diff < 0)


def gcd_rank_degree(t: HitchinPairType) -> int:
    """gcd(p+q, a+b); coprimality rules out strictly semistable total slopes."""
    return math.gcd(t.p + t.q, t.a + t.b)
