"""Exact numerical invariants of U(p,q)-Hitchin pairs and quiver bundles.

A U(p,q)-Hitchin pair (V, W, beta, gamma) is carried here only through its
numerical type t = (p, q, a, b) = (rk V, rk W, deg V, deg W); a quiver bundle
only through per-vertex (rank, degree) data.  The quiver's arrows and their
twisting enter no formula and are not modelled.  Everything downstream
(slopes, Toledo invariants, Milnor-Wood bounds, wall enumeration) is a
function of these integers and of exact rational stability parameters.

All arithmetic is arbitrary-precision exact rational via fractions.Fraction,
which stores values in lowest terms with positive denominator.  Floats are
rejected at the boundary: walls and regime boundaries are equalities that
floating point cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[Fraction, int, str]


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
    s = text.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        den = int(den_s)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num_s), den)
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Serialize a rational as the exact "num/den" string (always with a slash)."""
    return f"{value.numerator}/{value.denominator}"


def _require_int(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class HitchinPairType:
    """Numerical type t = (p, q, a, b) of a U(p,q)-Hitchin pair."""

    p: int
    q: int
    a: int
    b: int

    def __post_init__(self) -> None:
        for name in ("p", "q", "a", "b"):
            _require_int(getattr(self, name), name)
        if self.p < 1 or self.q < 1:
            raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={self.p}, q={self.q}")

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
        return HitchinPairType(self.q, self.p, self.b, self.a)

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "a": self.a, "b": self.b}

    @classmethod
    def parse(cls, text: str) -> "HitchinPairType":
        """Parse "p,q,a,b"."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected 'p,q,a,b' with four integers, got {text!r}")
        p, q, a, b = (int(part) for part in parts)
        return cls(p, q, a, b)


@dataclass(frozen=True)
class GeometryContext:
    """Genus of the base curve and degree of the twisting line bundle."""

    genus: int
    twist_degree: int
    canonical: bool = False

    def __post_init__(self) -> None:
        _require_int(self.genus, "genus")
        _require_int(self.twist_degree, "twist_degree")
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        if self.canonical and self.twist_degree != 2 * self.genus - 2:
            raise ValueError(
                f"canonical twist requires twist_degree = 2*genus - 2 = {2 * self.genus - 2}, "
                f"got {self.twist_degree}"
            )

    @classmethod
    def canonical_twist(cls, genus: int) -> "GeometryContext":
        return cls(genus=genus, twist_degree=2 * genus - 2, canonical=True)

    def to_json(self) -> dict:
        return {"genus": self.genus, "twist_degree": self.twist_degree, "canonical": self.canonical}


@dataclass(frozen=True)
class HiggsRankPair:
    """Ranks of the two Higgs-field components beta: W -> V (x) L and gamma: V -> W (x) L."""

    rk_beta: int
    rk_gamma: int

    def __post_init__(self) -> None:
        _require_int(self.rk_beta, "rk_beta")
        _require_int(self.rk_gamma, "rk_gamma")
        if self.rk_beta < 0 or self.rk_gamma < 0:
            raise ValueError(f"Higgs field ranks must be non-negative, got {self}")

    def validate_for(self, t: HitchinPairType) -> None:
        cap = min(t.p, t.q)
        if self.rk_beta > cap or self.rk_gamma > cap:
            raise ValueError(
                f"Higgs field ranks {self.rk_beta},{self.rk_gamma} out of range for type "
                f"({t.p},{t.q},{t.a},{t.b}): each must be <= min(p,q) = {cap}"
            )

    def to_json(self) -> dict:
        return {"rk_beta": self.rk_beta, "rk_gamma": self.rk_gamma}


@dataclass(frozen=True)
class QuiverNumericalType:
    """Per-vertex (rank, degree) data of a quiver bundle."""

    ranks: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(_require_int(r, "rank") for r in self.ranks))
        object.__setattr__(self, "degrees", tuple(_require_int(d, "degree") for d in self.degrees))
        if len(self.ranks) != len(self.degrees):
            raise ValueError(
                f"rank/degree length mismatch: {len(self.ranks)} vs {len(self.degrees)}"
            )
        if any(r < 0 for r in self.ranks):
            raise ValueError(f"vertex ranks must be non-negative, got {self.ranks}")
        if sum(self.ranks) < 1:
            raise ValueError("total rank must be at least 1")

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


@dataclass(frozen=True)
class ParameterVector:
    """Per-vertex exact rational stability parameters (alpha_i)."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(as_rational(v) for v in self.values))

    @classmethod
    def of(cls, *values: RationalLike) -> "ParameterVector":
        return cls(tuple(as_rational(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def shifted(self, constant: RationalLike) -> "ParameterVector":
        """Overall translation alpha -> alpha + a*(1,...,1)."""
        a = as_rational(constant)
        return ParameterVector(tuple(v + a for v in self.values))

    def to_json(self) -> dict:
        return {"alpha": [format_rational(v) for v in self.values]}


@dataclass(frozen=True)
class BoundInterval:
    """Closed interval [lower, upper] of exact rationals, or the infeasible state.

    An empty interval is never stored as lower > upper; it is the distinct
    infeasible state with both endpoints absent.
    """

    lower: Fraction | None
    upper: Fraction | None
    regime_label: str | None = None

    def __post_init__(self) -> None:
        if (self.lower is None) != (self.upper is None):
            raise ValueError("interval endpoints must both be present or both absent")
        if self.lower is not None:
            object.__setattr__(self, "lower", as_rational(self.lower))
            object.__setattr__(self, "upper", as_rational(self.upper))
            if self.lower > self.upper:
                raise ValueError(
                    f"lower bound {self.lower} exceeds upper bound {self.upper}; "
                    "use BoundInterval.infeasible() for empty intervals"
                )
        if self.regime_label is not None and self.regime_label not in ("i", "ii", "iii"):
            raise ValueError(f"regime_label must be one of 'i', 'ii', 'iii', got {self.regime_label!r}")

    @classmethod
    def closed(
        cls, lower: RationalLike, upper: RationalLike, regime_label: str | None = None
    ) -> "BoundInterval":
        return cls(as_rational(lower), as_rational(upper), regime_label)

    @classmethod
    def infeasible(cls, regime_label: str | None = None) -> "BoundInterval":
        return cls(None, None, regime_label)

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
    return QuiverNumericalType(ranks=(t.p, t.q), degrees=(t.a, t.b))


def upq_parameter_vector(alpha: RationalLike) -> ParameterVector:
    """The scalar parameter as a vector (alpha, 0): the weight sits on the V-vertex."""
    return ParameterVector.of(alpha, 0)


def slope(rank: int, degree: int) -> Fraction:
    """Slope of a bundle: degree divided by rank."""
    _require_int(rank, "rank")
    _require_int(degree, "degree")
    if rank < 1:
        raise ValueError(f"undefined slope: rank must be >= 1, got {rank}")
    return Fraction(degree, rank)


def alpha_slope_quiver(e: QuiverNumericalType, alpha: ParameterVector | Sequence[RationalLike]) -> Fraction:
    """Parameter-weighted slope sum_i(deg E_i + alpha_i rk E_i) / sum_i rk E_i."""
    values = alpha.values if isinstance(alpha, ParameterVector) else tuple(as_rational(v) for v in alpha)
    if len(values) != e.vertex_count:
        raise ValueError(
            f"parameter vector has {len(values)} entries for {e.vertex_count} vertices"
        )
    numerator = Fraction(e.total_degree) + sum(
        (a * r for a, r in zip(values, e.ranks)), Fraction(0)
    )
    return numerator / e.total_rank


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
    """Exact sign of mu_alpha(sub) - mu_alpha(whole) in {-1, 0, +1}."""
    if sub.vertex_count != whole.vertex_count:
        raise ValueError(
            f"vertex count mismatch: sub has {sub.vertex_count}, whole has {whole.vertex_count}"
        )
    return sign(alpha_slope_quiver(sub, alpha) - alpha_slope_quiver(whole, alpha))


def gcd_rank_degree(t: HitchinPairType) -> int:
    """gcd(p+q, a+b); coprimality rules out strictly semistable total slopes."""
    return math.gcd(t.p + t.q, t.a + t.b)
