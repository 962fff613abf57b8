"""Independent brute-force re-derivations used as ground truth in tests.

Nothing here is meant to be fast.  `brute_force_walls` rediscovers critical
values by exhaustive scan and a per-triple linear solve, sharing only the
basic slope arithmetic with the production enumerator; `envelope_toledo_bounds`
rebuilds the rank-free Milnor-Wood interval by scanning Higgs-field ranks.
`property_driver` runs the randomized invariant suites behind the `selftest`
CLI command with a self-contained, platform-independent PRNG.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .concurrency import ordered_map
from .core import (
    BoundInterval,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    RationalLike,
    _require_int,
    alpha_slope_quiver,
    alpha_slope_upq,
    as_rational,
    compare_at,
    format_rational,
    slope,
    toledo,
    upq_parameter_vector,
    upq_quiver_type,
)
from .milnor_wood import toledo_bounds
from .walls import Wall, WallWitness


def required_degree_bound(
    t: HitchinPairType, interval: tuple[RationalLike, RationalLike]
) -> int:
    """Smallest bound B such that every witness degree reachable in the
    interval satisfies |d'| <= B, computed from the interval endpoints."""
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    if lo > hi:
        raise ValueError(f"empty interval direction: lo={lo} > hi={hi}")
    needed = 0
    for p_sub in range(t.p + 1):
        for q_sub in range(t.q + 1):
            r_sub = p_sub + q_sub
            if not 1 <= r_sub <= t.total_rank - 1:
                continue
            if Fraction(p_sub, r_sub) == t.rank_ratio():
                continue
            # slope equality forces d' = r' mu_alpha(t) - alpha p'
            ends = [r_sub * alpha_slope_upq(t, end) - end * p_sub for end in (lo, hi)]
            d_min = math.ceil(min(ends))
            d_max = math.floor(max(ends))
            if d_min <= d_max:
                needed = max(needed, abs(d_min), abs(d_max))
    return needed


def brute_force_walls(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    degree_bound: int,
) -> list[Wall]:
    """Critical values by exhaustive scan over sub-ranks and degrees.

    Refuses to run when degree_bound cannot certify completeness over the
    interval, naming the required bound.
    """
    _require_int(degree_bound, "degree_bound")
    if degree_bound < 1:
        raise ValueError(f"degree_bound must be positive, got {degree_bound}")
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    needed = required_degree_bound(t, (lo, hi))
    if degree_bound < needed:
        raise ValueError(
            f"degree_bound {degree_bound} is insufficient for this interval; "
            f"completeness requires at least {needed}"
        )
    ratio = t.rank_ratio()
    mu0 = slope(t.total_rank, t.total_degree)
    hits: dict[Fraction, set[WallWitness]] = {}
    for p_sub in range(t.p + 1):
        for q_sub in range(t.q + 1):
            r_sub = p_sub + q_sub
            if not 1 <= r_sub <= t.total_rank - 1:
                continue
            sub_ratio = Fraction(p_sub, r_sub)
            if sub_ratio == ratio:
                continue
            for d_sub in range(-degree_bound, degree_bound + 1):
                alpha = (mu0 - Fraction(d_sub, r_sub)) / (sub_ratio - ratio)
                if lo <= alpha <= hi:
                    hits.setdefault(alpha, set()).add(WallWitness(p_sub, q_sub, d_sub))
    return [
        Wall(alpha, tuple(sorted(hits[alpha]))) for alpha in sorted(hits)
    ]


def envelope_toledo_bounds(p: int, q: int, deg_l: int, alpha: RationalLike) -> BoundInterval:
    """Rank-free Milnor-Wood interval rebuilt by scanning Higgs-field ranks.

    Lower bound: minimum of the rank-level lower bounds over rk(beta);
    upper bound: maximum of the rank-level upper bounds over rk(gamma).
    """
    _require_int(p, "p")
    _require_int(q, "q")
    _require_int(deg_l, "deg_l")
    if p < 1 or q < 1:
        raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={p}, q={q}")
    if deg_l < 0:
        raise ValueError(f"deg(L) must be non-negative, got {deg_l}")
    a = as_rational(alpha)
    weight = Fraction(2 * p * q, p + q)
    lowers = [-r * deg_l + a * (r - weight) for r in range(min(p, q) + 1)]
    uppers = [r * deg_l + a * (r - weight) for r in range(min(p, q) + 1)]
    return BoundInterval.closed(min(lowers), max(uppers))


class SplitMix64:
    """splitmix64 generator: fixed public mixing constants, 64-bit state.

    Chosen over random.Random so that selftest reports are byte-identical
    across platforms and Python versions.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX1) & self._MASK
        z = ((z ^ (z >> 27)) * self._MIX2) & self._MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; modulo reduction (bias immaterial for testing)."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def rational(self, span: int, max_den: int = 6) -> Fraction:
        return Fraction(self.randint(-span * max_den, span * max_den), self.randint(1, max_den))


def _random_quiver_type(rng: SplitMix64, n: int) -> QuiverNumericalType:
    ranks = [rng.randint(0, 3) for _ in range(n)]
    if sum(ranks) == 0:
        ranks[rng.randint(0, n - 1)] = rng.randint(1, 3)
    degrees = [rng.randint(-5, 5) for _ in range(n)]
    return QuiverNumericalType(tuple(ranks), tuple(degrees))


def _random_pair_type(rng: SplitMix64) -> HitchinPairType:
    return HitchinPairType(
        rng.randint(1, 6), rng.randint(1, 6), rng.randint(-8, 8), rng.randint(-8, 8)
    )


def _make_translation_case(rng: SplitMix64) -> dict:
    n = rng.randint(2, 4)
    return {
        "sub": _random_quiver_type(rng, n),
        "whole": _random_quiver_type(rng, n),
        "alpha": ParameterVector(tuple(rng.rational(4) for _ in range(n))),
        "shift": rng.rational(5),
    }


def _check_translation_case(case: dict) -> dict | None:
    shifted = case["alpha"].shifted(case["shift"])
    for key in ("sub", "whole"):
        e = case[key]
        if alpha_slope_quiver(e, shifted) != alpha_slope_quiver(e, case["alpha"]) + case["shift"]:
            return _translation_failure(case, f"slope shift identity broken on {key}")
    if compare_at(case["sub"], case["whole"], shifted) != compare_at(
        case["sub"], case["whole"], case["alpha"]
    ):
        return _translation_failure(case, "comparison sign changed under translation")
    return None


def _translation_failure(case: dict, reason: str) -> dict:
    return {
        "reason": reason,
        "sub": case["sub"].to_json(),
        "whole": case["whole"].to_json(),
        "alpha": case["alpha"].to_json(),
        "shift": format_rational(case["shift"]),
    }


def _make_specialization_case(rng: SplitMix64) -> dict:
    return {"t": _random_pair_type(rng), "alpha": rng.rational(6)}


def _check_specialization_case(case: dict) -> dict | None:
    t, a = case["t"], case["alpha"]
    scalar = alpha_slope_upq(t, a)
    vector = alpha_slope_quiver(upq_quiver_type(t), upq_parameter_vector(a))
    if scalar != vector:
        return {
            "reason": "scalar and quiver slopes disagree",
            "type": t.to_json(),
            "alpha": format_rational(a),
            "scalar": format_rational(scalar),
            "vector": format_rational(vector),
        }
    return None


def _make_toledo_duality_case(rng: SplitMix64) -> dict:
    return {"t": _random_pair_type(rng)}


def _check_toledo_duality_case(case: dict) -> dict | None:
    t = case["t"]
    if toledo(t) != -toledo(t.dual()):
        return {"reason": "toledo duality broken", "type": t.to_json()}
    return None


def _make_bounds_duality_case(rng: SplitMix64) -> dict:
    deg_l = rng.randint(0, 4)
    return {
        "p": rng.randint(1, 8),
        "q": rng.randint(1, 8),
        "deg_l": deg_l,
        "alpha": Fraction(rng.randint(-12 * (deg_l + 2), 12 * (deg_l + 2)), 12),
    }


def _check_bounds_duality_case(case: dict) -> dict | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    direct = toledo_bounds(p, q, deg_l, a)
    mirrored = toledo_bounds(q, p, deg_l, -a)
    if mirrored.lower != -direct.upper or mirrored.upper != -direct.lower:
        return {
            "reason": "bounds duality broken",
            "p": p,
            "q": q,
            "deg_l": deg_l,
            "alpha": format_rational(a),
            "direct": direct.to_json(),
            "mirrored": mirrored.to_json(),
        }
    return None


def _make_tau_gap_case(rng: SplitMix64) -> dict:
    """Sample a type with p != q conditioned on the tau-bound holding."""
    while True:
        p = rng.randint(1, 8)
        q = rng.randint(1, 8)
        if p == q:
            continue
        genus = rng.randint(2, 5)
        t = HitchinPairType(p, q, rng.randint(-12, 12), rng.randint(-12, 12))
        if abs(toledo(t)) <= min(p, q) * (2 * genus - 2):
            return {"t": t, "genus": genus}


def _check_tau_gap_case(case: dict) -> dict | None:
    t, genus = case["t"], case["genus"]
    deg_k = 2 * genus - 2
    gap = slope(t.p, t.a) - slope(t.q, t.b)
    ok = gap > -deg_k if t.q < t.p else gap < deg_k
    if not ok:
        return {
            "reason": "tau bound did not force the slope-gap condition",
            "type": t.to_json(),
            "genus": genus,
            "gap": format_rational(gap),
        }
    return None


def _check_envelope_case(case: dict) -> dict | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    closed_form = toledo_bounds(p, q, deg_l, a)
    scanned = envelope_toledo_bounds(p, q, deg_l, a)
    if closed_form.lower != scanned.lower or closed_form.upper != scanned.upper:
        return {
            "reason": "regime formulas disagree with the rank scan",
            "p": p,
            "q": q,
            "deg_l": deg_l,
            "alpha": format_rational(a),
            "closed_form": closed_form.to_json(),
            "scanned": scanned.to_json(),
        }
    return None


_SUITES = (
    ("translation_invariance", _make_translation_case, _check_translation_case),
    ("upq_specialization", _make_specialization_case, _check_specialization_case),
    ("toledo_duality", _make_toledo_duality_case, _check_toledo_duality_case),
    ("bounds_duality", _make_bounds_duality_case, _check_bounds_duality_case),
    ("tau_bound_implies_slope_gap", _make_tau_gap_case, _check_tau_gap_case),
    ("envelope_identity", _make_bounds_duality_case, _check_envelope_case),
)


def property_driver(seed: int, trials: int, jobs: int | None = 1) -> dict:
    """Run the randomized invariant suites; failures carry reproducing inputs.

    Case inputs are drawn sequentially from one seeded SplitMix64 stream in a
    fixed suite order, then checked (pure) with optional fan-out, so the
    report is identical for any jobs count.
    """
    _require_int(seed, "seed")
    _require_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = SplitMix64(seed)
    suite_reports = []
    for name, make_case, check_case in _SUITES:
        cases = [make_case(rng) for _ in range(trials)]
        results = ordered_map(check_case, cases, jobs)
        failures = [
            dict(trial=index, **result)
            for index, result in enumerate(results)
            if result is not None
        ]
        suite_reports.append(
            {"name": name, "cases": trials, "failures": failures, "passed": not failures}
        )
    return {
        "seed": seed,
        "trials": trials,
        "suites": suite_reports,
        "all_passed": all(suite["passed"] for suite in suite_reports),
    }
