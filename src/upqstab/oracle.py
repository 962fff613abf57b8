"""Independent brute-force re-derivations used as ground truth in tests.

What keeps each oracle independent is the scan, not slow arithmetic.
`brute_force_walls` scans every (p', q', d') with |d'| up to the degree bound
and solves each triple's slope equation on its own, sharing only the basic
slope arithmetic with the production enumerator.  `envelope_toledo_bounds`
scans every Higgs-field rank r in [0, min(p, q)] and takes the extreme
rank-level bound, never the regime formulas of `toledo_bounds`; its per-rank
bounds are integer numerators over one common denominator.
`property_driver` runs the randomized invariant suites behind the `selftest`
CLI command with a self-contained, platform-independent PRNG.  A suite's check
returns a reason or None; a failure is the trial number, the reason and the
case's own inputs, never a value derived from them.
"""

from __future__ import annotations

import math
from fractions import Fraction

# perfbench/tracing.py patches oracle.ordered_map by name, so the name stays bound
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

    Scans |d'| <= degree_bound.  A bound of 0, which `required_degree_bound`
    returns when no reachable witness has d' != 0, scans d' = 0 only.
    Refuses to run when degree_bound cannot certify completeness over the
    interval, naming the required bound.
    """
    _require_int(degree_bound, "degree_bound")
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be non-negative, got {degree_bound}")
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
    Every rank r in [0, min(p, q)] is scanned; each bound is an integer
    numerator over (p+q) * den(alpha).
    """
    _require_int(p, "p")
    _require_int(q, "q")
    _require_int(deg_l, "deg_l")
    if p < 1 or q < 1:
        raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={p}, q={q}")
    if deg_l < 0:
        raise ValueError(f"deg(L) must be non-negative, got {deg_l}")
    a = as_rational(alpha)
    n, den = a.numerator, (p + q) * a.denominator
    # -r deg(L) + alpha (r - 2pq/(p+q)) and r deg(L) + alpha (r - 2pq/(p+q)), over den
    lowers = [-r * deg_l * den + n * (r * (p + q) - 2 * p * q) for r in range(min(p, q) + 1)]
    uppers = [r * deg_l * den + n * (r * (p + q) - 2 * p * q) for r in range(min(p, q) + 1)]
    return BoundInterval(Fraction(min(lowers), den), Fraction(max(uppers), den))


class SplitMix64:
    """splitmix64 generator: fixed public mixing constants, 64-bit state.

    Chosen over random.Random so that selftest reports are byte-identical
    across platforms and Python versions.  The step lives in `randint`, so a
    draw costs one call; `next_u64` is the draw over the full 64-bit range.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        return self.randint(0, self._MASK)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; modulo reduction (bias immaterial for testing)."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        # the splitmix64 step
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)

    def rational(self, span: int, max_den: int = 6) -> Fraction:
        randint = self.randint
        return Fraction(randint(-span * max_den, span * max_den), randint(1, max_den))


def _random_quiver_type(rng: SplitMix64, n: int) -> QuiverNumericalType:
    randint = rng.randint
    ranks = [randint(0, 3) for _ in range(n)]
    if sum(ranks) == 0:
        ranks[randint(0, n - 1)] = randint(1, 3)
    degrees = [randint(-5, 5) for _ in range(n)]
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


def _check_translation_case(case: dict) -> str | None:
    shifted = case["alpha"].shifted(case["shift"])
    for key in ("sub", "whole"):
        e = case[key]
        if alpha_slope_quiver(e, shifted) != alpha_slope_quiver(e, case["alpha"]) + case["shift"]:
            return f"slope shift identity broken on {key}"
    if compare_at(case["sub"], case["whole"], shifted) != compare_at(
        case["sub"], case["whole"], case["alpha"]
    ):
        return "comparison sign changed under translation"
    return None


def _make_specialization_case(rng: SplitMix64) -> dict:
    return {"type": _random_pair_type(rng), "alpha": rng.rational(6)}


def _check_specialization_case(case: dict) -> str | None:
    t, a = case["type"], case["alpha"]
    if alpha_slope_upq(t, a) != alpha_slope_quiver(upq_quiver_type(t), upq_parameter_vector(a)):
        return "scalar and quiver slopes disagree"
    return None


def _make_toledo_duality_case(rng: SplitMix64) -> dict:
    return {"type": _random_pair_type(rng)}


def _check_toledo_duality_case(case: dict) -> str | None:
    t = case["type"]
    if toledo(t) != -toledo(t.dual()):
        return "toledo duality broken"
    return None


def _make_bounds_duality_case(rng: SplitMix64) -> dict:
    deg_l = rng.randint(0, 4)
    return {
        "p": rng.randint(1, 8),
        "q": rng.randint(1, 8),
        "deg_l": deg_l,
        "alpha": Fraction(rng.randint(-12 * (deg_l + 2), 12 * (deg_l + 2)), 12),
    }


def _check_bounds_duality_case(case: dict) -> str | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    direct = toledo_bounds(p, q, deg_l, a)
    mirrored = toledo_bounds(q, p, deg_l, -a)
    if mirrored.lower != -direct.upper or mirrored.upper != -direct.lower:
        return "bounds duality broken"
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
            return {"type": t, "genus": genus}


def _check_tau_gap_case(case: dict) -> str | None:
    t, deg_k = case["type"], 2 * case["genus"] - 2
    gap = slope(t.p, t.a) - slope(t.q, t.b)
    ok = gap > -deg_k if t.q < t.p else gap < deg_k
    if not ok:
        return "tau bound did not force the slope-gap condition"
    return None


def _check_envelope_case(case: dict) -> str | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    closed_form = toledo_bounds(p, q, deg_l, a)
    scanned = envelope_toledo_bounds(p, q, deg_l, a)
    if closed_form.lower != scanned.lower or closed_form.upper != scanned.upper:
        return "regime formulas disagree with the rank scan"
    return None


_SUITES = (
    ("translation_invariance", _make_translation_case, _check_translation_case),
    ("upq_specialization", _make_specialization_case, _check_specialization_case),
    ("toledo_duality", _make_toledo_duality_case, _check_toledo_duality_case),
    ("bounds_duality", _make_bounds_duality_case, _check_bounds_duality_case),
    ("tau_bound_implies_slope_gap", _make_tau_gap_case, _check_tau_gap_case),
    ("envelope_identity", _make_bounds_duality_case, _check_envelope_case),
)


def _input_json(value):
    """A case input as a failure record carries it."""
    if isinstance(value, Fraction):
        return format_rational(value)
    return value if isinstance(value, int) else value.to_json()


def property_driver(seed: int, trials: int) -> dict:
    """Run the randomized invariant suites; failures carry reproducing inputs.

    Case inputs are drawn sequentially from one seeded SplitMix64 stream in a
    fixed suite order, and each case is checked as soon as it is drawn; checks
    draw nothing, so the report depends only on the seed and the trial count.
    A check returns a reason or None; a failure is its trial, its reason and
    the case's inputs ("num/den" or to_json form).
    """
    _require_int(seed, "seed")
    _require_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = SplitMix64(seed)
    suite_reports = []
    for name, make_case, check_case in _SUITES:
        failures = []
        for trial in range(trials):
            case = make_case(rng)
            reason = check_case(case)
            if reason is not None:
                inputs = {key: _input_json(value) for key, value in case.items()}
                failures.append({"trial": trial, "reason": reason, **inputs})
        suite_reports.append(
            {"name": name, "cases": trials, "failures": failures, "passed": not failures}
        )
    return {
        "seed": seed,
        "trials": trials,
        "suites": suite_reports,
        "all_passed": all(suite["passed"] for suite in suite_reports),
    }
