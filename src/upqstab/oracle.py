"""Independent brute-force re-derivations used as ground truth in tests.

What keeps each oracle independent is the scan, not slow arithmetic.
`brute_force_walls` scans every (p', q', d') with |d'| up to the degree bound
and solves each triple's slope equation on its own, sharing only the basic
slope arithmetic with the production enumerator.  `envelope_toledo_bounds`
scans every Higgs-field rank r in [0, min(p, q)] and takes the extreme
rank-level bound, never the regime formulas of `toledo_bounds`; its per-rank
bounds are integer numerators over one common denominator.
`property_driver` runs the randomized invariant suites behind the `selftest`
CLI command with a self-contained, platform-independent PRNG.  Five suites
test an algebraic identity between separate engine calls (translation
invariance of the alpha-slope, the U(p,q) slope as a quiver slope, Toledo
duality, duality of the Milnor-Wood bounds, tau bound => slope gap);
`envelope_identity` tests `toledo_bounds` against the rank scan above.  The
makers take fixed-count draws in one batch (`SplitMix64.draws`) and their
rationals from a bounded memo.  The checks build no Fraction of their own:
they take the engine's values as integer pairs (`as_integer_ratio()`, lowest
terms with a positive denominator, so two pairs are equal exactly when the
values are) and cross-multiply where a sum or a difference is tested.  A suite's check returns
a reason or None; a failure is the trial number, the reason and the case's own
inputs, never a value derived from them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import cache, lru_cache

# perfbench/tracing.py patches oracle.ordered_map by name, so the name stays bound
from .concurrency import ordered_map
from .core import (
    BoundInterval,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    RationalLike,
    _json,
    _require_int,
    _shown_number,
    alpha_slope_quiver,
    alpha_slope_upq,
    as_rational,
    compare_at,
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
        raise ValueError(f"empty interval direction: lo={_shown_number(lo)} > hi={_shown_number(hi)}")
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
        raise ValueError(f"degree_bound must be non-negative, got {_shown_number(degree_bound)}")
    lo = as_rational(interval[0])
    hi = as_rational(interval[1])
    needed = required_degree_bound(t, (lo, hi))
    if degree_bound < needed:
        raise ValueError(
            f"degree_bound {_shown_number(degree_bound)} is insufficient for this interval; "
            f"completeness requires at least {_shown_number(needed)}"
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
        raise ValueError(f"ranks must satisfy p >= 1 and q >= 1, got p={_shown_number(p)}, q={_shown_number(q)}")
    if deg_l < 0:
        raise ValueError(f"deg(L) must be non-negative, got {_shown_number(deg_l)}")
    a = as_rational(alpha)
    n, den = a.numerator, (p + q) * a.denominator
    # -r deg(L) + alpha (r - 2pq/(p+q)) and r deg(L) + alpha (r - 2pq/(p+q)), over den
    lowers = [-r * deg_l * den + n * (r * (p + q) - 2 * p * q) for r in range(min(p, q) + 1)]
    uppers = [r * deg_l * den + n * (r * (p + q) - 2 * p * q) for r in range(min(p, q) + 1)]
    return BoundInterval(Fraction(min(lowers), den), Fraction(max(uppers), den))


_BATCH = 256  # outputs per refill, one 128-bit lane each
_GAMMA = 0x9E3779B97F4A7C15


@cache
def _lanes() -> tuple[int, int, int, Callable[[bytes], tuple[int, ...]]]:
    """The batch's constants, built on the first refill: ones, ramp, mask and the decoder.

    In the ints, lane j is bits [128 j, 128 j + 128): ones holds 1 in every
    lane, ramp (j + 1) * gamma in lane j, mask 2^64 - 1 in every lane.  The
    decoder reads the low 8 bytes of each 16-byte lane, little-endian.
    """
    import struct

    lane = b"\xff" * 8 + bytes(8)
    mask = int.from_bytes(lane * _BATCH, "little")
    ramp = int.from_bytes(b"".join((j * _GAMMA).to_bytes(16, "little") for j in range(1, _BATCH + 1)), "little")
    return mask // 0xFFFFFFFFFFFFFFFF, ramp, mask, struct.Struct("<" + "Q8x" * _BATCH).unpack


class SplitMix64:
    """splitmix64 generator: fixed public mixing constants, 64-bit state.

    Chosen over random.Random so that selftest reports are byte-identical
    across platforms and Python versions.  The stream is computed 256 outputs
    at a time: the next 256 states go into the 128-bit lanes of one int, the
    step runs once on all of them with every lane masked to 64 bits after each
    xor-shift and product (a product of two values below 2^64 stays below
    2^128, so no lane carries into the next), and the lanes are decoded as
    explicit little-endian bytes, so the stream is the same everywhere.  Draws
    read the batch by index; a refill replaces it and never mutates it, so a
    copy or a pickle taken mid-batch goes on with the same stream.
    `next_u64` is the draw over the full 64-bit range.  `draws(k)` is the batch
    take: the next k raw outputs, as k `next_u64` calls would return them,
    sliced from the batch and refilled across its end; a case maker that draws
    a fixed count maps them to its ranges itself, `lo + v % span` as `randint`
    does.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK  # the state before the current batch
        self._values: tuple[int, ...] = ()
        self._index = _BATCH

    def _refill(self) -> None:
        ones, ramp, mask, decode = _lanes()
        # the splitmix64 step, on every lane at once
        z = (self._state * ones + ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31  # the next lane's bits land in bits 97-127 of this one, which the decoder skips
        self._values = decode(z.to_bytes(16 * _BATCH, "little"))
        self._index = 0
        self._state = (self._state + _BATCH * _GAMMA) & self._MASK

    def next_u64(self) -> int:
        return self.randint(0, self._MASK)

    def draws(self, k: int) -> tuple[int, ...]:
        """The next k >= 0 raw 64-bit outputs, in stream order."""
        index, taken = self._index, ()
        while index + k > _BATCH:
            taken += self._values[index:]
            k -= _BATCH - index
            self._refill()
            index = 0
        self._index = index + k
        return taken + self._values[index:index + k]

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; modulo reduction (bias immaterial for testing)."""
        if lo > hi:
            raise ValueError(f"empty range [{_shown_number(lo)}, {_shown_number(hi)}]")
        index = self._index
        if index == _BATCH:
            self._refill()
            index = 0
        self._index = index + 1
        return lo + self._values[index] % (hi - lo + 1)

    def rational(self, span: int, max_den: int = 6) -> Fraction:
        randint = self.randint
        return Fraction(randint(-span * max_den, span * max_den), randint(1, max_den))


# the makers' drawn rationals, keyed on the drawn (num, den): their ranges hold 583 keys
_rational = lru_cache(maxsize=1024)(Fraction)


def _random_quiver_type(rng: SplitMix64, n: int) -> QuiverNumericalType:
    ranks = [v % 4 for v in rng.draws(n)]
    if not any(ranks):
        # the stream gives the rank first, then the entry it goes to
        rank, index = rng.draws(2)
        ranks[index % n] = 1 + rank % 3
    degrees = [v % 11 - 5 for v in rng.draws(n)]
    # ranks >= 0 with a positive sum, and as many degrees: valid as drawn
    return tuple.__new__(QuiverNumericalType, (tuple(ranks), tuple(degrees)))


def _random_pair_type(rng: SplitMix64) -> HitchinPairType:
    p, q, a, b = rng.draws(4)
    # p, q in [1, 6], a, b in [-8, 8]
    return tuple.__new__(HitchinPairType, (1 + p % 6, 1 + q % 6, a % 17 - 8, b % 17 - 8))


def _make_translation_case(rng: SplitMix64) -> dict:
    n = rng.randint(2, 4)
    sub = _random_quiver_type(rng, n)
    whole = _random_quiver_type(rng, n)
    # n entries of alpha, num in [-24, 24] over den in [1, 6], then the shift, num in [-30, 30]
    *drawn, shift_num, shift_den = rng.draws(2 * n + 2)
    return {
        "sub": sub,
        "whole": whole,
        "alpha": tuple.__new__(ParameterVector, [
            _rational(num % 49 - 24, 1 + den % 6) for num, den in zip(drawn[0::2], drawn[1::2])
        ]),
        "shift": _rational(shift_num % 61 - 30, 1 + shift_den % 6),
    }


def _check_translation_case(case: dict) -> str | None:
    alpha, shift = case["alpha"], case["shift"]
    shifted = alpha.shifted(shift)
    sn, sd = shift.as_integer_ratio()
    for key in ("sub", "whole"):
        e = case[key]
        xn, xd = alpha_slope_quiver(e, shifted).as_integer_ratio()
        yn, yd = alpha_slope_quiver(e, alpha).as_integer_ratio()
        # x = y + s, cross-multiplied over the positive denominators
        if xn * yd * sd != (yn * sd + sn * yd) * xd:
            return f"slope shift identity broken on {key}"
    if compare_at(case["sub"], case["whole"], shifted) != compare_at(case["sub"], case["whole"], alpha):
        return "comparison sign changed under translation"
    return None


def _make_specialization_case(rng: SplitMix64) -> dict:
    t = _random_pair_type(rng)
    num, den = rng.draws(2)
    # alpha: num in [-36, 36] over den in [1, 6]
    return {"type": t, "alpha": _rational(num % 73 - 36, 1 + den % 6)}


def _check_specialization_case(case: dict) -> str | None:
    t, a = case["type"], case["alpha"]
    scalar = alpha_slope_upq(t, a).as_integer_ratio()
    if scalar != alpha_slope_quiver(upq_quiver_type(t), upq_parameter_vector(a)).as_integer_ratio():
        return "scalar and quiver slopes disagree"
    return None


def _make_toledo_duality_case(rng: SplitMix64) -> dict:
    return {"type": _random_pair_type(rng)}


def _check_toledo_duality_case(case: dict) -> str | None:
    t = case["type"]
    tau = toledo(t).as_integer_ratio()
    n, d = toledo(t.dual()).as_integer_ratio()
    if tau != (-n, d):
        return "toledo duality broken"
    return None


def _make_bounds_duality_case(rng: SplitMix64) -> dict:
    deg_l, p, q, num = rng.draws(4)
    deg_l %= 5
    # p, q in [1, 8]; alpha = num/12 with |num| <= 12 (deg L + 2)
    reach = 12 * (deg_l + 2)
    return {"p": 1 + p % 8, "q": 1 + q % 8, "deg_l": deg_l, "alpha": _rational(num % (2 * reach + 1) - reach, 12)}


def _check_bounds_duality_case(case: dict) -> str | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    direct = toledo_bounds(p, q, deg_l, a)
    mirrored = toledo_bounds(q, p, deg_l, -a)
    if direct.lower is None or mirrored.lower is None:
        # the bounds always exist; an infeasible interval has no ends to mirror
        return "bounds infeasible"
    ln, ld = direct.lower.as_integer_ratio()
    un, ud = direct.upper.as_integer_ratio()
    if mirrored.lower.as_integer_ratio() != (-un, ud) or mirrored.upper.as_integer_ratio() != (-ln, ld):
        return "bounds duality broken"
    return None


def _make_tau_gap_case(rng: SplitMix64) -> dict:
    """Sample a type with p != q conditioned on the tau-bound holding.

    |toledo(t)| <= min(p, q)(2g - 2) is tested in integers, times p + q:
    toledo(t) = 2(qa - pb)/(p + q).  The type is built only for a draw that
    passes.
    """
    randint = rng.randint
    while True:
        p = randint(1, 8)
        q = randint(1, 8)
        if p == q:
            continue
        genus = randint(2, 5)
        a = randint(-12, 12)
        b = randint(-12, 12)
        if abs(2 * (q * a - p * b)) <= min(p, q) * (2 * genus - 2) * (p + q):
            return {"type": tuple.__new__(HitchinPairType, (p, q, a, b)), "genus": genus}


def _check_tau_gap_case(case: dict) -> str | None:
    t, deg_k = case["type"], 2 * case["genus"] - 2
    an, ad = slope(t.p, t.a).as_integer_ratio()
    bn, bd = slope(t.q, t.b).as_integer_ratio()
    # the gap an/ad - bn/bd, over den = ad * bd > 0
    gap, den = an * bd - bn * ad, ad * bd
    ok = gap > -deg_k * den if t.q < t.p else gap < deg_k * den
    if not ok:
        return "tau bound did not force the slope-gap condition"
    return None


def _ends(box: BoundInterval) -> tuple:
    """A bound interval's ends as integer pairs, None for a missing end."""
    lower, upper = box.lower, box.upper
    return (
        None if lower is None else lower.as_integer_ratio(),
        None if upper is None else upper.as_integer_ratio(),
    )


def _check_envelope_case(case: dict) -> str | None:
    p, q, deg_l, a = case["p"], case["q"], case["deg_l"], case["alpha"]
    if _ends(toledo_bounds(p, q, deg_l, a)) != _ends(envelope_toledo_bounds(p, q, deg_l, a)):
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


def property_driver(seed: int, trials: int) -> dict:
    """Run the randomized invariant suites; failures carry reproducing inputs.

    Case inputs are drawn sequentially from one seeded SplitMix64 stream in a
    fixed suite order, and each case is checked as soon as it is drawn; checks
    draw nothing, so the report depends only on the seed and the trial count.
    A check returns a reason or None; a failure is its trial, its reason and
    the case's inputs, in their JSON form (`core._json`).
    """
    _require_int(seed, "seed")
    _require_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {_shown_number(trials)}")
    rng = SplitMix64(seed)
    suite_reports = []
    for name, make_case, check_case in _SUITES:
        failures = []
        for trial in range(trials):
            case = make_case(rng)
            reason = check_case(case)
            if reason is not None:
                failures.append(_json({"trial": trial, "reason": reason, **case}))
        suite_reports.append(
            {"name": name, "cases": trials, "failures": failures, "passed": not failures}
        )
    return {
        "seed": seed,
        "trials": trials,
        "suites": suite_reports,
        "all_passed": all(suite["passed"] for suite in suite_reports),
    }
