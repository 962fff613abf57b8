"""Seeded inputs, output checks and work counters for each workload.

Everything here is computed outside the program: inputs come from the
workload's own seeded generator, outputs are checked by re-solving the wall
equation in integer arithmetic, and the counters come from the closed-form
candidate count, not from anything the program reports.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("oneshot", "walls_wide", "walls_mw", "selftest")
INPUTS_PER_RUN = 16
SELFTEST_TRIALS = 100
SELFTEST_SUITES = 6
ONESHOT_KINDS = ("toledo", "mw", "certify", "walls")

PairType = tuple[int, int, int, int]
Interval = tuple[int, int]
# a wall as (alpha numerator, alpha denominator, sorted (p', q', d') witnesses)
ParsedWall = tuple[int, int, list[tuple[int, int, int]]]


@dataclass(frozen=True)
class Step:
    """One CLI call.  `argv` leaves out `--output`, which the runner adds."""

    argv: tuple[str, ...]
    command: str
    fmt: str = "json"
    ptype: PairType | None = None
    interval: Interval | None = None
    mw_filter: bool = False
    selftest_seed: int = 0


Request = tuple[Step, ...]


def _type_arg(t: PairType) -> str:
    return ",".join(str(x) for x in t)


def _rational_arg(rng: random.Random) -> str:
    return f"{rng.randint(-24, 24)}/{rng.randint(1, 4)}"


def _oneshot_step(rng: random.Random, kind: str) -> Step:
    p = rng.randint(1, 4)
    t = (p, rng.randint(1, 5 - p), rng.randint(-4, 4), rng.randint(-4, 4))
    argv = (kind, "--type", _type_arg(t))
    if kind == "mw":
        argv += ("--degL", str(rng.randint(0, 4)), "--alpha", _rational_arg(rng))
    elif kind == "certify":
        argv += ("--genus", str(rng.randint(2, 4)), "--alpha", _rational_arg(rng))
    elif kind == "walls":
        lo = rng.randint(-6, 0)
        interval = (lo, lo + rng.randint(1, 6))
        return Step(argv + ("--interval", f"{interval[0]},{interval[1]}"), kind, ptype=t, interval=interval)
    return Step(argv, kind, ptype=t)


def _wall_steps(t: PairType, interval: Interval, zero: tuple[str, ...], other: tuple[str, ...]) -> Request:
    """The fixed cycle every walls request runs: walls JSON, walls CSV, chambers."""
    base = ("--type", _type_arg(t), "--interval", f"{interval[0]},{interval[1]}")
    mw = bool(zero)
    return (
        Step(("walls", *base, *zero), "walls", "json", t, interval, mw),
        Step(("walls", *base, *other, "--format", "csv"), "walls", "csv", t, interval, mw),
        Step(("chambers", *base, *zero), "chambers", "json", t, interval, mw),
    )


def _walls_wide(rng: random.Random) -> Request:
    t = (7, 5, rng.randint(-6, 6), rng.randint(-6, 6))
    lo = rng.randint(-55, -45)
    return _wall_steps(t, (lo, lo + 100), (), ())


def _walls_mw(rng: random.Random) -> Request:
    # degL = 0 is the twist at which the filter drops witnesses; at degL >= 1 it
    # kept all of them in every probe, so the canonical genus-2 twist (degL = 2)
    # rides along only on the CSV step.
    t = (4, 4, rng.randint(-6, 6), rng.randint(-6, 6))
    lo = rng.randint(-25, -15)
    return _wall_steps(
        t, (lo, lo + 40), ("--mw-filter", "--degL", "0"), ("--mw-filter", "--canonical", "--genus", "2")
    )


def _selftest(rng: random.Random) -> Request:
    seed = rng.randrange(2**32)
    argv = ("selftest", "--trials", str(SELFTEST_TRIALS), "--seed", str(seed))
    return (Step(argv, "selftest", selftest_seed=seed),)


def make_inputs(workload: str, seed: int) -> list[Request]:
    """The run's distinct requests; the same workload and seed give the same list."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "oneshot":
        kinds = list(ONESHOT_KINDS) * (INPUTS_PER_RUN // len(ONESHOT_KINDS))
        rng.shuffle(kinds)
        return [(_oneshot_step(rng, kind),) for kind in kinds]
    maker = {"walls_wide": _walls_wide, "walls_mw": _walls_mw, "selftest": _selftest}[workload]
    return [maker(rng) for _ in range(INPUTS_PER_RUN)]


# ---------------------------------------------------------------- closed form


def rank_families(p: int, q: int) -> list[tuple[int, int, int]]:
    """Sub-ranks (p', q') that can witness a wall, with coeff = p' r - p r' != 0."""
    r = p + q
    return [
        (ps, qs, ps * r - p * (ps + qs))
        for ps in range(p + 1)
        for qs in range(q + 1)
        if 1 <= ps + qs <= r - 1 and ps * r != p * (ps + qs)
    ]


def degree_range(t: PairType, ps: int, qs: int, coeff: int, interval: Interval) -> range:
    """Every d' whose wall alpha = (D r' - d' r) / coeff lies in the interval."""
    p, q, a, b = t
    r, rs, total = p + q, ps + qs, a + b
    ends = (total * rs - interval[0] * coeff, total * rs - interval[1] * coeff)
    return range(-(-min(ends) // r), max(ends) // r + 1)


@dataclass(frozen=True)
class ClosedForm:
    families: int
    candidates: int
    walls: int  # distinct alphas over all candidates
    rank_zero_side: int  # candidates with p' = 0 or q' = 0; the MW filter keeps them all
    mw_checks: int  # candidates with p', q' >= 1, one Milnor-Wood bound each when filtering


def closed_form(t: PairType, interval: Interval) -> ClosedForm:
    p, q, a, b = t
    r, total = p + q, a + b
    families = rank_families(p, q)
    candidates = rank_zero = 0
    alphas = set()
    for ps, qs, coeff in families:
        span = degree_range(t, ps, qs, coeff, interval)
        candidates += len(span)
        if ps == 0 or qs == 0:
            rank_zero += len(span)
        alphas.update(Fraction(total * (ps + qs) - d * r, coeff) for d in span)
    return ClosedForm(len(families), candidates, len(alphas), rank_zero, candidates - rank_zero)


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _ratio(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def _json_walls(walls: list[dict], with_count: bool) -> list[ParsedWall]:
    parsed = []
    for wall in walls:
        num, den = _ratio(wall["alpha"])
        witnesses = [tuple(int(x) for x in w) for w in wall["witnesses"]]
        if with_count:
            _require(wall["witness_count"] == len(witnesses), "witness_count disagrees with the witness list")
        parsed.append((num, den, witnesses))
    return parsed


def _csv_walls(text: str) -> list[ParsedWall]:
    lines = text.split("\n")
    _require(lines[0] == "alpha_num,alpha_den,p_sub,q_sub,d_sub" and lines[-1] == "", "bad CSV framing")
    parsed: list[ParsedWall] = []
    for line in lines[1:-1]:
        num, den, ps, qs, ds = (int(x) for x in line.split(","))
        if parsed and parsed[-1][:2] == (num, den):
            parsed[-1][2].append((ps, qs, ds))
        else:
            parsed.append((num, den, [(ps, qs, ds)]))
    return parsed


def check_walls(step: Step, walls: list[ParsedWall], expected: ClosedForm) -> int:
    """Check a wall list against the wall equation; return its witness count.

    Alphas must strictly increase and lie in the interval; every witness must
    solve alpha (p' r - p r') = D r' - d' r in integers.  Unfiltered, the
    witness count must equal the closed-form candidate count, so with no
    duplicates the list is exactly the complete set.  Filtered, every witness
    with a rank-0 side must survive.
    """
    p, q, a, b = step.ptype
    r, total = p + q, a + b
    lo, hi = step.interval
    witnesses = rank_zero = 0
    previous = None
    for num, den, wall_witnesses in walls:
        _require(den > 0 and math.gcd(num, den) == 1, "alpha not in lowest terms")
        _require(lo * den <= num <= hi * den, "wall outside the interval")
        _require(previous is None or previous[0] * den < num * previous[1], "alphas do not strictly increase")
        previous = (num, den)
        _require(bool(wall_witnesses) and wall_witnesses == sorted(set(wall_witnesses)), "witnesses not sorted and unique")
        for ps, qs, ds in wall_witnesses:
            rs = ps + qs
            _require(0 <= ps <= p and 0 <= qs <= q and 1 <= rs <= r - 1, "witness ranks out of range")
            coeff = ps * r - p * rs
            _require(coeff != 0 and num * coeff == den * (total * rs - ds * r), "witness off its wall")
            rank_zero += ps == 0 or qs == 0
        witnesses += len(wall_witnesses)
    if step.mw_filter:
        _require(witnesses <= expected.candidates, "more witnesses than candidates")
        _require(rank_zero == expected.rank_zero_side, "the MW filter dropped a rank-0-side witness")
    else:
        _require(witnesses == expected.candidates, "witness count differs from the closed form")
        _require(len(walls) == expected.walls, "wall count differs from the closed form")
    return witnesses


def _check_chambers(step: Step, doc: dict, walls: list[ParsedWall]) -> None:
    lo, hi = step.interval
    _require(doc["interval"] == [f"{lo}/1", f"{hi}/1"], "chamber report has the wrong interval")
    on_wall = {(num, den) for num, den, _ in walls}
    points = [(lo, 1), *((n, d) for n, d, _ in walls if lo * d < n < hi * d), (hi, 1)]
    want = [
        (x, y, x == (lo, 1) and x not in on_wall, y == (hi, 1) and y not in on_wall)
        for x, y in zip(points, points[1:])
    ]
    got = [(_ratio(c["lo"]), _ratio(c["hi"]), c["lo_closed"], c["hi_closed"]) for c in doc["chambers"]]
    _require(got == want, "chambers do not tile the interval between the walls")


def _check_selftest(step: Step, doc: dict) -> int:
    _require(doc["command"] == "selftest" and doc["all_passed"] is True, "selftest did not pass")
    _require(doc["seed"] == step.selftest_seed and doc["trials"] == SELFTEST_TRIALS, "selftest echoed other inputs")
    suites = doc["suites"]
    _require(len(suites) == SELFTEST_SUITES, "selftest ran the wrong suites")
    _require(all(s["cases"] == SELFTEST_TRIALS and s["passed"] for s in suites), "a selftest suite failed")
    return sum(s["cases"] for s in suites)


class Checker:
    """Checks outputs and counts work, caching the closed form per input."""

    def __init__(self) -> None:
        self._closed: dict[tuple[PairType, Interval], ClosedForm] = {}

    def closed_form(self, step: Step) -> ClosedForm:
        key = (step.ptype, step.interval)
        if key not in self._closed:
            self._closed[key] = closed_form(step.ptype, step.interval)
        return self._closed[key]

    def check_step(self, step: Step, data: bytes, counts: Counter) -> list[ParsedWall] | None:
        """Raise CheckFailed on a bad output; add the step's counts.

        Returns the parsed walls of a walls step, for the oracle sample.
        """
        counts["out_bytes"] += len(data)
        text = data.decode("utf-8")
        if step.command == "selftest":
            counts["cases"] += _check_selftest(step, json.loads(text))
            return None
        if step.command not in ("walls", "chambers"):
            doc = json.loads(text)
            _require(doc["command"] == step.command, "report names another command")
            return None
        if step.fmt == "csv":
            walls = _csv_walls(text)
        else:
            doc = json.loads(text)
            _require(doc["command"] == step.command and doc["mw_filter"] == step.mw_filter, "report header differs")
            _require(doc["type"] == dict(zip("pqab", step.ptype)), "report names another type")
            walls = _json_walls(doc["walls"], with_count=step.command == "chambers")
            if step.command == "chambers":
                _check_chambers(step, doc, walls)
        expected = self.closed_form(step)
        witnesses = check_walls(step, walls, expected)
        counts["families"] += expected.families
        counts["candidates"] += expected.candidates
        counts["walls"] += len(walls)
        counts["witnesses"] += witnesses
        if step.mw_filter:
            counts["mw_checks"] += expected.mw_checks
            counts["mw_candidates"] += expected.candidates
            counts["mw_dropped"] += expected.candidates - witnesses
        return walls


def oracle_matches(oracle, core, step: Step, walls: list[ParsedWall]) -> bool:
    """Compare a walls output with the program's brute-force oracle.

    Unfiltered the two must be equal; filtered, the output must be a subset.
    """
    t = core.HitchinPairType(*step.ptype)
    bound = max(1, oracle.required_degree_bound(t, step.interval))
    brute = {
        (w.alpha.numerator, w.alpha.denominator): [x.sort_key() for x in w.witnesses]
        for w in oracle.brute_force_walls(t, step.interval, bound)
    }
    if not step.mw_filter:
        return brute == {(n, d): ws for n, d, ws in walls}
    return all(set(ws) <= set(brute.get((n, d), ())) for n, d, ws in walls)
