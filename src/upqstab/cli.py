"""Command-line front end emitting deterministic JSON/CSV reports.

Commands:
  toledo    Toledo invariant of a numerical type.
  mw        Milnor-Wood membership check for the Toledo invariant.
  walls     Critical values of the stability parameter in an interval.
  chambers  Walls plus the chamber decomposition of the interval.
  certify   Irreducibility certificate for canonically twisted pairs.
  selftest  Randomized invariant suites: five algebraic identities of the
            engine, and its Milnor-Wood envelope against the rank scan.

Rationals are printed as exact "num/den" strings and accepted as "num/den"
or plain integer strings; decimals are rejected.  Exit codes: 0 success,
1 engine error or a failed selftest suite (its report is still written),
2 usage error.  Every command writes JSON; walls alone also
writes CSV, with --format csv.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import json
import math
import operator
import os
import stat
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat

from .core import (
    GeometryContext,
    HiggsRankPair,
    HitchinPairType,
    _exceeds_digit_limit,
    _json,
    _parse_error,
    _shown,
    _shown_number,
    format_rational,
    parse_rational,
    toledo,
)
from .milnor_wood import mw_check
from .oracle import property_driver
# enumerate_walls and chamber_report are not called here, but stay bound:
# perfbench/tracing.py patches them, and format_rational, by name in this module
from .walls import _periodic_wall_table, chamber_report, enumerate_walls, irreducibility_certificate


@dataclass(frozen=True)
class RunConfig:
    command: str
    type_spec: HitchinPairType | None = None
    ctx: GeometryContext | None = None
    alpha: Fraction | None = None
    interval: tuple[Fraction, Fraction] | None = None
    ranks: HiggsRankPair | None = None
    genus: int | None = None
    mw_filter: bool = False
    output_format: str = "json"
    output_path: str | None = None
    # only perfbench/probes.py:at_one_job writes it, and nothing reads it
    jobs: int | None = None
    seed: int = 0
    trials: int = 1000


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {_shown(text)}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _parse_ranks(text: str) -> HiggsRankPair:
    try:
        rk_beta, rk_gamma = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise _parse_error(exc, f"expected 'rk_beta,rk_gamma' with two integers, got {_shown(text)}") from None
    return HiggsRankPair(rk_beta, rk_gamma)


def _integer(minimum: int | None = None):
    """A converter for integer flags, no smaller than minimum when one is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise _parse_error(exc, f"expected an integer, got {_shown(text)}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {_shown(str(value), quoted=False)}")
        return value

    return parse


def _output_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"invalid choice: {_shown(text)} (choose from json, csv)")
    return text


# A flag is (destination, converter, metavar, help).  The converter raises
# ValueError with the reason a value is refused; a presence flag has neither
# converter nor metavar and sets its destination to True.  Every destination
# but those of the twist flags (deg_l, the twist's genus, canonical) is a
# RunConfig field.
_TYPE = ("type_spec", HitchinPairType.parse, "p,q,a,b", "numerical type of the pair")
_OUTPUT = ("output_path", str, "PATH", "write the report here instead of stdout")
_ALPHA = ("alpha", parse_rational, "ALPHA", "stability parameter")
_TWIST = {
    "--degL": ("deg_l", _integer(), "DEG", "degree of the twisting line bundle"),
    "--genus": ("genus", _integer(0), "GENUS", "genus of the base curve"),
    "--canonical": ("canonical", None, None, "twist by the canonical bundle: deg(L) = 2*genus - 2 (requires --genus)"),
}
_WALLS = {
    **_TWIST,
    "--interval": ("interval", _parse_interval, "lo,hi", "closed parameter interval"),
    "--mw-filter": (
        "mw_filter", None, None, "drop witnesses with no Milnor-Wood-feasible degree split (needs --degL or --canonical)"
    ),
}

# each command: its help, its flags in usage order and the flags it requires
_COMMANDS = {
    "toledo": ("Toledo invariant of a type", {"--type": _TYPE, "--output": _OUTPUT}, ("--type",)),
    "mw": (
        "Milnor-Wood membership check",
        {"--type": _TYPE, "--output": _OUTPUT, **_TWIST, "--alpha": _ALPHA, "--ranks": (
            "ranks", _parse_ranks, "rk_beta,rk_gamma", "use the rank-level bounds with these Higgs-field ranks"
        )},
        ("--type", "--alpha"),
    ),
    "walls": (
        "critical parameter values in an interval",
        {"--type": _TYPE, "--output": _OUTPUT,
         "--format": ("output_format", _output_format, "{json,csv}", "output format (default: json)"), **_WALLS},
        ("--type", "--interval"),
    ),
    "chambers": (
        "walls plus chamber decomposition",
        {"--type": _TYPE, "--output": _OUTPUT, **_WALLS},
        ("--type", "--interval"),
    ),
    "certify": (
        "irreducibility certificate (canonical twist)",
        {"--type": _TYPE, "--output": _OUTPUT,
         "--genus": ("genus", _integer(), "GENUS", "genus of the base curve (>= 2)"), "--alpha": _ALPHA},
        ("--type", "--genus", "--alpha"),
    ),
    "selftest": (
        "randomized invariant suites",
        {"--output": _OUTPUT, "--seed": ("seed", _integer(), "SEED", "PRNG seed"),
         "--trials": ("trials", _integer(1), "TRIALS", "cases per suite")},
        (),
    ),
}
_HELP = ("-h", "--help")


def _flag_text(name: str, flag: tuple) -> str:
    return name if flag[1] is None else f"{name} {flag[2]}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: upqstab [-h] {{{','.join(_COMMANDS)}}} ..."
    _, flags, required = _COMMANDS[command]
    words = [f"usage: upqstab {command} [-h]"]
    for name, flag in flags.items():
        text = _flag_text(name, flag)
        words.append(text if name in required else f"[{text}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        lines = ["Exact stability computations for U(p,q)-Hitchin pair numerical types.", "", "commands:"]
        lines += [f"  {name:<10}{help_text}" for name, (help_text, _, _) in _COMMANDS.items()]
    else:
        help_text, flags, _ = _COMMANDS[command]
        lines = [help_text, "", "options:", f"  {'-h, --help':<26}show this help message and exit"]
        lines += [f"  {_flag_text(name, flag):<26}{flag[3]}" for name, flag in flags.items()]
    return "\n".join([_usage(command), "", *lines, ""])


def _usage_error(command: str | None, message: str) -> None:
    """Write the usage line and `upqstab <command>: error: <message>` to stderr, then exit 2."""
    prog = "upqstab" if command is None else f"upqstab {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _resolve_ctx(command: str, deg_l: int | None, genus: int | None, canonical: bool) -> GeometryContext:
    if canonical:
        if genus is None:
            _usage_error(command, "--canonical requires --genus")
        if deg_l is not None and deg_l != 2 * genus - 2:
            fixed, given = _shown_number(2 * genus - 2), _shown_number(deg_l)
            _usage_error(command, f"--canonical fixes degL = 2*genus - 2 = {fixed}, but --degL {given} was given")
        return GeometryContext.canonical_twist(genus)
    if deg_l is None:
        _usage_error(command, "this command needs a twisting degree: pass --degL or --canonical with --genus")
    return GeometryContext(genus=genus if genus is not None else 0, twist_degree=deg_l)


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and cross-validate argv into a RunConfig; usage errors exit 2.

    One pass over argv.  The command comes first.  A flag takes its value as
    "--flag value" or "--flag=value", and the value may start with "-"; a
    repeated flag keeps its last value, and each value is converted as it is
    read.  -h or --help prints the help wherever a flag may stand.  Tokens
    that are no flag of the command, and all tokens after "--", are reported
    together, after any missing required flag.
    """
    if not argv or argv[0] in _HELP:
        if argv:
            sys.stdout.write(_help(None))
            raise SystemExit(0)
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {_shown(command)} (choose from {', '.join(_COMMANDS)})")
    _, flags, required = _COMMANDS[command]
    values = {}
    leftover = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if token == "--":
            leftover += [token, *tokens]
            break
        name, eq, value = token.partition("=")
        flag = flags.get(name)
        if flag is None:
            leftover.append(token)
            continue
        dest, convert = flag[:2]
        if convert is None:
            if eq:
                _usage_error(command, f"argument {name}: ignored explicit argument {_shown(value)}")
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                _usage_error(command, f"argument {name}: expected one argument")
        try:
            values[dest] = convert(value)
        except ValueError as exc:
            _usage_error(command, f"argument {name}: {exc}")
    missing = [name for name in required if flags[name][0] not in values]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if leftover:
        _usage_error(command, f"unrecognized arguments: {_shown(' '.join(leftover), quoted=False)}")
    if values.get("output_path") == "":
        _usage_error(command, "argument --output: expected a file path, got ''")
    if command in ("mw", "walls", "chambers"):
        deg_l, genus, canonical = values.pop("deg_l", None), values.pop("genus", None), values.pop("canonical", False)
        if command == "mw":
            values["ctx"] = _resolve_ctx(command, deg_l, genus, canonical)
        elif values.get("mw_filter"):
            ctx = values["ctx"] = _resolve_ctx(command, deg_l, genus, canonical)
            if ctx.twist_degree < 0:
                given = f"--canonical --genus {ctx.genus}" if ctx.canonical else "--degL"
                degree = _shown_number(ctx.twist_degree)
                _usage_error(command, f"--mw-filter needs deg(L) >= 0, but {given} gives deg(L) = {degree}")
        elif deg_l is not None or canonical or genus is not None:
            _usage_error(command, f"--degL, --canonical and --genus only act with --mw-filter on {command}")
    # walls alone has --format, so every other report keeps RunConfig's JSON
    return RunConfig(command=command, **values)


def _execute(config: RunConfig) -> dict:
    """The command's report, its records and Fractions raw: `_render_json` writes them through `_json`."""
    if config.command == "toledo":
        return {"command": "toledo", "type": config.type_spec, "tau": toledo(config.type_spec)}
    if config.command == "mw":
        verdict = mw_check(
            config.type_spec, config.ctx.twist_degree, config.alpha, config.ranks
        )
        return {
            "command": "mw",
            "type": config.type_spec,
            "ctx": config.ctx,
            "alpha": config.alpha,
            "ranks": config.ranks,
            **_json(verdict),
        }
    if config.command in ("walls", "chambers"):
        mw_twist_degree = config.ctx.twist_degree if config.mw_filter else None
        report = {
            "command": config.command,
            "type": config.type_spec,
            "interval": config.interval,
            "mw_filter": config.mw_filter,
        }
        # the renderers write both members from the periodic wall table
        table = _periodic_wall_table(config.type_spec, config.interval, mw_twist_degree)
        report["walls"] = table
        if config.command == "chambers":
            report["chambers"] = table
        return report
    if config.command == "certify":
        certificate = irreducibility_certificate(config.type_spec, config.genus, config.alpha)
        return {
            "command": "certify",
            "type": config.type_spec,
            "genus": config.genus,
            "alpha": config.alpha,
            "certificate": certificate,
        }
    # selftest: parse_args admits no other command
    report = property_driver(config.seed, config.trials)
    return {"command": "selftest", **report}


# walls and chambers reports are written straight from the engine's periodic
# wall table (`walls._periodic_wall_table`): a list of periods (the window and,
# at deg L = 0 where the Milnor-Wood filter can drop a witness, one exact run),
# and the interval's walls as runs of copies of them, each naming its period
# by index.  Each renderer lays each period out once, however many runs take
# copies of it, and writes the runs in turn.  Each wall alpha is "%d/%d" of
# its key and the scale, both divided by their gcd, so no Fraction, Wall or
# Chamber is built per wall.  The templates reproduce, byte for byte, what
# json.dumps(..., indent=2, sort_keys=True) writes for Wall.to_json and
# ChamberReport.to_json at their depth in the report, and what csv.writer
# writes per witness; the stdlib encoder's pure-Python indent path costs more
# than the walls themselves.
#
# A period is laid out as byte templates, one per item (a wall, whose CSV
# rows make one item, or a pair of neighbouring walls), each ending in the
# separator that follows it.  A number that is the same in every copy of the
# period is a "%d" slot and comes from a tuple of the period's constants.  A
# number that moves from one copy to the next is a "%%d" slot with a base
# (its value in the first copy) and a step: a wall's alpha numerator moves by
# P times its denominator (P the period) and a witness's d' by p0 q' - q0 p'
# ((p0, q0) = (p, q)/g).
#
# Constants, bases and steps are flat int lists.  A layout flattens the
# period's witnesses once and puts each column in place by extended-slice
# assignment, as `bases[1::2] = d's` in a CSV row of (alpha num, d'), so no
# iterator or tuple is made per wall or per row.  A JSON wall's head sits
# among its witnesses, at no fixed stride: every slot first takes the d'
# step its numbers would have as a witness's, and one pass over the walls
# then sets each head's numerator step over it.
#
# `_periodic_pieces` fills the constants in with one `%`, which leaves one
# "%d" per moving number, then writes each copy with one more `%` over its
# moving numbers, advanced by one `itertools.count` per slot.  Bytes `%`
# finds its slots with memchr, where str `%` steps through the long literals
# one character at a time.  The pieces are written out as they are, never
# joined, so the report is held once.  The counts cost one object per slot
# up front and little per copy, which suits many copies of a short period:
# advancing each copy by tuple(map(add, values, steps)) instead made the
# walls_mw cycle (runs of 9 to 20 copies of a 10-wall (4,4) period) 5%
# slower in process, 1.199 -> 1.261 ms per request (median of 6 alternating
# rounds of 640 requests, Python 3.11.7, 2 vCPUs), though it helped
# walls_wide's 8 copies of a 188-wall (7,5) period.
_WITNESS_JSON = b"        [\n          %d,\n          %d,\n          %%d\n        ]"
_WITNESS_SEP = b",\n" + _WITNESS_JSON
# a wall's head has two constant slots in both reports, so `_walls_json` lays
# their numbers out alike: in a walls report the second is "%s" of b"", which
# prints nothing
_WALL_HEAD = b'    {\n      "alpha": "%%d/%d%s",\n      "witnesses": [\n' + _WITNESS_JSON
_COUNTED_WALL_HEAD = (
    b'    {\n      "alpha": "%%d/%d",\n      "witness_count": %d,\n      "witnesses": [\n' + _WITNESS_JSON
)
_WALL_TAIL = b"\n      ]\n    },\n"
_CHAMBER_JSON = (
    b'    {\n      "hi": "%s",\n      "hi_closed": %s,\n      "lo": "%s",\n      "lo_closed": %s\n    },\n'
)
# a chamber between two neighbouring walls, (hi num, lo num) moving and (hi den, lo den) constant
_INNER_CHAMBER_JSON = (
    b'    {\n      "hi": "%%d/%d",\n      "hi_closed": false,\n      "lo": "%%d/%d",\n      "lo_closed": false\n    },\n'
)
_CSV_ROW = b"%%d,%d,%d,%d,%%d\n"


def _periodic_pieces(
    period: list[bytes], constants: tuple, bases: list[int], steps: list[int], total: int, first: int = 0
) -> list[bytes]:
    """The first `total` items of a periodic sequence from copy `first` on, as byte pieces.

    period holds the item templates of one period, one per wall or per pair
    of neighbouring walls.  Its "%d" slots are the same in every copy and
    take constants in order; in copy j its i-th "%%d" slot is bases[i] + j *
    steps[i].  The period has at least one "%%d" slot, and steps may be empty
    when first is 0 and total is at most one period.  The pieces are one per
    whole copy, then one for the items of the last, partial copy.
    """
    if not total:
        return []
    if first:
        bases = list(map(operator.add, bases, map(operator.mul, steps, repeat(first))))
    copies, rest = divmod(total, len(period))
    # the partial copy is the period's first `rest` items: its text, with its constants filled in
    head = b"".join(period[:rest])
    moving = head.count(b"%%")
    split = head.count(b"%") - 2 * moving
    head %= constants[:split]
    pieces = []
    if copies:
        literal = head + b"".join(period[rest:]) % constants[split:]
        if copies == 1:
            pieces.append(literal % tuple(bases))
        else:
            pieces += map(literal.__mod__, islice(zip(*map(count, bases, steps)), copies))
    if rest:
        values = bases[:moving]
        if copies:
            values = map(operator.add, values, map(operator.mul, steps[:moving], repeat(copies)))
        pieces.append(head % tuple(values))
    return pieces


def _periods(table) -> list[tuple | None]:
    """Each period of the table as (groups, nums, dens, moves), or None when no run takes a wall of it.

    nums and dens are the period's wall alphas key/scale in lowest terms, and
    moves is whether a run takes walls past the period's first copy.
    """
    moves = {}
    for index, first, walls in table.runs:
        moves[index] = moves.get(index, False) or first > 0 or walls > len(table.periods[index][0])
    return [
        (groups, *_reduced(keys, table.scale), moves[index]) if index in moves else None
        for index, (keys, groups) in enumerate(table.periods)
    ]


def _reduced(keys: list[int], scale: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of the wall alphas key/scale in lowest terms."""
    gcds = list(map(math.gcd, keys, repeat(scale)))
    return list(map(operator.floordiv, keys, gcds)), list(map(operator.floordiv, repeat(scale), gcds))


def _d_steps(table, ps: list[int], qs: list[int]) -> Iterator[int]:
    """How far each witness's d' moves per period: p0 q' - q0 p'."""
    return map(operator.sub, map(operator.mul, repeat(table.p0), qs), map(operator.mul, repeat(table.q0), ps))


def _run_pieces(table, layout, periods: list) -> list[bytes]:
    """The items of every run in turn, each period laid out once by layout(groups, nums, dens, moves)."""
    laid = [entry and layout(*entry) for entry in periods]
    items = []
    for index, first, walls in table.runs:
        items += _periodic_pieces(*laid[index], walls, first)
    return items


def _walls_json(table, periods: list, counted: bool) -> list[bytes]:
    """The walls member's items, each ending in its separator."""
    period = table.p0 + table.q0

    def layout(groups, nums, dens, moves):
        counts = list(map(len, groups))
        head = _COUNTED_WALL_HEAD if counted else _WALL_HEAD
        templates = {n: head + _WITNESS_SEP * (n - 1) + _WALL_TAIL for n in set(counts)}
        # one slot per wall head (den, witness count, alpha numerator) and per
        # witness (p', q', d'), in report order: each slot's last number moves
        slots = list(chain.from_iterable(chain.from_iterable(map(operator.add, zip(zip(dens, counts, nums)), groups))))
        bases = slots[2::3]
        del slots[2::3]
        steps = []
        if moves:
            # every slot's step as a witness's d' step; each head's is set over it below
            steps = list(_d_steps(table, slots[0::2], slots[1::2]))
        # each wall's head slot comes after the heads and witnesses of the walls before it
        slot = 0
        for n, den in zip(counts, dens):
            if moves:
                steps[slot] = den * period
            if not counted:
                # a walls report's "%s" slot prints nothing
                slots[2 * slot + 1] = b""
            slot += n + 1
        return list(map(templates.__getitem__, counts)), tuple(slots), bases, steps

    return _run_pieces(table, layout, periods)


def _chambers_json(table, periods: list) -> list[bytes]:
    """The chambers member's items, each ending in its separator.

    Each gap between neighbouring walls is one chamber, within a run or
    across the join of two.  `end` is the end below the next chamber, as its
    "num/den" text and closed flag: lo, closed, then each run's last wall,
    open.  The chamber from it to a run's first wall is written unless that
    wall is lo, and the one from it to hi, closed, unless it is a wall on hi.
    """
    lo_text, hi_text = format_rational(table.lo).encode(), format_rational(table.hi).encode()
    period = table.p0 + table.q0

    def layout(_, nums, dens, moves):
        # chamber i of a period lies between walls i and i + 1, and wall n is
        # wall 0 of the next copy: its (hi, lo) are walls (i + 1, i)
        constants = [0] * (2 * len(nums))
        constants[0::2] = [*dens[1:], dens[0]]
        constants[1::2] = dens
        bases = constants[:]
        bases[0::2] = [*nums[1:], nums[0] + period * dens[0]]
        bases[1::2] = nums
        # a numerator moves by P times its denominator per copy
        steps = list(map(operator.mul, constants, repeat(period))) if moves else []
        return [_INNER_CHAMBER_JSON] * len(nums), tuple(constants), bases, steps

    laid = [entry and layout(*entry) for entry in periods]
    items = []
    end = (lo_text, b"true")
    for index, first, walls in table.runs:
        _, nums, dens, _ = periods[index]
        # the run's first and last walls
        copy, i = divmod(first * len(nums) + walls - 1, len(nums))
        start = b"%d/%d" % (nums[0] + first * period * dens[0], dens[0])
        if start != end[0]:
            items.append(_CHAMBER_JSON % (start, b"false", *end))
        items += _periodic_pieces(*laid[index], walls - 1, first)
        end = (b"%d/%d" % (nums[i] + copy * period * dens[i], dens[i]), b"false")
    if end != (hi_text, b"false"):
        items.append(_CHAMBER_JSON % (hi_text, b"true", *end))
    return items


def _render_json(report: dict) -> list[bytes]:
    """The report's pieces, each member at its place in sorted-key order.

    A report without walls is its json.dumps text, in one piece.  Only walls
    and chambers reports have walls and chambers members, and both hold the
    same periodic wall table; every other member of theirs is its json.dumps
    text.
    """
    table = report.get("walls")
    if table is None:
        return [(json.dumps(_json(report), indent=2, sort_keys=True) + "\n").encode("ascii")]
    periods = _periods(table)
    lists = {"walls": _walls_json(table, periods, report["command"] == "chambers")}
    if "chambers" in report:
        lists["chambers"] = _chambers_json(table, periods)
    parts = [b"{\n"]
    for key in sorted(report):
        parts.append(b'  "%s": ' % key.encode("ascii"))
        items = lists.get(key)
        if items is None:
            parts.append(json.dumps(_json(report[key]), indent=2, sort_keys=True).replace("\n", "\n  ").encode("ascii"))
        elif items:
            # the last item takes no separator
            items[-1] = items[-1][:-2]
            parts += (b"[\n", *items, b"\n  ]")
        else:
            parts.append(b"[]")
        parts.append(b",\n")
    parts[-1] = b"\n}\n"
    return parts


def _render_csv(report: dict) -> list[bytes]:
    table = report["walls"]

    def layout(groups, nums, dens, moves):
        counts = list(map(len, groups))
        templates = {n: _CSV_ROW * n for n in set(counts)}
        # the rows' (p', q', d'), and their (alpha num, alpha den): each wall's pair once per witness
        flat = list(chain.from_iterable(chain.from_iterable(groups)))
        bases = list(chain.from_iterable(map(operator.mul, zip(nums, dens), counts)))
        row_dens = bases[1::2]
        # a row's alpha numerator and d' move
        bases[1::2] = flat[2::3]
        # its alpha den, p' and q' are constants: one slot on from flat, each
        # row's first slot holds the d' of the row before, which its den replaces
        constants = [0, *flat]
        del constants[-1]
        constants[0::3] = row_dens
        steps = []
        if moves:
            steps = [0] * len(bases)
            steps[0::2] = map(operator.mul, row_dens, repeat(table.p0 + table.q0))
            steps[1::2] = _d_steps(table, flat[0::3], flat[1::3])
        return list(map(templates.__getitem__, counts)), tuple(constants), bases, steps

    return [b"alpha_num,alpha_den,p_sub,q_sub,d_sub\n", *_run_pieces(table, layout, _periods(table))]


def render(config: RunConfig, report: dict) -> list[bytes]:
    """The report as ASCII byte pieces, to be written out in order."""
    if config.output_format == "csv":
        return _render_csv(report)
    return _render_json(report)


def run(config: RunConfig) -> int:
    """Execute the configured command; engine errors (ValueError), failed writes and failed selftest suites exit 1.

    Every piece of the report is built before the first byte is written, so
    an engine error leaves stdout empty.
    """
    try:
        report = _execute(config)
    except ValueError as exc:
        print(f"upqstab: error: {_too_long_reason(exc) or exc}", file=sys.stderr)
        return 1
    try:
        pieces = render(config, report)
    except ValueError as exc:
        # the one error render expects; any other is a fault in its own templates
        reason = _too_long_reason(exc)
        if reason is None:
            raise
        print(f"upqstab: error: {reason}", file=sys.stderr)
        return 1
    try:
        if config.output_path is None:
            _write_stdout(pieces)
        else:
            _write_report(config.output_path, pieces)
    except OSError as exc:
        target = "stdout" if config.output_path is None else config.output_path
        print(f"upqstab: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    if config.command == "selftest" and not report["all_passed"]:
        failed = ", ".join(suite["name"] for suite in report["suites"] if not suite["passed"])
        print(f"upqstab: error: selftest suites failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _too_long_reason(exc: ValueError) -> str | None:
    # results are unbounded integers, and str() refuses one past the interpreter's digit limit
    if _exceeds_digit_limit(exc):
        return f"a result is too long to print: it has an integer of more than {sys.get_int_max_str_digits()} digits"
    return None


def _write_stdout(pieces: list[bytes]) -> None:
    """Write the pieces to sys.stdout as text, then flush it.

    Text, so that a sys.stdout replaced by an io.StringIO gets the report
    too.  When the process's own stdout fails, the rest of it is sent to the
    null device before the OSError goes on: the interpreter flushes stdout
    again at exit and would report the failure a second time.
    """
    try:
        for piece in pieces:
            sys.stdout.write(piece.decode("ascii"))
        sys.stdout.flush()
    except OSError:
        if sys.stdout is sys.__stdout__:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise


def _write_report(target: str, pieces: list[bytes]) -> None:
    """Write the report's pieces to target.

    A new path or an existing regular file is written to a temp file in the
    same directory and renamed over it, so readers see the old file or the whole
    new one, never a partial write.  On failure the temp file is removed and an
    existing file is left as it was.  The new file keeps the old one's permission
    bits (not its owner or hard links), a symlink is followed to the file it
    names, and a file this process may not write is refused as a plain write
    would refuse it.  Any other existing target (a device such as /dev/null, a
    FIFO, /dev/stdout) is written in place: renaming over it would replace the
    node instead of writing to it.  Both are written by `_write_pieces`, with
    os.writev on the raw file descriptor (POSIX only, as os.fchmod is).
    """
    try:
        st = os.stat(target)
    except FileNotFoundError:
        mode = None
    else:
        if not stat.S_ISREG(st.st_mode):
            # the flags and mode of open(target, "wb")
            fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                _write_pieces(fd, pieces)
            finally:
                os.close(fd)
            return
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        mode = stat.S_IMODE(st.st_mode)
    if os.path.islink(target):
        target = os.path.realpath(target)
    head, name = os.path.split(target)
    temp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            if mode is not None:
                os.fchmod(fd, mode)
            _write_pieces(fd, pieces)
        finally:
            os.close(fd)
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


# the most buffers one os.writev call takes (1024 on Linux)
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _write_pieces(fd: int, pieces: list[bytes]) -> None:
    """Write the pieces to the file descriptor fd, in order and whole.

    One os.writev call takes up to _IOV_MAX pieces; after a short write the
    batch goes on from its first unwritten byte.
    """
    for start in range(0, len(pieces), _IOV_MAX):
        batch = pieces[start:start + _IOV_MAX]
        left = sum(map(len, batch))
        while left > 0:
            written = os.writev(fd, batch)
            left -= written
            if left > 0:
                # drop the pieces written whole, then the written head of the next one
                done = 0
                while written >= len(batch[done]):
                    written -= len(batch[done])
                    done += 1
                batch = batch[done:]
                batch[0] = memoryview(batch[0])[written:]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_args(args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    return run(config)


def process_main() -> None:
    """Entry of an `upqstab` or `python -m upqstab` process: main on sys.argv, then exit with its code.

    Once main has written the report, gc.freeze() moves every object the
    collector tracks into its permanent generation, which the collections at
    interpreter shutdown skip: they no longer traverse everything the imports
    made, and the cycles among those objects are left for the exit to
    reclaim.  Exit codes, stderr, atexit handlers and the final flush of
    stdio run as before.  main itself never touches the collector, so
    in-process callers keep theirs.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)
