"""Command-line front end emitting deterministic JSON/CSV reports.

Commands:
  toledo    Toledo invariant of a numerical type.
  mw        Milnor-Wood membership check for the Toledo invariant.
  walls     Critical values of the stability parameter in an interval.
  chambers  Walls plus the chamber decomposition of the interval.
  certify   Irreducibility certificate for canonically twisted pairs.
  selftest  Randomized invariant suites against the brute-force oracles.

Rationals are printed as exact "num/den" strings and accepted as "num/den"
or plain integer strings; decimals are rejected.  Exit codes: 0 success,
1 engine error or a failed selftest suite (its report is still written),
2 usage error.  Every command writes JSON; walls alone also
writes CSV, with --format csv.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import operator
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat

from .core import (
    GeometryContext,
    HiggsRankPair,
    HitchinPairType,
    format_rational,
    parse_rational,
    toledo,
)
from .milnor_wood import mw_check
from .oracle import property_driver
# enumerate_walls and chamber_report are not called here, but stay bound:
# perfbench/tracing.py patches them, and format_rational, by name in this module
from .walls import _chamber_tiling, _periodic_wall_table, chamber_report, enumerate_walls, irreducibility_certificate


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
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _parse_ranks(text: str) -> HiggsRankPair:
    try:
        rk_beta, rk_gamma = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected 'rk_beta,rk_gamma' with two integers, got {text!r}") from None
    return HiggsRankPair(rk_beta, rk_gamma)


def _usage_type(parse):
    """An argparse type that gives parse's ValueError message as the usage error.

    argparse turns a bare ValueError into "invalid <function name> value",
    which names the parser instead of the reason.
    """

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _int_at_least(minimum: int):
    """An argparse type for integers no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _add_common(sub: argparse.ArgumentParser, *, with_type: bool = True) -> None:
    if with_type:
        sub.add_argument(
            "--type",
            dest="type_spec",
            type=_usage_type(HitchinPairType.parse),
            required=True,
            metavar="p,q,a,b",
            help="numerical type of the pair",
        )
    sub.add_argument("--output", dest="output_path", default=None, help="write the report here instead of stdout")


def _add_twist(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--degL", dest="deg_l", type=int, default=None, help="degree of the twisting line bundle")
    sub.add_argument("--genus", type=_int_at_least(0), default=None, help="genus of the base curve")
    sub.add_argument(
        "--canonical",
        action="store_true",
        help="twist by the canonical bundle: deg(L) = 2*genus - 2 (requires --genus)",
    )


# flags that take one value.  argparse reads a value that starts with "-"
# (negative degrees, "-2,2" intervals) as an option string, so parse_args
# splices such a flag and value into --flag=value form; any other value is
# left as typed, so usage errors quote argv as the user wrote it.
_VALUE_FLAGS = frozenset(
    {"--type", "--interval", "--alpha", "--degL", "--genus", "--ranks",
     "--format", "--output", "--seed", "--trials"}
)


def _merge_value_flags(argv: list[str]) -> list[str]:
    merged = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if token in _VALUE_FLAGS and index + 1 < len(argv) and argv[index + 1].startswith("-"):
            merged.append(f"{token}={argv[index + 1]}")
            index += 2
        else:
            merged.append(token)
            index += 1
    return merged


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="upqstab",
        description="Exact stability computations for U(p,q)-Hitchin pair numerical types.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("toledo", help="Toledo invariant of a type")
    _add_common(sub)

    sub = commands.add_parser("mw", help="Milnor-Wood membership check")
    _add_common(sub)
    _add_twist(sub)
    sub.add_argument("--alpha", type=_usage_type(parse_rational), required=True, help="stability parameter")
    sub.add_argument(
        "--ranks",
        type=_usage_type(_parse_ranks),
        default=None,
        metavar="rk_beta,rk_gamma",
        help="use the rank-level bounds with these Higgs-field ranks",
    )

    for name, help_text in (
        ("walls", "critical parameter values in an interval"),
        ("chambers", "walls plus chamber decomposition"),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "walls":
            sub.add_argument(
                "--format",
                dest="output_format",
                choices=("json", "csv"),
                default="json",
                help="output format (default: json)",
            )
        _add_twist(sub)
        sub.add_argument(
            "--interval",
            type=_usage_type(_parse_interval),
            required=True,
            metavar="lo,hi",
            help="closed parameter interval",
        )
        sub.add_argument(
            "--mw-filter",
            dest="mw_filter",
            action="store_true",
            help="drop witnesses with no Milnor-Wood-feasible degree split (needs --degL or --canonical)",
        )

    sub = commands.add_parser("certify", help="irreducibility certificate (canonical twist)")
    _add_common(sub)
    sub.add_argument("--genus", type=int, required=True, help="genus of the base curve (>= 2)")
    sub.add_argument("--alpha", type=_usage_type(parse_rational), required=True, help="stability parameter")

    sub = commands.add_parser("selftest", help="randomized invariant suites")
    _add_common(sub, with_type=False)
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed")
    sub.add_argument("--trials", type=_int_at_least(1), default=1000, help="cases per suite")

    return parser


def _resolve_ctx(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> GeometryContext:
    deg_l, genus = ns.deg_l, ns.genus
    if ns.canonical:
        if genus is None:
            parser.error("--canonical requires --genus")
        if deg_l is not None and deg_l != 2 * genus - 2:
            parser.error(f"--canonical fixes degL = 2*genus - 2 = {2 * genus - 2}, but --degL {deg_l} was given")
        return GeometryContext.canonical_twist(genus)
    if deg_l is None:
        parser.error("this command needs a twisting degree: pass --degL or --canonical with --genus")
    return GeometryContext(genus=genus if genus is not None else 0, twist_degree=deg_l)


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and cross-validate argv into a RunConfig; usage errors exit 2."""
    parser = build_parser()
    ns = parser.parse_args(_merge_value_flags(argv))
    if ns.output_path == "":
        parser.error("argument --output: expected a file path, got ''")
    common = {"command": ns.command, "output_path": ns.output_path}
    if ns.command == "toledo":
        return RunConfig(type_spec=ns.type_spec, **common)
    if ns.command == "mw":
        ctx = _resolve_ctx(parser, ns)
        return RunConfig(type_spec=ns.type_spec, ctx=ctx, alpha=ns.alpha, ranks=ns.ranks, **common)
    if ns.command in ("walls", "chambers"):
        ctx = None
        if ns.mw_filter:
            ctx = _resolve_ctx(parser, ns)
            if ctx.twist_degree < 0:
                given = f"--canonical --genus {ctx.genus}" if ctx.canonical else "--degL"
                parser.error(f"--mw-filter needs deg(L) >= 0, but {given} gives deg(L) = {ctx.twist_degree}")
        elif ns.deg_l is not None or ns.canonical or ns.genus is not None:
            parser.error(f"--degL, --canonical and --genus only act with --mw-filter on {ns.command}")
        return RunConfig(
            type_spec=ns.type_spec,
            ctx=ctx,
            interval=ns.interval,
            mw_filter=ns.mw_filter,
            # only walls has --format; every other report is JSON
            output_format=ns.output_format if ns.command == "walls" else "json",
            **common,
        )
    if ns.command == "certify":
        return RunConfig(type_spec=ns.type_spec, genus=ns.genus, alpha=ns.alpha, **common)
    # selftest: argparse admits no other command
    return RunConfig(seed=ns.seed, trials=ns.trials, **common)


def _execute(config: RunConfig) -> dict:
    if config.command == "toledo":
        t = config.type_spec
        return {"command": "toledo", "type": t.to_json(), "tau": format_rational(toledo(t))}
    if config.command == "mw":
        verdict = mw_check(
            config.type_spec, config.ctx.twist_degree, config.alpha, config.ranks
        )
        return {
            "command": "mw",
            "type": config.type_spec.to_json(),
            "ctx": config.ctx.to_json(),
            "alpha": format_rational(config.alpha),
            "ranks": None if config.ranks is None else config.ranks.to_json(),
            **verdict.to_json(),
        }
    if config.command in ("walls", "chambers"):
        mw_twist_degree = config.ctx.twist_degree if config.mw_filter else None
        lo, hi = config.interval
        report = {
            "command": config.command,
            "type": config.type_spec.to_json(),
            "interval": [format_rational(lo), format_rational(hi)],
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
            "type": config.type_spec.to_json(),
            "genus": config.genus,
            "alpha": format_rational(config.alpha),
            "certificate": certificate.to_json(),
        }
    # selftest: argparse admits no other command
    report = property_driver(config.seed, config.trials)
    return {"command": "selftest", **report}


# walls and chambers reports are written straight from the engine's periodic
# wall table (`walls._periodic_wall_table`): the walls of one period, how many
# copies of that period the interval holds, and how many walls of one more
# copy it ends with.  Each wall alpha is "%d/%d" of its key and the scale,
# both divided by their gcd, so no Fraction, Wall or Chamber is built per
# wall.  The templates reproduce, byte for byte, what json.dumps(...,
# indent=2, sort_keys=True) writes for Wall.to_json and ChamberReport.to_json
# at their depth in the report, and what csv.writer writes per witness; the
# stdlib encoder's pure-Python indent path costs more than the walls
# themselves.
#
# Each renderer lays one period out as byte templates, one per item (a wall,
# a witness row or a pair of neighbouring walls), each ending in the
# separator that follows it.  A number that is the same in every copy of the
# period is a "%d" slot and comes from a tuple of the period's constants.  A
# number that moves from one copy to the next is a "%%d" slot with a base
# (its value in the first copy) and a step: a wall's alpha numerator moves by
# P times its denominator (P the period) and a witness's d' by p0 q' - q0 p'
# ((p0, q0) = (p, q)/g).  `_periodic_pieces` fills the constants in with one
# `%`, which leaves one "%d" per moving number, then writes each copy with
# one more `%` over its moving numbers, taken from one arithmetic progression
# per slot.  Bytes `%` finds its slots with memchr, where str `%` steps
# through the long literals one character at a time.  The pieces are written
# out as they are, never joined, so the report is held once.
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
    b'    {\n      "hi": "%s",\n      "hi_closed": %s,\n      "lo": "%s",\n      "lo_closed": %s\n    }'
)
# a chamber between two neighbouring walls, (hi num, lo num) moving and (hi den, lo den) constant
_INNER_CHAMBER_JSON = (
    b'    {\n      "hi": "%%d/%d",\n      "hi_closed": false,\n      "lo": "%%d/%d",\n      "lo_closed": false\n    },\n'
)
_CSV_ROW = b"%%d,%d,%d,%d,%%d\n"
_JSON_BOOL = {False: b"false", True: b"true"}


def _periodic_pieces(period: list[bytes], constants: tuple, bases: list[int], steps: list[int], total: int) -> list[bytes]:
    """The first `total` items of a periodic sequence, as byte pieces.

    period holds the item templates of one period.  Its "%d" slots are the
    same in every copy and take constants in order; in copy j its i-th
    "%%d" slot is bases[i] + j * steps[i].  The period has at least one
    "%%d" slot, and steps may be empty when total is at most one period.
    The pieces are one per whole copy, then one for the items of the last,
    partial copy.
    """
    if not total:
        return []
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


def _reduced(keys: list[int], scale: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of the wall alphas key/scale in lowest terms."""
    gcds = list(map(math.gcd, keys, repeat(scale)))
    return list(map(operator.floordiv, keys, gcds)), list(map(operator.floordiv, repeat(scale), gcds))


def _columns(table) -> tuple[list[int], list[int], list[int]]:
    """The p', q' and d' of the period's witnesses, wall by wall, as three columns."""
    flat = list(chain.from_iterable(chain.from_iterable(table.groups)))
    return flat[0::3], flat[1::3], flat[2::3]


def _d_steps(table, ps: list[int], qs: list[int]) -> Iterator[int]:
    """How far each witness's d' moves per period: p0 q' - q0 p'."""
    return map(operator.sub, map(operator.mul, repeat(table.p0), qs), map(operator.mul, repeat(table.q0), ps))


def _per_row(values: Iterable[int], counts: list[int]) -> Iterator[int]:
    """Each wall's value, once per witness of the wall."""
    return chain.from_iterable(map(repeat, values, counts))


def _walls_json(parts: list[bytes], table, nums: list[int], dens: list[int], counted: bool) -> None:
    """Append the walls member's pieces to parts."""
    counts = list(map(len, table.groups))
    head = _COUNTED_WALL_HEAD if counted else _WALL_HEAD
    templates = {n: head + _WITNESS_SEP * (n - 1) + _WALL_TAIL for n in set(counts)}
    # each wall as (den, witness count or b"", alpha numerator), then its
    # witnesses' (p', q', d'): every third number moves, the rest are constants
    heads = zip(dens, counts if counted else repeat(b""), nums)
    flat = list(chain.from_iterable(chain.from_iterable(map(operator.add, zip(heads), table.groups))))
    bases = flat[2::3]
    del flat[2::3]
    steps = []
    if table.copies:
        ps, qs, _ = _columns(table)
        num_steps = map(operator.mul, dens, repeat(table.p0 + table.q0))
        # per wall: its numerator's step, then its witnesses' d' steps, each
        # wall's islice taking them in turn from the one shared iterator
        d_steps = map(islice, repeat(_d_steps(table, ps, qs)), counts)
        steps = list(chain.from_iterable(map(chain, zip(num_steps), d_steps)))
    total = table.copies * len(counts) + table.prefix
    pieces = _periodic_pieces(list(map(templates.__getitem__, counts)), tuple(flat), bases, steps, total)
    if not pieces:
        parts.append(b"[]")
        return
    # the last wall takes no separator
    pieces[-1] = pieces[-1][:-2]
    parts.append(b"[\n")
    parts += pieces
    parts.append(b"\n  ]")


def _chambers_json(parts: list[bytes], table, nums: list[int], dens: list[int]) -> None:
    """Append the chambers member's pieces to parts."""
    n = len(table.keys)
    walls = table.copies * n + table.prefix
    period = table.p0 + table.q0
    # the keys of the interval's first and last walls; the last is in copy (walls - 1) // n
    ends = [table.keys[0], table.keys[(walls - 1) % n] + (walls - 1) // n * period * table.scale] if walls else []
    tiling = _chamber_tiling(table.lo * table.scale, table.hi * table.scale, ends)
    if tiling is None:
        parts.append(b"[]")
        return
    _, lo_closed, hi_closed = tiling
    lo_text, hi_text = format_rational(table.lo).encode(), format_rational(table.hi).encode()
    # the chambers' inner boundaries are the walls first, ..., last; only the ends of the interval can be closed
    first, last = int(not lo_closed), walls - 1 - (not hi_closed)
    parts.append(b"[\n")
    if first > last:
        parts += (_CHAMBER_JSON % (hi_text, _JSON_BOOL[hi_closed], lo_text, _JSON_BOOL[lo_closed]), b"\n  ]")
        return

    def wall(index: int) -> tuple[int, int]:
        copy, index = divmod(index, n)
        return nums[index] + copy * period * dens[index], dens[index]

    # walls first, ..., first + n, the last one or two from the next copy
    later = list(map(wall, range(n, first + n + 1)))
    bound_nums = nums[first:] + [num for num, _ in later]
    bound_dens = dens[first:] + [den for _, den in later]
    # chamber i lies between walls first + i and first + i + 1
    constants = tuple(chain.from_iterable(zip(bound_dens[1:], bound_dens)))
    bases = list(chain.from_iterable(zip(bound_nums[1:], bound_nums)))
    steps = []
    if table.copies:
        bound_steps = list(map(operator.mul, bound_dens, repeat(period)))
        steps = list(chain.from_iterable(zip(bound_steps[1:], bound_steps)))
    first_wall = b"%d/%d" % (bound_nums[0], bound_dens[0])
    last_wall = b"%d/%d" % wall(last)
    parts += (_CHAMBER_JSON % (first_wall, b"false", lo_text, _JSON_BOOL[lo_closed]), b",\n")
    parts += _periodic_pieces([_INNER_CHAMBER_JSON] * n, constants, bases, steps, last - first)
    parts += (_CHAMBER_JSON % (hi_text, _JSON_BOOL[hi_closed], last_wall, b"false"), b"\n  ]")


def _render_json(report: dict) -> list[bytes]:
    """The report's pieces, each member at its place in sorted-key order.

    A report without walls is its json.dumps text, in one piece.  Only walls
    and chambers reports have walls and chambers members, and both hold the
    same periodic wall table; every other member of theirs is its json.dumps
    text.
    """
    table = report.get("walls")
    if table is None:
        return [(json.dumps(report, indent=2, sort_keys=True) + "\n").encode("ascii")]
    nums, dens = _reduced(table.keys, table.scale)
    parts = [b"{\n"]
    for key in sorted(report):
        parts.append(b'  "%s": ' % key.encode("ascii"))
        if key == "walls":
            _walls_json(parts, table, nums, dens, report["command"] == "chambers")
        elif key == "chambers":
            _chambers_json(parts, table, nums, dens)
        else:
            parts.append(json.dumps(report[key], indent=2, sort_keys=True).replace("\n", "\n  ").encode("ascii"))
        parts.append(b",\n")
    parts[-1] = b"\n}\n"
    return parts


def _render_csv(report: dict) -> list[bytes]:
    table = report["walls"]
    nums, dens = _reduced(table.keys, table.scale)
    counts = list(map(len, table.groups))
    ps, qs, ds = _columns(table)
    # a row's constants are its wall's alpha den and its p', q'; its alpha numerator and d' move
    constants = tuple(chain.from_iterable(zip(_per_row(dens, counts), ps, qs)))
    bases = list(chain.from_iterable(zip(_per_row(nums, counts), ds)))
    steps = []
    if table.copies:
        num_steps = map(operator.mul, dens, repeat(table.p0 + table.q0))
        steps = list(chain.from_iterable(zip(_per_row(num_steps, counts), _d_steps(table, ps, qs))))
    rows = table.copies * len(ds) + sum(counts[: table.prefix])
    pieces = _periodic_pieces([_CSV_ROW] * len(ds), constants, bases, steps, rows)
    return [b"alpha_num,alpha_den,p_sub,q_sub,d_sub\n", *pieces]


def render(config: RunConfig, report: dict) -> list[bytes]:
    """The report as ASCII byte pieces, to be written out in order."""
    if config.output_format == "csv":
        return _render_csv(report)
    return _render_json(report)


def run(config: RunConfig) -> int:
    """Execute the configured command; engine failures, failed writes and failed selftest suites exit 1.

    Every piece of the report is built before the first byte is written, so
    an engine error leaves stdout empty.
    """
    try:
        report = _execute(config)
    except (ValueError, TypeError) as exc:
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


def _too_long_reason(exc: Exception) -> str | None:
    # results are unbounded integers, and str() refuses one past the interpreter's digit limit
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
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
    node instead of writing to it.
    """
    try:
        st = os.stat(target)
    except FileNotFoundError:
        mode = None
    else:
        if not stat.S_ISREG(st.st_mode):
            with open(target, "wb") as handle:
                handle.writelines(pieces)
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
        with open(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.writelines(pieces)
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_args(args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    return run(config)
