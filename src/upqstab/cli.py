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
from itertools import chain, compress, count, islice, repeat

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
    # set only by perfbench/probes.py:at_one_job; passed on to property_driver
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
    report = property_driver(config.seed, config.trials, config.jobs)
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
# Each renderer lays one period out as a list of item templates (one per
# wall, witness row or pair of neighbouring walls) and one flat list of their
# `%` arguments.  A wall's part of a template is its head, the witness
# template repeated once per further witness, and its tail, built once per
# witness count.  An argument that moves from one copy of the period to the
# next is a "%i": a wall's alpha numerator moves by P times its denominator
# (P the period) and a witness's d' by p0 q' - q0 p' ((p0, q0) = (p, q)/g).
# Every other argument is a "%d" and stays.  `_periodic_text` writes a
# single copy with one `%` over the period's template.  For more copies it
# writes the constants into the template once, with one `%`, and fills each
# copy's "%i"s from one arithmetic progression per argument (`count`s,
# zipped), so no per-witness Python code runs after the first copy.  The
# interval's last, partial copy is one `%` over the templates of its walls.
_WITNESS_JSON = "        [\n          %d,\n          %d,\n          %i\n        ]"
_WITNESS_SEP = ",\n" + _WITNESS_JSON
_WALL_HEAD = '    {\n      "alpha": "%i/%d",\n      "witnesses": [\n' + _WITNESS_JSON
_COUNTED_WALL_HEAD = (
    '    {\n      "alpha": "%i/%d",\n      "witness_count": %d,\n      "witnesses": [\n' + _WITNESS_JSON
)
_WALL_TAIL = "\n      ]\n    }"
_CHAMBER_JSON = (
    '    {\n      "hi": "%s",\n      "hi_closed": %s,\n      "lo": "%s",\n      "lo_closed": %s\n    }'
)
# a chamber between two neighbouring walls: (hi num, hi den, lo num, lo den)
_INNER_CHAMBER_JSON = (
    '    {\n      "hi": "%i/%d",\n      "hi_closed": false,\n      "lo": "%i/%d",\n      "lo_closed": false\n    }'
)
_CSV_ROW = "%i,%d,%d,%d,%i\n"
_JSON_BOOL = {False: "false", True: "true"}


def _periodic_text(period: list[str], args: list[int], steps: list[int], total: int, sep: str) -> list[str]:
    """The first `total` items of a periodic sequence, as pieces to join with sep.

    period holds the item templates of one period and args their `%`
    arguments in order.  In copy j of the period, argument i is args[i] +
    j * steps[i]; steps[i] is nonzero exactly at the "%i" arguments, and
    steps may be empty when total is at most one period.
    """
    if not total:
        return []
    copies, rest = divmod(total, len(period))
    template = sep.join(period)
    pieces = []
    if copies == 1:
        pieces.append(template % tuple(args))
    elif copies > 1:
        # the constants written in once; then one progression per moving argument, zipped per copy
        literal = template.replace("%i", "%%i") % tuple(compress(args, map(operator.not_, steps)))
        moving = zip(*map(count, compress(args, steps), compress(steps, steps)))
        pieces += map(literal.__mod__, islice(moving, copies))
    if rest:
        head = sep.join(period[:rest])
        args = args[: head.count("%")]
        if copies:
            args = map(operator.add, args, map(operator.mul, steps, repeat(copies)))
        pieces.append(head % tuple(args))
    return pieces


def _json_list(parts: list[str], items: Iterable[str]) -> None:
    """Append a top-level report member's list value to parts, from its items' text.

    The separators go in as parts of their own, so no item string is copied
    before the one join of the whole report.
    """
    items = iter(items)
    first = next(items, None)
    if first is None:
        parts.append("[]")
        return
    parts += ("[\n", first)
    parts += chain.from_iterable(zip(repeat(",\n"), items))
    parts.append("\n  ]")


def _reduced(keys: list[int], scale: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of the wall alphas key/scale in lowest terms."""
    gcds = list(map(math.gcd, keys, repeat(scale)))
    return list(map(operator.floordiv, keys, gcds)), list(map(operator.floordiv, repeat(scale), gcds))


def _d_steps(table, witnesses: list[tuple[int, int, int]]) -> Iterator[int]:
    """How far each witness's d' moves per period: p0 q' - q0 p'."""
    p_moves = map(operator.mul, repeat(table.q0), map(operator.itemgetter(0), witnesses))
    q_moves = map(operator.mul, repeat(table.p0), map(operator.itemgetter(1), witnesses))
    return map(operator.sub, q_moves, p_moves)


def _walls_json(parts: list[str], table, nums: list[int], dens: list[int], counted: bool) -> None:
    """Append the walls member's text to parts."""
    groups = table.groups
    counts = list(map(len, groups))
    head = _COUNTED_WALL_HEAD if counted else _WALL_HEAD
    templates = {n: head + _WITNESS_SEP * (n - 1) + _WALL_TAIL for n in set(counts)}
    # each wall's arguments: its head tuple (num, den[, count]) then its witness triples
    heads = zip(nums, dens, counts) if counted else zip(nums, dens)
    args = list(chain.from_iterable(chain.from_iterable(map(operator.add, zip(heads), groups))))
    steps = []
    if table.copies:
        # the same layout: (P den, 0[, 0]) then (0, 0, d' step) per witness
        num_steps = map(operator.mul, dens, repeat(table.p0 + table.q0))
        step_heads = zip(num_steps, repeat(0), repeat(0)) if counted else zip(num_steps, repeat(0))
        witness_steps = zip(repeat(0), repeat(0), _d_steps(table, list(chain.from_iterable(groups))))
        # islice takes each wall's witnesses in turn from the one shared iterator
        step_groups = map(tuple, map(islice, repeat(witness_steps), counts))
        steps = list(chain.from_iterable(chain.from_iterable(map(operator.add, zip(step_heads), step_groups))))
    total = table.copies * len(groups) + table.prefix
    _json_list(parts, _periodic_text(list(map(templates.__getitem__, counts)), args, steps, total, ",\n"))


def _chambers_json(parts: list[str], table, nums: list[int], dens: list[int]) -> None:
    """Append the chambers member's text to parts."""
    n = len(table.keys)
    walls = table.copies * n + table.prefix
    period = table.p0 + table.q0
    # the keys of the interval's first and last walls; the last is in copy (walls - 1) // n
    ends = [table.keys[0], table.keys[(walls - 1) % n] + (walls - 1) // n * period * table.scale] if walls else []
    tiling = _chamber_tiling(table.lo * table.scale, table.hi * table.scale, ends)
    if tiling is None:
        parts.append("[]")
        return
    _, lo_closed, hi_closed = tiling
    lo_text, hi_text = format_rational(table.lo), format_rational(table.hi)
    # the chambers' inner boundaries are the walls first, ..., last; only the ends of the interval can be closed
    first, last = int(not lo_closed), walls - 1 - (not hi_closed)
    if first > last:
        _json_list(parts, [_CHAMBER_JSON % (hi_text, _JSON_BOOL[hi_closed], lo_text, _JSON_BOOL[lo_closed])])
        return

    def wall(index: int) -> tuple[int, int]:
        copy, index = divmod(index, n)
        return nums[index] + copy * period * dens[index], dens[index]

    # walls first, ..., first + n, the last one or two from the next copy
    later = list(map(wall, range(n, first + n + 1)))
    bound_nums = nums[first:] + [num for num, _ in later]
    bound_dens = dens[first:] + [den for _, den in later]
    # chamber i lies between walls first + i and first + i + 1: (hi num, hi den, lo num, lo den)
    args = list(chain.from_iterable(zip(bound_nums[1:], bound_dens[1:], bound_nums, bound_dens)))
    steps = []
    if table.copies:
        bound_steps = list(map(operator.mul, bound_dens, repeat(period)))
        steps = list(chain.from_iterable(zip(bound_steps[1:], repeat(0), bound_steps, repeat(0))))
    inner = _periodic_text([_INNER_CHAMBER_JSON] * n, args, steps, last - first, ",\n")
    first_wall = "%d/%d" % (bound_nums[0], bound_dens[0])
    last_wall = "%d/%d" % wall(last)
    _json_list(parts, chain(
        [_CHAMBER_JSON % (first_wall, "false", lo_text, _JSON_BOOL[lo_closed])],
        inner,
        [_CHAMBER_JSON % (hi_text, _JSON_BOOL[hi_closed], last_wall, "false")],
    ))


def _render_json(report: dict) -> str:
    """The report's text, each member at its place in sorted-key order.

    Every member but walls and chambers is its json.dumps text.  Only walls
    and chambers reports have those two members, and both hold the same
    periodic wall table.
    """
    table = report.get("walls")
    if table is not None:
        nums, dens = _reduced(table.keys, table.scale)
    parts = ["{\n"]
    for key in sorted(report):
        parts += ("  ", json.dumps(key), ": ")
        if key == "walls":
            _walls_json(parts, table, nums, dens, report["command"] == "chambers")
        elif key == "chambers":
            _chambers_json(parts, table, nums, dens)
        else:
            parts.append(json.dumps(report[key], indent=2, sort_keys=True).replace("\n", "\n  "))
        parts.append(",\n")
    parts[-1] = "\n}\n"
    return "".join(parts)


def _render_csv(report: dict) -> str:
    table = report["walls"]
    nums, dens = _reduced(table.keys, table.scale)
    counts = list(map(len, table.groups))
    witnesses = list(chain.from_iterable(table.groups))
    # each witness's row arguments: its wall's (num, den), then its (p', q', d')
    heads = zip(chain.from_iterable(map(repeat, nums, counts)), chain.from_iterable(map(repeat, dens, counts)))
    args = list(chain.from_iterable(map(operator.add, heads, witnesses)))
    steps = []
    if table.copies:
        num_steps = chain.from_iterable(map(repeat, map(operator.mul, dens, repeat(table.p0 + table.q0)), counts))
        steps = list(chain.from_iterable(zip(num_steps, repeat(0), repeat(0), repeat(0), _d_steps(table, witnesses))))
    rows = table.copies * len(witnesses) + sum(counts[: table.prefix])
    pieces = _periodic_text([_CSV_ROW] * len(witnesses), args, steps, rows, "")
    return "".join(["alpha_num,alpha_den,p_sub,q_sub,d_sub\n", *pieces])


def render(config: RunConfig, report: dict) -> str:
    if config.output_format == "csv":
        return _render_csv(report)
    return _render_json(report)


def run(config: RunConfig) -> int:
    """Execute the configured command; engine failures and failed selftest suites exit 1."""
    try:
        report = _execute(config)
        text = render(config, report)
    except (ValueError, TypeError) as exc:
        reason = str(exc)
        # results are unbounded integers, and str() refuses one past the interpreter's digit limit
        if isinstance(exc, ValueError) and "integer string conversion" in reason:
            reason = f"a result is too long to print: it has an integer of more than {sys.get_int_max_str_digits()} digits"
        print(f"upqstab: error: {reason}", file=sys.stderr)
        return 1
    if config.output_path is not None:
        try:
            _write_report(config.output_path, text)
        except OSError as exc:
            print(f"upqstab: error: cannot write {config.output_path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if config.command == "selftest" and not report["all_passed"]:
        failed = ", ".join(suite["name"] for suite in report["suites"] if not suite["passed"])
        print(f"upqstab: error: selftest suites failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _write_report(target: str, text: str) -> None:
    """Write the report to target.

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
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
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
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(text)
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
