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
from itertools import chain, repeat

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
from .walls import _chamber_tiling, _wall_table, chamber_report, enumerate_walls, irreducibility_certificate


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
        # the renderers write both members from the integer wall table
        table = _wall_table(config.type_spec, config.interval, mw_twist_degree)
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


# walls and chambers reports are written straight from the engine's integer
# wall table (`walls._wall_table`): each wall alpha is "%d/%d" of its key and
# the scale, both divided by their gcd, so no Fraction, Wall or Chamber is
# built per wall.  The templates reproduce, byte for byte, what
# json.dumps(..., indent=2, sort_keys=True) writes for Wall.to_json and
# ChamberReport.to_json at their depth in the report; the stdlib encoder's
# pure-Python indent path costs more than the wall enumeration itself.  A JSON
# report is one template and one `%` over one flat argument list (per wall
# its alpha string, [its witness count,] then its witnesses' ints; per
# chamber its boundary strings and closed flags).  A wall's part of the
# template is its head, the witness template repeated once per further
# witness, and its tail, built once per witness count, so no string is built
# per witness or per wall.
_WITNESS_JSON = "        [\n          %d,\n          %d,\n          %d\n        ]"
_WITNESS_SEP = ",\n" + _WITNESS_JSON
_WALL_HEAD = '    {\n      "alpha": "%s",\n      "witnesses": [\n' + _WITNESS_JSON
_COUNTED_WALL_HEAD = (
    '    {\n      "alpha": "%s",\n      "witness_count": %d,\n      "witnesses": [\n' + _WITNESS_JSON
)
_WALL_TAIL = "\n      ]\n    }"
_CHAMBER_JSON = (
    '    {\n      "hi": "%s",\n      "hi_closed": %s,\n      "lo": "%s",\n      "lo_closed": %s\n    }'
)
_JSON_BOOL = {False: "false", True: "true"}


def _json_list(parts: list[str], items: Iterator[str]) -> None:
    """Append a top-level report member's list value to parts, from its item templates.

    The separators go in as parts of their own, so no item string is copied
    before the one join of the whole report.
    """
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


def _walls_json(parts: list[str], table: tuple, alphas: list[str], counted: bool) -> Iterable:
    """Append the walls member's template to parts; return its `%` arguments."""
    groups = table[4]
    counts = list(map(len, groups))
    head = _COUNTED_WALL_HEAD if counted else _WALL_HEAD
    templates = {count: head + _WITNESS_SEP * (count - 1) + _WALL_TAIL for count in set(counts)}
    _json_list(parts, map(templates.__getitem__, counts))
    # each wall's arguments: its head tuple (alpha[, count]) then its witness triples
    heads = zip(alphas, counts) if counted else zip(alphas)
    return chain.from_iterable(chain.from_iterable(map(operator.add, zip(heads), groups)))


def _chambers_json(parts: list[str], table: tuple, alphas: list[str]) -> list[str]:
    """Append the chambers member's template to parts; return its `%` arguments."""
    lo, hi, scale, keys, _ = table
    tiling = _chamber_tiling(lo * scale, hi * scale, keys)
    if tiling is None:
        parts.append("[]")
        return []
    inner, lo_closed, hi_closed = tiling
    # chambers tile the interval (each hi is the next lo), so each boundary is formatted once
    bounds = [format_rational(lo), *alphas[inner], format_rational(hi)]
    count = len(bounds) - 1
    _json_list(parts, repeat(_CHAMBER_JSON, count))
    # per chamber: hi, hi_closed, lo, lo_closed; only the ends of the interval can be closed
    args = [_JSON_BOOL[False]] * (4 * count)
    args[0::4] = bounds[1:]
    args[2::4] = bounds[:-1]
    args[3] = _JSON_BOOL[lo_closed]
    args[-3] = _JSON_BOOL[hi_closed]
    return args


def _render_json(report: dict) -> str:
    """The report as one template and one `%` over its arguments.

    Every member but walls and chambers goes in as a "%s" of its json.dumps
    text.  Only walls and chambers reports have those two members, and both
    hold the same wall table.
    """
    table = report.get("walls")
    alphas = None if table is None else list(map("%d/%d".__mod__, zip(*_reduced(table[3], table[2]))))
    parts = ["{\n"]
    args = []
    for key in sorted(report):
        value = report[key]
        parts += ("  ", json.dumps(key), ": ")
        if key == "walls":
            args.append(_walls_json(parts, table, alphas, report["command"] == "chambers"))
        elif key == "chambers":
            args.append(_chambers_json(parts, table, alphas))
        else:
            parts.append("%s")
            args.append((json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "),))
        parts.append(",\n")
    parts[-1] = "\n}\n"
    return "".join(parts) % tuple(chain.from_iterable(args))


# walls per `%` of the CSV renderer, so that its argument tuple stays small at the witness cap
_CSV_CHUNK = 4096


def _render_csv(report: dict) -> str:
    _, _, scale, keys, groups = report["walls"]
    nums, dens = _reduced(keys, scale)
    rows = ["alpha_num,alpha_den,p_sub,q_sub,d_sub\n"]
    for start in range(0, len(keys), _CSV_CHUNK):
        part = slice(start, start + _CSV_CHUNK)
        chunk = groups[part]
        # one row template per wall, "num,den,%d,%d,%d\n", repeated once per witness
        prefixes = map("%d,%d,%%d,%%d,%%d\n".__mod__, zip(nums[part], dens[part]))
        template = "".join(map(operator.mul, prefixes, map(len, chunk)))
        rows.append(template % tuple(chain.from_iterable(chain.from_iterable(chunk))))
    return "".join(rows)


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
