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
1 engine error, 2 usage error.  The UPQSTAB_FORMAT environment variable
sets the default output format (json or csv).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

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
from .walls import Chamber, Wall, chamber_report, enumerate_walls, irreducibility_certificate

FORMAT_ENV_VAR = "UPQSTAB_FORMAT"


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
    jobs: int | None = None
    seed: int = 0
    trials: int = 1000


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _parse_ranks(text: str) -> HiggsRankPair:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'rk_beta,rk_gamma', got {text!r}")
    return HiggsRankPair(int(parts[0]), int(parts[1]))


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


_positive_int = _int_at_least(1)


_JOBS_HELP = "worker threads (default: 1, inline; a thread pool runs only for N > 1)"


def _add_common(sub: argparse.ArgumentParser, *, with_type: bool = True) -> None:
    if with_type:
        sub.add_argument(
            "--type",
            dest="type_spec",
            type=HitchinPairType.parse,
            required=True,
            metavar="p,q,a,b",
            help="numerical type of the pair",
        )
    sub.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help=f"output format (default: ${FORMAT_ENV_VAR} or json)",
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


# flags that take one value; their argument may itself start with "-"
# (negative degrees, "-2,2" intervals), which bare argparse would read as an
# option string, so parse_args splices flag and value into --flag=value form.
_VALUE_FLAGS = frozenset(
    {"--type", "--interval", "--alpha", "--degL", "--genus", "--ranks",
     "--format", "--output", "--jobs", "--seed", "--trials"}
)


def _merge_value_flags(argv: list[str]) -> list[str]:
    merged = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if token in _VALUE_FLAGS and index + 1 < len(argv):
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
    sub.add_argument("--alpha", type=parse_rational, required=True, help="stability parameter")
    sub.add_argument(
        "--ranks",
        type=_parse_ranks,
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
        _add_twist(sub)
        sub.add_argument(
            "--interval", type=_parse_interval, required=True, metavar="lo,hi", help="closed parameter interval"
        )
        sub.add_argument(
            "--mw-filter",
            dest="mw_filter",
            action="store_true",
            help="drop witnesses with no Milnor-Wood-feasible degree split (needs --degL or --canonical)",
        )
        sub.add_argument("--jobs", type=_positive_int, default=None, help=_JOBS_HELP)

    sub = commands.add_parser("certify", help="irreducibility certificate (canonical twist)")
    _add_common(sub)
    sub.add_argument("--genus", type=int, required=True, help="genus of the base curve (>= 2)")
    sub.add_argument("--alpha", type=parse_rational, required=True, help="stability parameter")

    sub = commands.add_parser("selftest", help="randomized invariant suites")
    _add_common(sub, with_type=False)
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed")
    sub.add_argument("--trials", type=_positive_int, default=1000, help="cases per suite")
    sub.add_argument("--jobs", type=_positive_int, default=None, help=_JOBS_HELP)

    return parser


def _resolve_format(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> str:
    fmt = ns.format if ns.format is not None else os.environ.get(FORMAT_ENV_VAR, "json")
    if fmt not in ("json", "csv"):
        parser.error(f"unknown output format {fmt!r} (from ${FORMAT_ENV_VAR})")
    if fmt == "csv" and ns.command != "walls":
        parser.error("csv output is only defined for the walls command")
    return fmt


def _resolve_ctx(parser: argparse.ArgumentParser, ns: argparse.Namespace, *, required: bool) -> GeometryContext | None:
    deg_l = getattr(ns, "deg_l", None)
    genus = getattr(ns, "genus", None)
    canonical = getattr(ns, "canonical", False)
    if canonical:
        if genus is None:
            parser.error("--canonical requires --genus")
        if deg_l is not None and deg_l != 2 * genus - 2:
            parser.error(f"--canonical fixes degL = 2*genus - 2 = {2 * genus - 2}, but --degL {deg_l} was given")
    elif deg_l is None:
        if required:
            parser.error("this command needs a twisting degree: pass --degL or --canonical with --genus")
        return None
    if canonical:
        return GeometryContext.canonical_twist(genus)
    return GeometryContext(genus=genus if genus is not None else 0, twist_degree=deg_l)


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and cross-validate argv into a RunConfig; usage errors exit 2."""
    parser = build_parser()
    ns = parser.parse_args(_merge_value_flags(argv))
    fmt = _resolve_format(parser, ns)
    common = {
        "command": ns.command,
        "output_format": fmt,
        "output_path": ns.output_path,
    }
    if ns.command == "toledo":
        return RunConfig(type_spec=ns.type_spec, **common)
    if ns.command == "mw":
        ctx = _resolve_ctx(parser, ns, required=True)
        return RunConfig(type_spec=ns.type_spec, ctx=ctx, alpha=ns.alpha, ranks=ns.ranks, **common)
    if ns.command in ("walls", "chambers"):
        ctx = _resolve_ctx(parser, ns, required=ns.mw_filter)
        return RunConfig(
            type_spec=ns.type_spec,
            ctx=ctx,
            interval=ns.interval,
            mw_filter=ns.mw_filter,
            jobs=ns.jobs,
            **common,
        )
    if ns.command == "certify":
        return RunConfig(type_spec=ns.type_spec, genus=ns.genus, alpha=ns.alpha, **common)
    if ns.command == "selftest":
        return RunConfig(seed=ns.seed, trials=ns.trials, jobs=ns.jobs, **common)
    parser.error(f"unknown command {ns.command!r}")
    raise AssertionError("unreachable")


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
    if config.command == "walls":
        walls = enumerate_walls(
            config.type_spec,
            config.interval,
            mw_filter=config.mw_filter,
            ctx=config.ctx,
            jobs=config.jobs,
        )
        lo, hi = config.interval
        return {
            "command": "walls",
            "type": config.type_spec.to_json(),
            "interval": [format_rational(lo), format_rational(hi)],
            "mw_filter": config.mw_filter,
            "walls": walls,
        }
    if config.command == "chambers":
        report = chamber_report(
            config.type_spec,
            config.interval,
            mw_filter=config.mw_filter,
            ctx=config.ctx,
            jobs=config.jobs,
        )
        lo, hi = report.interval
        return {
            "command": "chambers",
            "type": config.type_spec.to_json(),
            "interval": [format_rational(lo), format_rational(hi)],
            "mw_filter": config.mw_filter,
            "walls": report.walls,
            "chambers": report.chambers,
        }
    if config.command == "certify":
        certificate = irreducibility_certificate(config.type_spec, config.genus, config.alpha)
        return {
            "command": "certify",
            "type": config.type_spec.to_json(),
            "genus": config.genus,
            "alpha": format_rational(config.alpha),
            "certificate": certificate.to_json(),
        }
    if config.command == "selftest":
        report = property_driver(config.seed, config.trials, config.jobs)
        return {"command": "selftest", **report}
    raise ValueError(f"unknown command {config.command!r}")


# walls and chambers reports are written straight from the engine's Wall and
# Chamber objects.  The templates reproduce, byte for byte, what
# json.dumps(..., indent=2, sort_keys=True) writes for Wall.to_json and
# ChamberReport.to_json at their depth in the report; the stdlib encoder's
# pure-Python indent path costs more than the wall enumeration itself.
_WITNESS_JSON = "        [\n          %d,\n          %d,\n          %d\n        ]"
_WALL_JSON = '    {\n      "alpha": "%s",\n      "witnesses": [\n%s\n      ]\n    }'
_COUNTED_WALL_JSON = (
    '    {\n      "alpha": "%s",\n      "witness_count": %d,\n      "witnesses": [\n%s\n      ]\n    }'
)
_CHAMBER_JSON = (
    '    {\n      "hi": "%s",\n      "hi_closed": %s,\n      "lo": "%s",\n      "lo_closed": %s\n    }'
)
_JSON_BOOL = {False: "false", True: "true"}


def _witnesses_json(wall: Wall) -> str:
    return ",\n".join([_WITNESS_JSON % w for w in wall.witnesses])


def _json_list(items: list[str]) -> str:
    """A top-level report member's list value, from its rendered items."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _walls_json(walls: Sequence[Wall], counted: bool) -> str:
    if counted:
        items = [
            _COUNTED_WALL_JSON % (format_rational(w.alpha), len(w.witnesses), _witnesses_json(w))
            for w in walls
        ]
    else:
        items = [_WALL_JSON % (format_rational(w.alpha), _witnesses_json(w)) for w in walls]
    return _json_list(items)


def _chambers_json(chambers: Sequence[Chamber]) -> str:
    return _json_list([
        _CHAMBER_JSON % (
            format_rational(c.hi), _JSON_BOOL[c.hi_closed], format_rational(c.lo), _JSON_BOOL[c.lo_closed]
        )
        for c in chambers
    ])


def _render_json(report: dict) -> str:
    # only walls and chambers reports have "walls" and "chambers" members
    counted = report["command"] == "chambers"
    members = []
    for key in sorted(report):
        value = report[key]
        if key == "walls":
            text = _walls_json(value, counted)
        elif key == "chambers":
            text = _chambers_json(value)
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        members.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}\n"


def _render_csv(report: dict) -> str:
    rows = ["alpha_num,alpha_den,p_sub,q_sub,d_sub\n"]
    for wall in report["walls"]:
        num, den = wall.alpha.numerator, wall.alpha.denominator
        rows += ["%d,%d,%d,%d,%d\n" % (num, den, *w) for w in wall.witnesses]
    return "".join(rows)


def render(config: RunConfig, report: dict) -> str:
    if config.output_format == "csv":
        return _render_csv(report)
    return _render_json(report)


def run(config: RunConfig) -> int:
    """Execute the configured command; engine failures exit 1."""
    try:
        report = _execute(config)
    except (ValueError, TypeError) as exc:
        print(f"upqstab: error: {exc}", file=sys.stderr)
        return 1
    text = render(config, report)
    if config.output_path is not None:
        try:
            Path(config.output_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"upqstab: error: cannot write {config.output_path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_args(args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    return run(config)
