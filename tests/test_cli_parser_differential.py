"""The flag-table argv parser against the argparse tree it replaced.

The reference below is the argparse parser as it stood before the flag table
(`build_parser`, its helpers, `_merge_value_flags`, `_resolve_ctx` and
`parse_args`), copied unchanged but for the name of `parse_args`.  Both
parsers run on a seeded argv fuzz and on the usage-error corpus of
`test_cli.py`; they must agree on the exit code, and on success on an equal
`RunConfig`.  Error wording is checked only through that corpus.

The fuzz puts the command first and draws flags of the command in space and
`=` forms, repeated flags, values that start with "-", empty values, a value
flag as the last token, unknown flags with and without values, flags of
other commands, "--", and -h/--help at any place.  It leaves out the places
where the flag table differs from argparse on purpose:
- abbreviations: argparse's subparsers accepted `--inter` for `--interval`
  and `--he` for `--help`, and read `-hh` as two -h; no fuzz flag is a prefix
  of another flag or starts with "-h";
- a flag of another command (say `toledo --interval -h`): the argparse tree
  merged any value flag with a following "-" token into one unknown token,
  so such a -h was no help request; the table takes -h as help there, so
  the fuzz gives flags of other commands no -h or --help value;
- the value "--": argparse before 3.13 drops it from `--output --` and sets
  output_path to [], so no fuzz value is "--" (`test_cli.py` checks the
  table reads it as a value);
- flags before the command, where argparse's root parser skipped unknown
  flags to find the command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import random

import pytest

from test_cli import USAGE_ERROR_ARGVS
from upqstab.cli import RunConfig, _parse_interval, _parse_ranks, parse_args
from upqstab.core import GeometryContext, HitchinPairType, parse_rational

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


def reference_parse_args(argv: list[str]) -> RunConfig:
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



_COMMANDS = ("toledo", "mw", "walls", "chambers", "certify", "selftest")
_TWIST = ["--degL", "--genus", "--canonical"]
_FLAGS = {
    "toledo": ["--type", "--output"],
    "mw": ["--type", "--output", *_TWIST, "--alpha", "--ranks"],
    "walls": ["--type", "--output", "--format", *_TWIST, "--interval", "--mw-filter"],
    "chambers": ["--type", "--output", *_TWIST, "--interval", "--mw-filter"],
    "certify": ["--type", "--output", "--genus", "--alpha"],
    "selftest": ["--output", "--seed", "--trials"],
}
_PRESENCE = ("--canonical", "--mw-filter")
# per value flag: values that parse, then values either parser refuses
_VALUES = {
    "--type": (["1,1,1,0", "2,1,1,0", "1,1,-1,0", "1,3,-2,0"], ["1,1", "0,0,0,0", "1,1,x,0", ""]),
    "--interval": (["-2,2", "0,1", "-5/3,5/2", "2,-2"], ["1/0,1", "-2", "1.5,2", ""]),
    "--alpha": (["0", "-1/2", "3"], ["1/0", "1.5", ""]),
    "--degL": (["0", "2", "-1", " 3", "1_0"], ["x", "", "2.0"]),
    "--genus": (["0", "2", "3"], ["-1", "x", ""]),
    "--ranks": (["1,1", "0,0"], ["1", "-1,0", ""]),
    "--format": (["json", "csv"], ["xml", ""]),
    "--output": (["out.json", "-", "-x", "a=b"], [""]),
    "--seed": (["0", "7", "-3"], ["x", ""]),
    "--trials": (["1", "5"], ["0", "-1", "x"]),
}
# values that start with "-", some of them flags or help requests elsewhere
_DASHED = ["-h", "--help", "--type", "--mw-filter", "--foo", "-1", "-x", "-"]
_UNKNOWN = [["--foo"], ["--foo", "bar"], ["--foo=bar"], ["--jobs", "2"], ["--jobs=0"], ["-x"], ["-5"], ["extra"], [""]]


def _flag_item(rng: random.Random, flag: str, dashed: bool = True) -> list[str]:
    if flag in _PRESENCE:
        return [flag] if rng.random() < 0.9 else [f"{flag}={rng.choice(['', 'x'])}"]
    valid, refused = _VALUES[flag]
    roll = rng.random()
    value = rng.choice(valid if roll < 0.75 else refused if roll < 0.88 or not dashed else _DASHED)
    return [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]


def _draw(rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.02:
        return []
    if roll < 0.04:
        return [rng.choice(["-h", "--help"]), *rng.choice([[], ["walls"], ["frobnicate", "--type"]])]
    if roll < 0.06:
        return [rng.choice(["frobnicate", "", "TOLEDO", "wall"]), *rng.choice([[], ["--type", "1,1,1,0"], ["-h"]])]
    command = rng.choice(_COMMANDS)
    items = []
    for flag in _FLAGS[command]:
        required = flag in ("--type", "--interval", "--alpha") or command == "certify"
        if rng.random() < (0.95 if required else 0.4):
            items += [_flag_item(rng, flag) for _ in range(rng.choice([1, 1, 1, 2, 3]))]
    if rng.random() < 0.15:
        items.append(rng.choice(_UNKNOWN))
    if rng.random() < 0.1:
        others = sorted({flag for flags in _FLAGS.values() for flag in flags} - set(_FLAGS[command]))
        items.append(_flag_item(rng, rng.choice(others), dashed=False))
    if rng.random() < 0.08:
        items.append([rng.choice(["-h", "--help"])])
    rng.shuffle(items)
    if rng.random() < 0.06:
        items.insert(rng.randrange(len(items) + 1), ["--"])
    argv = [command, *(token for item in items for token in item)]
    if rng.random() < 0.05:
        # a value flag as the last token
        argv.append(rng.choice([flag for flag in _FLAGS[command] if flag not in _PRESENCE]))
    return argv


def _outcome(parse, argv: list[str]) -> tuple[int, RunConfig | None]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, parse(list(argv))
        except SystemExit as exc:
            return exc.code, None


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_argv_parses_as_argparse_did(seed):
    rng = random.Random(f"cli-parser:{seed}")
    outcomes = {0: 0, "help": 0, 2: 0}
    for _ in range(1500):
        argv = _draw(rng)
        expected = _outcome(reference_parse_args, argv)
        assert _outcome(parse_args, argv) == expected, argv
        code, config = expected
        outcomes["help" if code == 0 and config is None else code] += 1
    # each outcome is drawn often enough to be compared
    assert min(outcomes.values()) >= 75, outcomes


@pytest.mark.parametrize("argv", USAGE_ERROR_ARGVS)
def test_usage_error_corpus_exits_two_in_both(argv):
    assert _outcome(reference_parse_args, argv) == _outcome(parse_args, argv) == (2, None)
