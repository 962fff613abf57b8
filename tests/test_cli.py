"""CLI parsing, report content, exit codes, and agreement with the engine."""

from __future__ import annotations

import json
import os
import stat
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from upqstab import (
    HiggsRankPair,
    HitchinPairType,
    chamber_report,
    enumerate_walls,
    irreducibility_certificate,
    parse_rational,
)
from upqstab import cli
from upqstab import walls as walls_module
from upqstab.cli import main, parse_args


def test_parse_args_walls_example():
    config = parse_args(["walls", "--type", "1,1,1,0", "--interval", "-2,2"])
    assert config.command == "walls"
    assert config.type_spec == HitchinPairType(1, 1, 1, 0)
    assert config.interval == (Fraction(-2), Fraction(2))
    assert config.mw_filter is False
    assert config.output_format == "json"


def test_parse_args_certify_example():
    config = parse_args(["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "0"])
    assert config.command == "certify"
    assert config.type_spec == HitchinPairType(1, 1, -1, 0)
    assert config.genus == 2
    assert config.alpha == 0


def test_parse_args_mw_with_ranks_and_rational_alpha():
    config = parse_args(
        ["mw", "--type", "2,1,1,0", "--degL", "-1", "--alpha", "-1/2", "--ranks", "1,1"]
    )
    assert config.ctx.twist_degree == -1
    assert config.alpha == Fraction(-1, 2)
    assert config.ranks == HiggsRankPair(1, 1)


def test_parse_args_canonical_sets_twist_degree():
    config = parse_args(["mw", "--type", "1,1,1,0", "--canonical", "--genus", "3", "--alpha", "0"])
    assert config.ctx.twist_degree == 4 and config.ctx.canonical and config.ctx.genus == 3


# each argv with the reason its usage error must give
_USAGE_ERRORS = [
    (["mw", "--type", "1,1,1,0", "--alpha", "0"], "pass --degL or --canonical"),
    (["mw", "--type", "1,1,1,0", "--canonical", "--alpha", "0"], "--canonical requires --genus"),
    (["mw", "--type", "1,1,1,0", "--canonical", "--genus", "2", "--degL", "3", "--alpha", "0"], "fixes degL"),
    (["walls", "--type", "1,1,1,0"], "required: --interval"),
    (["walls", "--type", "1,1", "--interval", "-2,2"], "--type: expected 'p,q,a,b' with four integers"),
    (["walls", "--type", "1,1,1,0", "--interval", "-2"], "--interval: expected 'lo,hi'"),
    (["toledo", "--type", "1,1,1,0", "--format", "csv"], "unrecognized arguments"),
    (["toledo"], "required: --type"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["walls", "--type", "1,1,1,0", "--interval", "0,1", "--alpha", "1"], "unrecognized arguments"),
    (["walls", "--type", "1,1,1,0", "--interval", "0,1", "--jobs", "0"], "unrecognized arguments: --jobs 0"),
    (["selftest", "--jobs", "0"], "unrecognized arguments: --jobs 0"),
    (["selftest", "--trials", "0"], "--trials: must be at least 1"),
    (["walls", "--type", "1,1,1,0", "--interval", "1/0,1"], "--interval: zero denominator"),
    (["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "1/0"], "--alpha: zero denominator"),
    (["mw", "--type", "1,1,0,0", "--canonical", "--genus", "-1", "--alpha", "0"], "--genus: must be at least 0"),
    (["walls", "--type", "1,1,0,0", "--interval", "-1,1", "--degL", "2", "--genus", "-1"], "--genus: must be at least 0"),
    (["mw", "--type", "1,1,0,0", "--degL", "2", "--genus", "-3", "--alpha", "0"], "--genus: must be at least 0"),
    (["walls", "--type", "1,1,0,0", "--interval", "-1,1", "--genus", "-1"], "--genus: must be at least 0"),
    (["chambers", "--type", "1,1,0,0", "--interval", "-1,1", "--genus", "-1"], "--genus: must be at least 0"),
    (["walls", "--type", "1,1,1,0", "--interval", "-1,1.5"], "--interval: expected an integer or 'num/den'"),
    (["toledo", "--type", "0,0,0,0"], "--type: ranks must satisfy p >= 1 and q >= 1"),
    (["toledo", "--type", "1,1,x,0"], "--type: expected 'p,q,a,b' with four integers"),
    (["mw", "--type", "2,1,1,0", "--degL", "1", "--alpha", "0", "--ranks", "1"], "--ranks: expected 'rk_beta,rk_gamma'"),
    (["mw", "--type", "2,1,1,0", "--degL", "1", "--alpha", "0", "--ranks", "-1,0"], "--ranks: Higgs field ranks must be non-negative"),
    (["mw", "--type", "2,1,1,0", "--degL", "1", "--alpha", "1.5"], "--alpha: expected an integer or 'num/den'"),
    (["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--mw-filter", "--degL", "-1"], "--degL gives deg(L) = -1"),
    (["chambers", "--type", "1,1,1,0", "--interval", "-2,2", "--mw-filter", "--degL", "-1"], "--degL gives deg(L) = -1"),
    (["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--mw-filter", "--canonical", "--genus", "0"],
     "--canonical --genus 0 gives deg(L) = -2"),
    (["chambers", "--type", "1,1,1,0", "--interval", "-2,2", "--mw-filter", "--canonical", "--genus", "0"],
     "--canonical --genus 0 gives deg(L) = -2"),
    (["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--degL", "-1"], "only act with --mw-filter"),
    (["chambers", "--type", "1,1,1,0", "--interval", "-2,2", "--canonical", "--genus", "3"],
     "only act with --mw-filter"),
    (["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--genus", "4"], "only act with --mw-filter"),
    (["toledo", "--type", "1,1,0,0", "--output", ""], "--output: expected a file path, got ''"),
    # --format is an option of walls alone; every other command writes JSON
    (["mw", "--type", "1,1,1,0", "--degL", "2", "--alpha", "0", "--format", "json"], "unrecognized arguments"),
    (["chambers", "--type", "1,1,1,0", "--interval", "-2,2", "--format", "json"], "unrecognized arguments"),
    (["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "0", "--format", "json"], "unrecognized arguments"),
    (["selftest", "--format", "json"], "unrecognized arguments"),
    # a value that does not start with "-" reaches argparse as typed
    (["toledo", "--type", "1,1,1,0", "--format", "json"], "unrecognized arguments: --format json"),
    (["selftest", "--trials", "x"], "--trials: expected an integer, got 'x'"),
    (["mw", "--type", "1,1,0,0", "--degL", "2", "--genus", "x", "--alpha", "0"], "--genus: expected an integer, got 'x'"),
]


@pytest.mark.parametrize("argv", [argv for argv, _ in _USAGE_ERRORS])
def test_usage_errors_exit_two(argv, capsys):
    reason = next(reason for known, reason in _USAGE_ERRORS if known == argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("upqstab") and "error: " in last and reason in last, last


@pytest.mark.parametrize("command", ["toledo", "mw", "walls", "chambers", "certify", "selftest"])
def test_help_lists_format_on_walls_only(command, capsys):
    # argparse expands help strings with %, so a stray % fails only when --help is asked for
    assert main([command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: upqstab {command} ") and captured.err == ""
    assert ("--format" in captured.out) == (command == "walls")


def test_jobs_is_no_option(capsys):
    # the engine is exact Fraction arithmetic, which a thread pool only slowed down
    for argv in (
        ["walls", "--type", "1,1,1,0", "--interval", "-2,2"],
        ["chambers", "--type", "1,1,1,0", "--interval", "-2,2"],
        ["selftest", "--trials", "1"],
    ):
        assert main([*argv, "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --jobs 2" in captured.err
    for command in ("toledo", "mw", "walls", "chambers", "certify", "selftest"):
        assert main([command, "--help"]) == 0
        assert "--jobs" not in capsys.readouterr().out


def test_parse_args_calls_are_independent():
    filtered = parse_args(["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--mw-filter", "--degL", "0"])
    plain = parse_args(["walls", "--type", "2,1,0,0", "--interval", "-1,1"])
    assert filtered.mw_filter is True and filtered.ctx.twist_degree == 0
    assert filtered.type_spec == HitchinPairType(1, 1, 1, 0)
    assert plain.mw_filter is False and plain.ctx is None
    assert plain.type_spec == HitchinPairType(2, 1, 0, 0)
    assert plain.interval == (Fraction(-1), Fraction(1))


def test_toledo_report(capsys):
    assert main(["toledo", "--type", "2,1,1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"command": "toledo", "type": {"p": 2, "q": 1, "a": 1, "b": 0}, "tau": "2/3"}


def test_walls_report_matches_engine(capsys):
    assert main(["walls", "--type", "1,1,1,0", "--interval", "-2,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [w["alpha"] for w in report["walls"]] == ["-1/1", "1/1"]
    walls = enumerate_walls(HitchinPairType(1, 1, 1, 0), (-2, 2))
    assert report["walls"] == [w.to_json() for w in walls]
    assert report["interval"] == ["-2/1", "2/1"]
    assert [parse_rational(x) for x in report["interval"]] == [Fraction(-2), Fraction(2)]


def test_readme_walls_sample_is_real_stdout(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sample = readme.split("--interval -2,2` prints exactly\n\n```json\n", 1)[1].split("```", 1)[0]
    assert main(["walls", "--type", "1,1,1,0", "--interval", "-2,2"]) == 0
    assert capsys.readouterr().out == sample


def test_walls_csv_golden(capsys):
    assert main(["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "alpha_num,alpha_den,p_sub,q_sub,d_sub\n"
        "-1,1,0,1,0\n"
        "-1,1,1,0,1\n"
        "1,1,0,1,1\n"
        "1,1,1,0,0\n"
    )


def test_chambers_report_round_trips(capsys):
    assert main(["chambers", "--type", "1,1,1,0", "--interval", "-2,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    engine = chamber_report(HitchinPairType(1, 1, 1, 0), (-2, 2)).to_json()
    assert {key: report[key] for key in engine} == engine
    assert [w["witness_count"] for w in report["walls"]] == [2, 2]


def test_integer_alpha_path_matches_the_library_fractions(capsys):
    # (2,3,1,-1) has total degree 0, so every d' = 0 witness sits on alpha = 0; its
    # walls are keyed by alpha * 12, and both interval ends are walls of smaller
    # denominator: -5/3 (witness (1,0,1)) and 5/2 (witness (0,1,1))
    t = HitchinPairType(2, 3, 1, -1)
    lo, hi = Fraction(-5, 3), Fraction(5, 2)
    base = ["--type", "2,3,1,-1", "--interval", "-5/3,5/2"]
    walls = enumerate_walls(t, (lo, hi))
    alphas = [w.alpha for w in walls]
    assert alphas[0] == lo and alphas[-1] == hi and Fraction(0) in alphas
    assert sum(alpha < 0 for alpha in alphas) >= 3
    assert {alpha.denominator for alpha in alphas} >= {1, 2, 3, 4}
    texts = [f"{alpha.numerator}/{alpha.denominator}" for alpha in alphas]
    witnesses = [[list(w) for w in wall.witnesses] for wall in walls]

    assert main(["walls", *base]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [w["alpha"] for w in report["walls"]] == texts and "0/1" in texts
    assert [w["witnesses"] for w in report["walls"]] == witnesses

    assert main(["walls", *base, "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [
        f"{alpha.numerator},{alpha.denominator},{p_sub},{q_sub},{d_sub}"
        for alpha, wall in zip(alphas, walls)
        for p_sub, q_sub, d_sub in wall.witnesses
    ]
    assert any(row.startswith("0,1,") for row in rows)

    assert main(["chambers", *base]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [w["alpha"] for w in report["walls"]] == texts
    assert [w["witness_count"] for w in report["walls"]] == list(map(len, witnesses))
    # both ends are walls, so the chambers are the open gaps between consecutive walls
    assert report["chambers"] == [
        {"lo": x, "hi": y, "lo_closed": False, "hi_closed": False} for x, y in zip(texts, texts[1:])
    ]
    assert report["chambers"] == [c.to_json() for c in chamber_report(t, (lo, hi)).chambers]


def test_csv_rows_past_the_renderers_chunk_of_walls(capsys):
    # the CSV renderer formats one period of walls per `%`; this query spans 45 periods
    t = HitchinPairType(7, 5, 3, -2)
    walls = enumerate_walls(t, (-270, 270))
    assert walls_module._periodic_wall_table(t, (-270, 270), None).copies == 45
    assert main(["walls", "--type", "7,5,3,-2", "--interval", "-270,270", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{wall.alpha.numerator},{wall.alpha.denominator},{p_sub},{q_sub},{d_sub}"
        for wall in walls
        for p_sub, q_sub, d_sub in wall.witnesses
    ]


def test_walls_with_filter_flag(capsys):
    argv = ["walls", "--type", "1,3,-2,0", "--interval", "-3,3", "--mw-filter", "--degL", "0"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    at_zero = next(w for w in report["walls"] if w["alpha"] == "0/1")
    assert at_zero["witnesses"] == [[0, 2, -1]]


def test_certify_report_and_round_trip(capsys):
    assert main(["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["fully_irreducible"] is True
    engine = irreducibility_certificate(HitchinPairType(1, 1, -1, 0), 2, 0)
    assert report["certificate"] == engine.to_json()


def test_certify_exits_zero_on_negative_verdict(capsys):
    assert main(["certify", "--type", "1,1,3,0", "--genus", "2", "--alpha", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["closure_irreducible"] is False


def test_engine_errors_exit_one(capsys):
    # value-level failures are engine errors, not usage errors
    assert main(["certify", "--type", "1,1,1,0", "--genus", "1", "--alpha", "0"]) == 1
    assert "genus" in capsys.readouterr().err
    assert main(["walls", "--type", "1,1,1,0", "--interval", "2,-2"]) == 1
    assert "empty interval" in capsys.readouterr().err
    assert main(["mw", "--type", "1,1,1,0", "--degL", "-1", "--alpha", "0"]) == 1


@pytest.mark.parametrize("command", ["walls", "chambers"])
@pytest.mark.parametrize("twist", [[], ["--mw-filter", "--degL", "0"]], ids=["plain", "mw_filter"])
@pytest.mark.parametrize(
    "interval, count",
    [("-1000000000,1000000000", 2000000002),
     # wider than sys.maxsize, where len() of a range overflows
     ("-10000000000000000000000,10000000000000000000000", 20000000000000000000002)],
    ids=["1e9", "1e22"],
)
def test_wide_query_is_refused_with_its_witness_count(command, twist, interval, count, capsys):
    # one witness per integer d' in each of the two rank families of (1,1,0,0)
    assert main([command, "--type", "1,1,0,0", "--interval", interval, *twist]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("upqstab: error: ") and f" {count} candidate witnesses" in line


@pytest.mark.parametrize(
    "type_spec, count",
    [("1000,1000,0,1", 1001000), ("1000000000,1,0,0", 2000000000)],
    ids=["1000x1000", "1e9x1"],
)
def test_high_rank_type_is_refused_with_its_family_count(type_spec, count, capsys, monkeypatch):
    # refused before the families are listed, even where the interval holds no wall;
    # listing them would take seconds and a gigabyte at (1000, 1000), unbounded memory at (1e9, 1)
    def no_listing(t):
        raise AssertionError("the rank families were listed")

    monkeypatch.setattr(walls_module, "_wall_families", no_listing)
    assert main(["walls", "--type", type_spec, "--interval", "0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("upqstab: error: ") and f" {count} rank families" in line


# the longest integer parse_rational accepts; walls there have witness degrees
# longer than the interpreter's int-to-str digit limit
_LONG = "9" * 4300


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["walls", "--type", "7,5,3,-2", "--interval", f"{_LONG},{_LONG}"],
        ["walls", "--type", "7,5,3,-2", "--interval", f"{_LONG},{_LONG}", "--format", "csv"],
        ["chambers", "--type", "7,5,3,-2", "--interval", f"{_LONG},{_LONG}"],
        ["mw", "--type", "7,5,3,-2", "--degL", "1", "--alpha", _LONG],
    ],
    ids=["walls_json", "walls_csv", "chambers", "mw"],
)
def test_too_long_result_is_an_engine_error(argv, tmp_path, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("upqstab: error: a result is too long to print"), line
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    assert main([*argv, "--output", str(target)]) == 1
    assert capsys.readouterr().out == ""
    assert target.read_text() == "old report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_a_fault_in_a_template_is_not_an_engine_error(monkeypatch, capsys):
    # a CSV row whose d' slot takes a constant leaves the row's % one argument short
    monkeypatch.setattr(cli, "_CSV_ROW", b"%%d,%d,%d,%d,%d\n")
    with pytest.raises(TypeError, match="not enough arguments"):
        main(["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--format", "csv"])
    assert capsys.readouterr().err == ""


def test_a_value_error_from_a_template_is_not_an_engine_error(monkeypatch, capsys):
    # a ValueError that is not the int-to-str digit limit is a fault in render, not bad input
    monkeypatch.setattr(cli, "_CSV_ROW", b"%%d,%d,%d,%d,%%q\n")
    with pytest.raises(ValueError, match="unsupported format character"):
        main(["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--format", "csv"])
    assert capsys.readouterr().err == ""


def test_mw_report_fields(capsys):
    assert main(["mw", "--type", "1,1,3,0", "--degL", "2", "--alpha", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["side"] == "upper"
    assert report["margin"] == "1/1"
    assert report["tau"] == "3/1"
    assert report["interval"] == {"lower": "-2/1", "upper": "2/1", "regime_label": "ii"}


def test_mw_pass_report(capsys):
    assert main(["mw", "--type", "1,1,1,0", "--degL", "2", "--alpha", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass" and report["side"] is None and report["margin"] is None


def test_output_path_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["toledo", "--type", "1,1,1,0", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["tau"] == "1/1"


def test_output_path_replaces_an_existing_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["tau"] == "2/3"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_failed_rename_keeps_the_old_file_and_removes_the_temp(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old report\n")

    def refuse(src, dst):
        assert Path(src).read_text().startswith("{")  # the whole report reached the temp file
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"upqstab: error: cannot write {target}: Permission denied\n"
    assert target.read_text() == "old report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_output_path_keeps_the_mode_and_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    target.chmod(0o600)
    link = tmp_path / "latest.json"
    link.symlink_to(target.name)
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(link)]) == 0
    assert capsys.readouterr().out == ""
    assert link.is_symlink()
    assert json.loads(target.read_text())["tau"] == "2/3"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(path.name for path in tmp_path.iterdir()) == ["latest.json", "report.json"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_output_file_is_an_engine_error(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    target.chmod(0o444)
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 1
    assert capsys.readouterr().err == f"upqstab: error: cannot write {target}: Permission denied\n"
    assert target.read_text() == "old report\n"


def test_output_file_refused_by_access_is_an_engine_error(tmp_path, capsys, monkeypatch):
    # the read-only test above is skipped as root, who may write any file
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: False if str(path) == str(target) else access(path, mode))
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"upqstab: error: cannot write {target}: Permission denied\n"
    assert target.read_text() == "old report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_output_to_a_fifo_writes_into_it(tmp_path, capsys):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    # a daemon, so a reader left blocked by a failed write cannot hang the run
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert capsys.readouterr().out == ""
    assert json.loads(received[0])["tau"] == "2/3"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [path.name for path in tmp_path.iterdir()] == ["report.fifo"]


def test_output_path_that_is_a_directory_is_an_engine_error(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    (target / "keep.txt").write_text("kept\n")
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"upqstab: error: cannot write {target}")
    assert captured.err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["reports"]
    assert (target / "keep.txt").read_text() == "kept\n"


def test_unwritable_output_path_is_an_engine_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"upqstab: error: cannot write {target}")
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_output_path_with_a_trailing_slash_is_an_engine_error(tmp_path, capsys):
    # a trailing slash names a directory, as for open(); neither file is written
    (tmp_path / "old.json").write_text("old report\n")
    for name in ("new.json", "old.json"):
        assert main(["toledo", "--type", "2,1,1,0", "--output", f"{tmp_path / name}/"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"upqstab: error: cannot write {tmp_path / name}/")
    assert [path.name for path in tmp_path.iterdir()] == ["old.json"]
    assert (tmp_path / "old.json").read_text() == "old report\n"


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["chambers", "--type", "2,3,1,-1", "--interval", "-3,3"]
    outputs = []
    for _ in range(3):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_selftest_small_run(capsys):
    assert main(["selftest", "--seed", "1", "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "selftest"
    assert report["all_passed"] is True
    assert report["trials"] == 5
