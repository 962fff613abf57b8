"""CLI parsing, report content, exit codes, and agreement with the engine."""

from __future__ import annotations

import json
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
from upqstab.cli import FORMAT_ENV_VAR, main, parse_args


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


@pytest.mark.parametrize(
    "argv",
    [
        ["mw", "--type", "1,1,1,0", "--alpha", "0"],  # missing degL/canonical
        ["mw", "--type", "1,1,1,0", "--canonical", "--alpha", "0"],  # canonical without genus
        ["mw", "--type", "1,1,1,0", "--canonical", "--genus", "2", "--degL", "3", "--alpha", "0"],
        ["walls", "--type", "1,1,1,0"],  # missing interval
        ["walls", "--type", "1,1", "--interval", "-2,2"],  # malformed type
        ["walls", "--type", "1,1,1,0", "--interval", "-2"],  # malformed interval
        ["toledo", "--type", "1,1,1,0", "--format", "csv"],  # csv undefined here
        ["toledo"],  # missing type
        ["frobnicate"],  # unknown command
        ["walls", "--type", "1,1,1,0", "--interval", "0,1", "--alpha", "1"],  # stray flag
        ["walls", "--type", "1,1,1,0", "--interval", "0,1", "--jobs", "0"],  # no workers
        ["selftest", "--jobs", "0"],
        ["selftest", "--trials", "0"],  # no cases
        ["walls", "--type", "1,1,1,0", "--interval", "1/0,1"],  # zero denominator
        ["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "1/0"],
        ["mw", "--type", "1,1,0,0", "--canonical", "--genus", "-1", "--alpha", "0"],  # negative genus
        ["walls", "--type", "1,1,0,0", "--interval", "-1,1", "--degL", "2", "--genus", "-1"],
        ["mw", "--type", "1,1,0,0", "--degL", "2", "--genus", "-3", "--alpha", "0"],
        ["walls", "--type", "1,1,0,0", "--interval", "-1,1", "--genus", "-1"],  # genus with no twist
        ["chambers", "--type", "1,1,0,0", "--interval", "-1,1", "--genus", "-1"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


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


def test_format_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV_VAR, "csv")
    assert main(["walls", "--type", "1,1,1,0", "--interval", "-2,2"]) == 0
    assert capsys.readouterr().out.startswith("alpha_num,")
    # explicit flag still wins
    assert main(["walls", "--type", "1,1,1,0", "--interval", "-2,2", "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("{")
    # the env default applies to every command, so csv elsewhere is a usage error
    assert main(["toledo", "--type", "1,1,1,0"]) == 2


def test_output_path_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["toledo", "--type", "1,1,1,0", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["tau"] == "1/1"


def test_unwritable_output_path_is_an_engine_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["toledo", "--type", "2,1,1,0", "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"upqstab: error: cannot write {target}")
    assert captured.err.count("\n") == 1
    assert not target.exists()


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
