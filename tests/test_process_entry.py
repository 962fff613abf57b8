"""The process entry: `python -m upqstab` and the `upqstab` script run `cli.process_main`.

It runs `cli.main` on sys.argv, freezes the collector's objects once the
report is written, so that the collections at interpreter shutdown skip
them, and exits with main's code.  `cli.main` itself never touches the
collector, so in-process callers keep theirs.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from upqstab import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# one argv per command, a usage error and an engine error, with main's exit code
ARGVS = [
    (["toledo", "--type", "2,1,1,0"], 0),
    (["mw", "--type", "2,1,1,0", "--degL", "1", "--alpha", "3", "--ranks", "1,1"], 0),
    (["walls", "--type", "4,3,2,-1", "--interval", "-7/3,5/2", "--format", "csv"], 0),
    (["chambers", "--type", "3,5,-2,4", "--interval", "-5/2,7/3", "--mw-filter", "--degL", "0"], 0),
    (["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "0"], 0),
    (["selftest", "--trials", "5"], 0),
    (["walls", "--type", "1,1,1,0"], 2),
    (["walls", "--type", "1,1,0,0", "--interval", "1,0"], 1),
]


def _collector_state() -> tuple[int, bool]:
    return gc.get_freeze_count(), gc.isenabled()


@pytest.mark.parametrize("argv, code", ARGVS)
def test_main_leaves_the_collector_as_it_was(argv, code, capsys):
    before = _collector_state()
    assert cli.main(argv) == code
    assert _collector_state() == before
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", ARGVS)
def test_the_process_entry_freezes_once_after_the_report_and_exits_with_mains_code(argv, code, capsys, monkeypatch):
    assert cli.main(argv) == code
    expected = capsys.readouterr()
    seen = []  # what stdout and stderr held at each freeze
    monkeypatch.setattr(gc, "freeze", lambda: seen.append(capsys.readouterr()))
    monkeypatch.setattr(sys, "argv", ["upqstab", *argv])
    with pytest.raises(SystemExit) as info:
        cli.process_main()
    assert info.value.code == code
    assert seen == [expected]
    assert capsys.readouterr() == ("", "")


def test_the_process_entry_freezes_after_an_output_file_is_written(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.csv"
    argv = ["walls", "--type", "4,3,2,-1", "--interval", "-7/3,5/2", "--format", "csv"]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out.encode("ascii")
    seen = []
    monkeypatch.setattr(gc, "freeze", lambda: seen.append(target.read_bytes()))
    monkeypatch.setattr(sys, "argv", ["upqstab", *argv, "--output", str(target)])
    with pytest.raises(SystemExit) as info:
        cli.process_main()
    assert info.value.code == 0 and seen == [report]


def _process(argv: list[str]) -> tuple[int, bytes, str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "upqstab", *argv], env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8")


@pytest.mark.parametrize("argv, code", [
    (["toledo", "--type", "2,1,1,0"], 0),
    (["mw", "--type", "1,1,1,0", "--canonical", "--genus", "2", "--alpha", "0"], 0),
    (["certify", "--type", "1,1,-1,0", "--genus", "2", "--alpha", "0"], 0),
    (["walls", "--type", "4,3,2,-1", "--interval", "-7/3,5/2", "--format", "csv"], 0),
    (["chambers", "--type", "4,3,2,-1", "--interval", "-7/3,5/2"], 0),
    (["walls", "--type", "1,1,1,0"], 2),
    (["walls", "--type", "1,1,0,0", "--interval", "1,0"], 1),
    (["toledo", "--type", "1,1,1,0", "--output", "{missing}/report.json"], 1),
])
def test_a_process_writes_what_main_writes_in_process(argv, code, tmp_path, capsys):
    argv = [arg.replace("{missing}", str(tmp_path / "missing")) for arg in argv]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out == "") == (code != 0) and (captured.err == "") == (code == 0)
    assert _process(argv) == (code, captured.out.encode("ascii"), captured.err)
