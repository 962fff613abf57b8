"""The report as byte pieces: the periodic core, and how `run` writes the pieces.

`cli._periodic_pieces` is checked against a plain formatter that writes
every item of every copy on its own, over seeded random periods: 1 to 40
items with 0 to 4 constants and 1 to 3 moving numbers each, from copy 0, 1
and a later one, 0, 1 and many copies, every length of the last, partial
copy, and moving numbers that cross a sign or a digit count.  Then `main`
must write the same text to an `io.StringIO` as to pytest's captured stdout,
write nothing before the whole report is built, and turn a failed write to
stdout into one error line and exit 1.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from upqstab.cli import _periodic_pieces, main
from upqstab.oracle import SplitMix64

# the characters of the text around the slots: the report's own, and no "%"
_LITERAL = 'ab,/[]{}\n -"'
# moving numbers as (base, step) that cross a sign or a digit count within a few copies
_CROSSINGS = [(-1, 1), (9, 1), (99, 1), (100, -1), (10, -1), (0, -1), (-9, -1), (-99, -1), (-100, 1), (5, -7)]


def _random_item(rng: SplitMix64) -> tuple[list[str], list[str]]:
    """An item as its slot kinds ("c" constant, "m" moving) and the literal text around them."""
    kinds = ["c"] * rng.randint(0, 4) + ["m"] * rng.randint(1, 3)
    # a seeded shuffle, so constants and moving numbers interleave
    for i in range(len(kinds) - 1, 0, -1):
        j = rng.randint(0, i)
        kinds[i], kinds[j] = kinds[j], kinds[i]
    texts = ["".join(_LITERAL[rng.randint(0, len(_LITERAL) - 1)] for _ in range(rng.randint(0, 3)))
             for _ in range(len(kinds) + 1)]
    return kinds, texts


def _period(rng: SplitMix64, length: int):
    """A random period: item templates, constants, bases and steps, and the items' slot lists."""
    items = [_random_item(rng) for _ in range(length)]
    templates, constants, bases, steps = [], [], [], []
    for kinds, texts in items:
        template = texts[0]
        for kind, text in zip(kinds, texts[1:]):
            template += ("%d" if kind == "c" else "%%d") + text
            if kind == "c":
                constants.append(rng.randint(-120, 120))
            else:
                base, step = _CROSSINGS[rng.randint(0, len(_CROSSINGS) - 1)]
                if rng.randint(0, 1):
                    base, step = rng.randint(-10**6, 10**6), rng.randint(-500, 500)
                bases.append(base)
                steps.append(step)
        templates.append(template.encode("ascii"))
    return templates, tuple(constants), bases, steps, items


def _plain(items, constants, bases, steps, total: int) -> list[str]:
    """Each item's text on its own: copy j, i-th moving number bases[i] + j steps[i]."""
    # the numbers of constants and of moving numbers before each item
    starts = [(0, 0)]
    for kinds, _ in items:
        starts.append((starts[-1][0] + kinds.count("c"), starts[-1][1] + kinds.count("m")))
    texts = []
    for index in range(total):
        copy, item = divmod(index, len(items))
        c, m = starts[item]
        kinds, literals = items[item]
        text = literals[0]
        for kind, literal in zip(kinds, literals[1:]):
            if kind == "c":
                text += str(constants[c])
                c += 1
            else:
                text += str(bases[m] + copy * steps[m])
                m += 1
            text += literal
        texts.append(text)
    return texts


def test_periodic_pieces_match_a_plain_per_item_formatter():
    rng = SplitMix64(1919)
    checked = 0
    for trial in range(60):
        length = [1, 2, 40][trial] if trial < 3 else rng.randint(1, 40)
        templates, constants, bases, steps, items = _period(rng, length)
        copy_counts = {0, 1, 2, rng.randint(3, 12)}
        firsts = (0, 1, rng.randint(2, 9))
        every = _plain(items, constants, bases, steps, (max(firsts) + max(copy_counts) + 1) * length)
        for first, copies in product(firsts, copy_counts):
            for rest in range(length):
                total = copies * length + rest
                pieces = _periodic_pieces(templates, constants, bases, steps, total, first)
                # the plain items from copy `first` on
                texts = every[first * length:first * length + total]
                # one piece per whole copy, then one for the partial copy
                expected = ["".join(texts[j * length:(j + 1) * length]) for j in range(copies)]
                if rest:
                    expected.append("".join(texts[copies * length:]))
                assert [piece.decode("ascii") for piece in pieces] == expected, (trial, first, copies, rest)
                if total <= length and not first:
                    # steps are not needed within the first copy
                    assert _periodic_pieces(templates, constants, bases, [], total) == pieces
                checked += 1
    assert checked > 3000, checked


_REPORTS = [
    ["walls", "--type", "7,5,3,-2", "--interval", "-50,50"],
    ["walls", "--type", "7,5,3,-2", "--interval", "-50,50", "--format", "csv"],
    ["chambers", "--type", "7,5,3,-2", "--interval", "-50,50"],
    ["chambers", "--type", "2,2,1,-3", "--interval", "-7/3,5", "--mw-filter", "--degL", "0"],
    ["walls", "--type", "1,1,0,0", "--interval", "1/3,1/2", "--format", "csv"],
    ["chambers", "--type", "1,1,0,0", "--interval", "0,0"],
    ["toledo", "--type", "2,1,1,0"],
]


@pytest.mark.parametrize("argv", _REPORTS, ids=[" ".join(argv) for argv in _REPORTS])
def test_stdout_replaced_by_a_string_buffer_gets_the_same_text(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr().out
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    assert buffer.getvalue() == captured
    assert captured.endswith("\n")


class _RecordingStdout(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def write(self, text: str) -> int:
        self.calls += 1
        return super().write(text)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]], ids=["json", "csv"])
def test_too_long_result_writes_nothing_to_stdout(fmt, capsys):
    # the report's first members render, then its witness degrees are too long to
    argv = ["walls", "--type", "7,5,3,-2", "--interval", f"{'9' * 4300},{'9' * 4300}", *fmt]
    recorder = _RecordingStdout()
    with contextlib.redirect_stdout(recorder):
        assert main(argv) == 1
    assert recorder.calls == 0
    assert capsys.readouterr().err.startswith("upqstab: error: a result is too long to print")


class _FullStdout(io.StringIO):
    def __init__(self, fail_on: str) -> None:
        super().__init__()
        self.fail_on = fail_on

    def write(self, text: str) -> int:
        if self.fail_on == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self) -> None:
        if self.fail_on == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [_REPORTS[0], _REPORTS[6]], ids=["walls", "toledo"])
def test_a_failed_stdout_write_is_one_error_line(fail_on, argv, capsys):
    with contextlib.redirect_stdout(_FullStdout(fail_on)):
        assert main(argv) == 1
    assert capsys.readouterr().err == f"upqstab: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_to_a_full_device_exits_one_with_one_line(unbuffered):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "upqstab", "toledo", "--type", "1,1,1,0"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert result.returncode == 1
    assert result.stderr == f"upqstab: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
