"""What a fresh interpreter loads to import the package: no record or path machinery."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _all_loaded(statement: str) -> set[str]:
    """Every module a fresh `python -S` (no site module) has loaded after statement."""
    code = f"import sys; {statement}; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def _loaded(statement: str, names: tuple[str, ...]) -> set[str]:
    """Which of names a fresh `python -S` has loaded after statement."""
    return _all_loaded(statement) & set(names)


def test_engine_import_loads_no_dataclasses_typing_or_pathlib():
    assert _loaded("import upqstab", ("dataclasses", "typing", "inspect", "pathlib")) == set()


def test_engine_import_loads_only_what_its_standard_imports_load():
    # the package's modules import these at their top; struct, which SplitMix64's decoder
    # needs, is imported on the first refill, so neither the import nor a new generator loads it
    standard = _all_loaded("import __future__, collections, collections.abc, fractions, functools, itertools, math")
    package = _all_loaded("import upqstab")
    assert {name for name in package - standard if name.partition(".")[0] != "upqstab"} == set()
    assert "struct" not in _all_loaded("import upqstab; upqstab.SplitMix64(7)")


def test_cli_import_loads_no_typing_or_pathlib():
    # dataclasses stays in cli only for RunConfig, until ROADMAP item 1a; some
    # 3.13 releases load typing from inspect, which dataclasses imports, so
    # typing may appear only where `import dataclasses` alone loads it
    names = ("typing", "pathlib")
    assert _loaded("import upqstab.cli", names) <= _loaded("import dataclasses", names) - {"pathlib"}


def test_cli_selftest_loads_no_thread_machinery():
    run_selftest = (
        "import contextlib, io, upqstab.cli; quiet = contextlib.redirect_stdout(io.StringIO()); quiet.__enter__(); "
        "assert upqstab.cli.main(['selftest', '--trials', '5']) == 0; quiet.__exit__(None, None, None)"
    )
    assert _loaded(run_selftest, ("concurrent.futures", "threading")) == set()


def test_cli_loads_no_argparse_gettext_or_locale():
    # the flag table parses argv; argparse brought gettext, and gettext locale
    names = ("argparse", "gettext", "locale")
    assert _loaded("import upqstab.cli", names) == set()
    run_toledo = (
        "import contextlib, io, upqstab.cli; quiet = contextlib.redirect_stdout(io.StringIO()); quiet.__enter__(); "
        "assert upqstab.cli.main(['toledo', '--type', '1,1,1,0']) == 0; quiet.__exit__(None, None, None)"
    )
    assert _loaded(run_toledo, names) == set()
