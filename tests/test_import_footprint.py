"""What a fresh interpreter loads to import the package: no record or path machinery."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded(statement: str, names: tuple[str, ...]) -> set[str]:
    """Which of names a fresh `python -S` (no site module) has loaded after statement."""
    code = f"import sys; {statement}; print(*[n for n in {names!r} if n in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_engine_import_loads_no_dataclasses_typing_or_pathlib():
    assert _loaded("import upqstab", ("dataclasses", "typing", "inspect", "pathlib")) == set()


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
