"""The fan-out helper runs inline unless more than one worker is asked for."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from upqstab.concurrency import ordered_map

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("jobs", [None, 1])
def test_default_and_one_job_run_inline(jobs):
    caller = threading.get_ident()
    assert ordered_map(lambda x: (x * x, threading.get_ident()), [1, 2, 3], jobs) == [
        (1, caller), (4, caller), (9, caller)
    ]


def test_thread_pool_keeps_input_order():
    assert ordered_map(lambda x: -x, list(range(50)), jobs=3) == [-x for x in range(50)]


def test_fewer_than_one_job_is_rejected():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        ordered_map(str, [1], jobs=0)


def test_cli_import_does_not_load_the_thread_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, upqstab.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
