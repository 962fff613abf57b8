"""Lets each test file run on its own, `python -m pytest -q tests/test_core.py`, without `PYTHONPATH=src`.

The checkout's `src` is appended to `sys.path`, not put first: an upqstab
already on the path wins, as the mutated copy that `tests/mutants.py` puts on
`PYTHONPATH` must.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.append(SRC)
