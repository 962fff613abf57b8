"""Determinism of the benchmark's inputs and of the counts it computes outside the program.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS, Checker, closed_form, make_inputs  # noqa: E402


def _counts(workload: str, seed: int, tmp_path: Path) -> Counter:
    """Run the first two requests of a workload in-process, check them and add up their counts."""
    from upqstab import cli

    checker = Checker()
    counts: Counter = Counter()
    for request in make_inputs(workload, seed)[:2]:
        for step in request:
            out = tmp_path / "out"
            assert cli.main([*step.argv, "--output", str(out)]) == 0
            checker.check_step(step, out.read_bytes(), counts)
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts(workload, tmp_path):
    first = _counts(workload, 7, tmp_path)
    assert first == _counts(workload, 7, tmp_path)
    assert first["out_bytes"] > 0
    if workload == "walls_wide":  # unfiltered: every closed-form candidate is a witness
        assert first["witnesses"] == first["candidates"] > 0


@pytest.mark.parametrize("ptype, interval", [((2, 1, 1, 0), (-2, 2)), ((4, 4, 3, -5), (-7, 3)), ((7, 5, -6, 6), (-3, 0))])
def test_closed_form_counts_every_candidate(ptype, interval):
    p, q, a, b = ptype
    r = p + q
    lo, hi = interval
    brute = 0
    for ps in range(p + 1):
        for qs in range(q + 1):
            coeff = ps * r - p * (ps + qs)
            if 1 <= ps + qs <= r - 1 and coeff:
                brute += sum(lo <= Fraction((a + b) * (ps + qs) - d * r, coeff) <= hi for d in range(-200, 201))
    assert closed_form(ptype, interval).candidates == brute
