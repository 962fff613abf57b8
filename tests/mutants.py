"""Mutation gate: each listed fault, planted in a copy of `src`, must fail its tests.

Run from anywhere with `python tests/mutants.py` (needs pytest).  Without a
`test_` prefix the Tier-1 suite does not collect this file.

For every mutant the script copies `src` to a temp dir, replaces the exact old
text (which must occur once in the named file) with the new text, and runs
the listed test files with `-x` against the copy.  The gate fails when a
mutant survives, and also when an old text no longer matches, so a refactor
must update this list rather than silently lose a mutant.  The listed test
files are first run on an unmutated copy, which must pass.

A change that adds a fast path or a check adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/upqstab, exact old text, new text, test files)
MUTANTS = [
    (
        "MW window half width: 2 * scale -> scale",
        "walls.py",
        "narrow = 2 * scale if mw_twist_degree == 0 else 0",
        "narrow = scale if mw_twist_degree == 0 else 0",
        ["tests/test_kernel_differential.py"],
    ),
    (
        "MW window rank: min(p', q') -> max(p', q')",
        "walls.py",
        "if min(w[0], w[1]) * abs(key) >= narrow",
        "if max(w[0], w[1]) * abs(key) >= narrow",
        ["tests/test_kernel_differential.py"],
    ),
    (
        "MW split check: the lower end of a' rounded down instead of up",
        "walls.py",
        "return -(-(min(skew, weighted) + shift) // den) <=",
        "return (min(skew, weighted) + shift) // den <=",
        ["tests/test_walls.py", "tests/test_kernel_differential.py"],
    ),
    (
        "MW split check: the shift 2 p' d' not scaled by the key's scale",
        "walls.py",
        "shift = 2 * p_sub * d_sub * scale",
        "shift = 2 * p_sub * d_sub",
        ["tests/test_walls.py", "tests/test_kernel_differential.py"],
    ),
    (
        "witness cap: count > MAX_WITNESSES -> >=",
        "walls.py",
        "if count > MAX_WITNESSES:",
        "if count >= MAX_WITNESSES:",
        ["tests/test_walls.py"],
    ),
    (
        "family cap: the family count misses the gcd(p, q) - 1 proportional sub-ranks",
        "walls.py",
        "family_count = (t.p + 1) * (t.q + 1) - math.gcd(t.p, t.q) - 1",
        "family_count = (t.p + 1) * (t.q + 1) - 2",
        ["tests/test_walls.py"],
    ),
    (
        "key scale: lcm over every family, not only those with a wall",
        "walls.py",
        "scale = math.lcm(*(abs(coeff) for _, _, coeff, _ in held))",
        "scale = math.lcm(*(abs(coeff) for _, _, coeff in _wall_families(t)))",
        ["tests/test_walls.py"],
    ),
    (
        "candidate count: degrees.stop - degrees.start -> len(degrees)",
        "walls.py",
        "count += degrees.stop - degrees.start",
        "count += len(degrees)",
        ["tests/test_walls.py", "tests/test_cli.py"],
    ),
    (
        "family scan: each family's d'-range loses its last degree",
        "walls.py",
        "degrees = range(first, last + 1)",
        "degrees = range(first, last)",
        ["tests/test_walls.py"],
    ),
    (
        "quiver slope kernel: a.numerator * r * den -> a.numerator * r",
        "core.py",
        "num = num * d + a.numerator * r * den",
        "num = num * d + a.numerator * r",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "compare_at: equal slopes compare as +1",
        "core.py",
        "return (diff > 0) - (diff < 0)",
        "return (diff >= 0) - (diff < 0)",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "SplitMix64.randint: the step's last shift >> 31 -> >> 30",
        "oracle.py",
        "return lo + (z ^ (z >> 31)) % (hi - lo + 1)",
        "return lo + (z ^ (z >> 30)) % (hi - lo + 1)",
        ["tests/test_integer_kernels.py", "tests/test_oracle.py"],
    ),
    (
        "HitchinPairType exact-int guard: type(p) is int -> isinstance(p, int)",
        "core.py",
        "if not (type(p) is int and",
        "if not (isinstance(p, int) and",
        ["tests/test_core.py"],
    ),
    (
        "QuiverNumericalType rank check: min(ranks, default=0) -> min(ranks)",
        "core.py",
        "if min(ranks, default=0) < 0:",
        "if min(ranks) < 0:",
        ["tests/test_core.py"],
    ),
    (
        "regime i boundary: n < -deg_l * d -> <=",
        "milnor_wood.py",
        "if n < -deg_l * d:",
        "if n <= -deg_l * d:",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "input records: drop the validating _make override",
        "core.py",
        "    base._make = classmethod(lambda cls, iterable: cls(*iterable))\n",
        "",
        ["tests/test_core.py"],
    ),
    (
        "HitchinPairType rank check: p < 1 -> p < 0",
        "core.py",
        "if p < 1 or q < 1:\n            raise ValueError(f\"ranks must satisfy",
        "if p < 0 or q < 1:\n            raise ValueError(f\"ranks must satisfy",
        ["tests/test_core.py"],
    ),
    (
        "wall grouping: append to a key's witnesses -> overwrite them",
        "walls.py",
        "                groups[key].append(w)",
        "                groups[key] = [w]",
        ["tests/test_walls.py"],
    ),
    (
        "chamber renderer: hi and lo boundaries swapped",
        "cli.py",
        "constants = tuple(chain.from_iterable(zip(bound_dens[1:], bound_dens)))\n"
        "    bases = list(chain.from_iterable(zip(bound_nums[1:], bound_nums)))",
        "constants = tuple(chain.from_iterable(zip(bound_dens, bound_dens[1:])))\n"
        "    bases = list(chain.from_iterable(zip(bound_nums, bound_nums[1:])))",
        ["tests/test_render_differential.py"],
    ),
    (
        "CSV renderer: alpha numerator and denominator swapped in the row arguments",
        "cli.py",
        "constants = tuple(chain.from_iterable(zip(_per_row(dens, counts), ps, qs)))\n"
        "    bases = list(chain.from_iterable(zip(_per_row(nums, counts), ds)))",
        "constants = tuple(chain.from_iterable(zip(_per_row(nums, counts), ps, qs)))\n"
        "    bases = list(chain.from_iterable(zip(_per_row(dens, counts), ds)))",
        ["tests/test_render_differential.py"],
    ),
    (
        "periodic renderer: the last whole copy of the period is dropped",
        "cli.py",
        "islice(zip(*map(count, bases, steps)), copies)",
        "islice(zip(*map(count, bases, steps)), copies - 1)",
        ["tests/test_cli.py"],
    ),
    (
        "wall alphas: key/scale not divided by their gcd",
        "cli.py",
        "gcds = list(map(math.gcd, keys, repeat(scale)))",
        "gcds = [1] * len(keys)",
        ["tests/test_cli.py"],
    ),
    (
        "wall template: one witness template too many per wall",
        "cli.py",
        "head + _WITNESS_SEP * (n - 1) + _WALL_TAIL",
        "head + _WITNESS_SEP * n + _WALL_TAIL",
        ["tests/test_render_differential.py"],
    ),
    (
        "chamber renderer: the interval ends' closed flags swapped",
        "cli.py",
        "_JSON_BOOL[lo_closed]), b\",\\n\")\n"
        "    parts += _periodic_pieces([_INNER_CHAMBER_JSON] * n, constants, bases, steps, last - first)\n"
        "    parts += (_CHAMBER_JSON % (hi_text, _JSON_BOOL[hi_closed],",
        "_JSON_BOOL[hi_closed]), b\",\\n\")\n"
        "    parts += _periodic_pieces([_INNER_CHAMBER_JSON] * n, constants, bases, steps, last - first)\n"
        "    parts += (_CHAMBER_JSON % (hi_text, _JSON_BOOL[lo_closed],",
        ["tests/test_render_differential.py"],
    ),
    (
        "wall period: r instead of r/g",
        "walls.py",
        "    period = p0 + q0\n    copies =",
        "    period = t.p + t.q\n    copies =",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic renderer: the d' shift per period has the wrong sign",
        "cli.py",
        "return map(operator.sub, map(operator.mul, repeat(table.p0), qs), map(operator.mul, repeat(table.q0), ps))",
        "return map(operator.sub, map(operator.mul, repeat(table.q0), ps), map(operator.mul, repeat(table.p0), qs))",
        ["tests/test_render_differential.py"],
    ),
    (
        "periodic renderer: the partial copy fills in one item's constants too few",
        "cli.py",
        "    split = head.count(b\"%\") - 2 * moving\n",
        "    short = b\"\".join(period[: rest - 1])\n"
        "    split = short.count(b\"%\") - 2 * short.count(b\"%%\")\n",
        ["tests/test_report_pieces.py"],
    ),
    (
        "CSV row template: the d' slot written as a constant %d instead of a moving %%d",
        "cli.py",
        "_CSV_ROW = b\"%%d,%d,%d,%d,%%d\\n\"",
        "_CSV_ROW = b\"%%d,%d,%d,%d,%d\\n\"",
        ["tests/test_cli.py"],
    ),
    (
        "periodic table: the last copy's walls at or below hi -> strictly below hi",
        "walls.py",
        "prefix = sum(key <= bound for key in keys)",
        "prefix = sum(key < bound for key in keys)",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the deg L = 0, |alpha| < 2 window check dropped",
        "walls.py",
        "    if mw_twist_degree == 0 and lo < 2 and hi > -2:\n        copies = 0\n",
        "",
        ["tests/test_periodic_table.py"],
    ),
    (
        "selftest failure record: the trial number off by one",
        "oracle.py",
        'failures.append({"trial": trial, "reason": reason, **inputs})',
        'failures.append({"trial": trial + 1, "reason": reason, **inputs})',
        ["tests/test_oracle.py"],
    ),
    (
        "selftest failure record: the case's inputs dropped",
        "oracle.py",
        'failures.append({"trial": trial, "reason": reason, **inputs})',
        'failures.append({"trial": trial, "reason": reason})',
        ["tests/test_oracle.py"],
    ),
]


def run_tests(src: Path, files: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def copy_src(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        every_file = sorted({f for *_, files in MUTANTS for f in files})
        clean = run_tests(copy_src(Path(tmp) / "clean"), every_file)
        if clean.returncode != 0:
            print(clean.stdout[-2000:])
            print("mutation gate: the listed tests fail on the unmutated source")
            return 1
        for index, (name, module, old, new, files) in enumerate(MUTANTS):
            src = copy_src(Path(tmp) / str(index))
            target = src / "upqstab" / module
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                failures.append(f"{name}: old text occurs {text.count(old)} times in {module}, expected once")
                print(f"STALE     {name}")
                continue
            target.write_text(text.replace(old, new), encoding="utf-8")
            started = time.perf_counter()
            result = run_tests(src, files)
            seconds = time.perf_counter() - started
            if result.returncode == 0:
                print(f"SURVIVED  {name} ({seconds:.1f} s)")
                failures.append(f"{name}: survived {' '.join(files)}")
                continue
            # the first failing test, so a kill by a collection error shows as one
            first = next((line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "")
            print(f"killed    {name} ({seconds:.1f} s): {first[:120]}")
    for failure in failures:
        print(f"mutation gate: {failure}")
    print(f"mutation gate: {len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
