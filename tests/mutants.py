"""Mutation gate: each listed fault, planted in a copy of `src`, must fail its tests.

Run from anywhere with `python tests/mutants.py` (needs pytest).  Without a
`test_` prefix the Tier-1 suite does not collect this file.

For every mutant the script copies `src` to a temp dir, replaces the exact old
text (which must occur once in the named file) with the new text, and runs
the listed test files with `-x` against the copy, its `src` put before the
caller's `PYTHONPATH`.  The gate fails when a mutant survives, and also when
an old text no longer matches, so a refactor must update this list rather
than silently lose a mutant.  The listed test files are first run on an
unmutated copy, which must pass.

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
        "narrow = 2 * scale\n",
        "narrow = scale\n",
        ["tests/test_kernel_differential.py"],
    ),
    (
        "MW window rank: min(p', q') -> max(p', q')",
        "walls.py",
        "if m * abs(key) < narrow:",
        "if max(p_sub, q_sub) * abs(key) < narrow:",
        ["tests/test_kernel_differential.py"],
    ),
    (
        "MW split check: the lower end of a' rounded down instead of up",
        "walls.py",
        "if -(-lower // den) > upper // den:",
        "if lower // den > upper // den:",
        ["tests/test_walls.py", "tests/test_kernel_differential.py"],
    ),
    (
        "MW split check: the shift 2 p' d' not scaled by the key's scale",
        "walls.py",
        "shift = 2 * p_sub * scale",
        "shift = 2 * p_sub",
        ["tests/test_walls.py", "tests/test_kernel_differential.py"],
    ),
    (
        "MW split check: a negative key takes the ends of a positive one",
        "walls.py",
        "lower, upper = skew * key + moved, weighted * key + moved",
        "lower, upper = weighted * key + moved, skew * key + moved",
        ["tests/test_walls.py"],
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
        "math.lcm(*(abs(coeff) for _, _, coeff, _ in held))",
        "math.lcm(*(abs(coeff) for _, _, coeff in _wall_families(t)))",
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
        "quiver slope kernel: n * r * den -> n * r",
        "core.py",
        "num = num * d + n * r * den",
        "num = num * d + n * r",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "U(p,q) slope kernel: alpha weighted by q instead of p",
        "core.py",
        "n * t.p, (t.p + t.q) * d",
        "n * t.q, (t.p + t.q) * d",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "parameter shift: an entry's numerator not scaled by the shift's denominator",
        "core.py",
        "_fraction(vn * d + n * vd, vd * d)",
        "_fraction(vn + n * vd, vd * d)",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "direct Fraction constructor: the gcd reduction skipped, so results leave lowest terms",
        "core.py",
        "    g = math.gcd(num, den)\n",
        "    g = 1\n",
        ["tests/test_core.py", "tests/test_oracle.py"],
    ),
    (
        "compare_at: equal slopes compare as +1",
        "core.py",
        "return (diff > 0) - (diff < 0)",
        "return (diff >= 0) - (diff < 0)",
        ["tests/test_integer_kernels.py"],
    ),
    (
        "SplitMix64 batched step: the last shift >> 31 -> >> 30",
        "oracle.py",
        "z ^= z >> 31",
        "z ^= z >> 30",
        ["tests/test_integer_kernels.py", "tests/test_oracle.py"],
    ),
    (
        "SplitMix64 batch: the state advances by 255 * gamma, not 256 * gamma",
        "oracle.py",
        "self._state = (self._state + _BATCH * _GAMMA) & self._MASK",
        "self._state = (self._state + (_BATCH - 1) * _GAMMA) & self._MASK",
        ["tests/test_oracle.py"],
    ),
    (
        "SplitMix64 batch: the lane decode shifted by 8 bytes",
        "oracle.py",
        'struct.Struct("<" + "Q8x" * _BATCH)',
        'struct.Struct("<8x" + "Q8x" * (_BATCH - 1) + "Q")',
        ["tests/test_oracle.py"],
    ),
    (
        "SplitMix64 batch: the second xor-shift loses its lane mask",
        "oracle.py",
        "z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask",
        "z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask",
        ["tests/test_oracle.py"],
    ),
    (
        "SplitMix64 batch take: a refill drops the old batch's tail",
        "oracle.py",
        "            taken += self._values[index:]\n",
        "",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest quiver maker: the index of an all-zero rank vector drawn before its rank",
        "oracle.py",
        "rank, index = rng.draws(2)",
        "index, rank = rng.draws(2)",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest bounds maker: alpha's numerator range one value short",
        "oracle.py",
        "num % (2 * reach + 1) - reach",
        "num % (2 * reach) - reach",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest tau-gap case: the integer tau test <= -> <",
        "oracle.py",
        "if abs(2 * (q * a - p * b)) <= min(p, q)",
        "if abs(2 * (q * a - p * b)) < min(p, q)",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest translation check: the shift's denominator dropped from x's side",
        "oracle.py",
        "if xn * yd * sd != (yn * sd + sn * yd) * xd:",
        "if xn * yd != (yn * sd + sn * yd) * xd:",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest Toledo duality check: the dual's pair not negated",
        "oracle.py",
        "if tau != (-n, d):",
        "if tau != (n, d):",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest bounds duality check: the mirrored upper end tested against the negated upper end",
        "oracle.py",
        "mirrored.upper.as_integer_ratio() != (-ln, ld)",
        "mirrored.upper.as_integer_ratio() != (-un, ud)",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest tau-gap check: -deg K not put over the gap's denominator",
        "oracle.py",
        "ok = gap > -deg_k * den if",
        "ok = gap > -deg_k if",
        ["tests/test_oracle.py"],
    ),
    (
        "selftest envelope check: a missing end compared as the other interval's end",
        "oracle.py",
        "None if lower is None else lower.as_integer_ratio(),",
        "(0, 1) if lower is None else lower.as_integer_ratio(),",
        ["tests/test_oracle.py"],
    ),
    (
        "certificate window 2: q*q for p*p in lo2's denominator",
        "walls.py",
        "t.p * t.q - t.p * t.p + t.p + t.q",
        "t.p * t.q - t.q * t.q + t.p + t.q",
        ["tests/test_walls.py"],
    ),
    (
        "certificate window 2: its open end lo2 closed",
        "walls.py",
        "lo2 < a <= 0",
        "lo2 <= a <= 0",
        ["tests/test_walls.py"],
    ),
    (
        "type check message: the value's repr past the digit limit, not the limit named",
        "core.py",
        'raise TypeError(f"{name} must be an integer, got {_shown_number(value, repr)}")',
        'raise TypeError(f"{name} must be an integer, got {value!r}")',
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
        "constants[0::2] = [*dens[1:], dens[0]]\n        constants[1::2] = dens\n"
        "        bases = constants[:]\n"
        "        bases[0::2] = [*nums[1:], nums[0] + period * dens[0]]\n        bases[1::2] = nums\n",
        "constants[1::2] = [*dens[1:], dens[0]]\n        constants[0::2] = dens\n"
        "        bases = constants[:]\n"
        "        bases[1::2] = [*nums[1:], nums[0] + period * dens[0]]\n        bases[0::2] = nums\n",
        ["tests/test_render_differential.py"],
    ),
    (
        "CSV renderer: alpha numerator and denominator swapped in the row arguments",
        "cli.py",
        "bases = list(chain.from_iterable(map(operator.mul, zip(nums, dens), counts)))",
        "bases = list(chain.from_iterable(map(operator.mul, zip(dens, nums), counts)))",
        ["tests/test_render_differential.py"],
    ),
    (
        "CSV renderer: a row's d' step takes p' and q' in each other's place",
        "cli.py",
        "steps[1::2] = _d_steps(table, flat[0::3], flat[1::3])",
        "steps[1::2] = _d_steps(table, flat[1::3], flat[0::3])",
        ["tests/test_render_differential.py"],
    ),
    (
        "JSON walls renderer: a wall's numerator step not scaled by its denominator",
        "cli.py",
        "steps[slot] = den * period",
        "steps[slot] = period",
        ["tests/test_render_differential.py"],
    ),
    (
        "JSON walls renderer: the next head slot counts the witnesses but not the head",
        "cli.py",
        "slot += n + 1",
        "slot += n",
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
        "chamber renderer: lo written open",
        "cli.py",
        'end = (lo_text, b"true")',
        'end = (lo_text, b"false")',
        ["tests/test_render_differential.py"],
    ),
    (
        "chamber renderer: a zero-width chamber written before a wall on lo",
        "cli.py",
        "if start != end[0]:",
        "if True:",
        ["tests/test_render_differential.py"],
    ),
    (
        "chamber renderer: the closed chamber [lo, lo] of a one-point interval with no wall dropped",
        "cli.py",
        'if end != (hi_text, b"false"):',
        "if end[0] != hi_text:",
        ["tests/test_render_differential.py"],
    ),
    (
        "chamber renderer: wall n taken from the same copy",
        "cli.py",
        "nums[0] + period * dens[0]]",
        "nums[0]]",
        ["tests/test_render_differential.py"],
    ),
    (
        "wall period: r instead of r/g",
        "walls.py",
        "    period = p0 + q0\n    copies, first",
        "    period = t.p + t.q\n    copies, first",
        ["tests/test_periodic_table.py"],
    ),
    (
        "library expander: the d' shift per copy has the wrong sign",
        "walls.py",
        "d_sub + copy * (p0 * q_sub - q0 * p_sub)",
        "d_sub + copy * (q0 * p_sub - p0 * q_sub)",
        ["tests/test_periodic_table.py"],
    ),
    (
        "library expander: the key shift per copy drops the factor P",
        "walls.py",
        "shift = copy * (p0 + q0) * scale",
        "shift = copy * scale",
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
        "sum(key <= bound for key in keys)",
        "sum(key < bound for key in keys)",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the deg L = 0, |alpha| < 2 window check dropped",
        "walls.py",
        "if mw_twist_degree == 0 and lo_num < 2 * lo_den and hi_num > -2 * hi_den:",
        "if False:",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the exact run's window bound 2 -> 1",
        "walls.py",
        "first = max(0, (-2 * lo_den - lo_num) // span)\n        stop = -((lo_num - 2 * lo_den) // span)",
        "first = max(0, (-lo_den - lo_num) // span)\n        stop = -((lo_num - lo_den) // span)",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the exact run's stop rounded down instead of up",
        "walls.py",
        "stop = -((lo_num - 2 * lo_den) // span)",
        "stop = (2 * lo_den - lo_num) // span",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the copies of a family with coeff > 0 cut one copy too far from its d'-range's stop",
        "walls.py",
        "start = degrees.stop - (first + n) * per_copy",
        "start = degrees.stop - (first + n + 1) * per_copy",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the window built even when the exact run starts at lo and reaches hi",
        "walls.py",
        "_window_copies(held, g, 0, 0 if first == 0 and past_hi else 1)",
        "_window_copies(held, g, 0, 1)",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic table: the exact run cut from copy 0 instead of copy `first`",
        "walls.py",
        "_window_copies(held, g, first, stop - first)",
        "_window_copies(held, g, 0, stop - first)",
        ["tests/test_periodic_table.py"],
    ),
    (
        "periodic renderer: no period moves, so no run gets steps past its first copy",
        "cli.py",
        "moves[index] = moves.get(index, False) or first > 0 or walls > len(table.periods[index][0])",
        "moves[index] = False",
        ["tests/test_cli.py"],
    ),
    (
        "periodic renderer: a run from copy `first` written from copy 0",
        "cli.py",
        "    if first:\n        bases =",
        "    if False:\n        bases =",
        ["tests/test_report_pieces.py", "tests/test_periodic_table.py"],
    ),
    (
        "chamber renderer: the chamber before a run written with its ends swapped",
        "cli.py",
        "_CHAMBER_JSON % (start, b\"false\", *end)",
        "_CHAMBER_JSON % (*end, start, b\"false\")",
        ["tests/test_render_differential.py"],
    ),
    (
        "run renderer: each run of the walls and CSV reports one wall short",
        "cli.py",
        "items += _periodic_pieces(*laid[index], walls, first)",
        "items += _periodic_pieces(*laid[index], walls - 1, first)",
        ["tests/test_render_differential.py"],
    ),
    (
        "engine errors: a TypeError from the engine reported as bad input",
        "cli.py",
        "    except ValueError as exc:\n        print(f\"upqstab: error: {_too_long_reason(exc) or exc}\"",
        "    except (ValueError, TypeError) as exc:\n        print(f\"upqstab: error: {_too_long_reason(exc) or exc}\"",
        ["tests/test_cli.py"],
    ),
    (
        "report write: the unwritten rest of a piece after a short write dropped",
        "cli.py",
        "batch = batch[done:]\n                batch[0] = memoryview(batch[0])[written:]",
        "batch = batch[done + 1:]",
        ["tests/test_cli.py"],
    ),
    (
        "report write: every batch of _IOV_MAX pieces taken from the first piece",
        "cli.py",
        "batch = pieces[start:start + _IOV_MAX]",
        "batch = pieces[:_IOV_MAX]",
        ["tests/test_cli.py"],
    ),
    (
        "argv parser: walls no longer requires --interval",
        "cli.py",
        '("--type", "--interval"),\n    ),\n    "chambers":',
        '("--type",),\n    ),\n    "chambers":',
        ["tests/test_cli.py", "tests/test_cli_parser_differential.py"],
    ),
    (
        "argv parser: a value that starts with \"-\" is read as a flag, so the flag before it has none",
        "cli.py",
        "value = next(tokens, None)\n            if value is None:",
        "value = next(tokens, None)\n            if value is None or value.startswith(\"-\"):",
        ["tests/test_cli.py", "tests/test_cli_parser_differential.py"],
    ),
    (
        "selftest failure record: the trial number off by one",
        "oracle.py",
        'failures.append(_json({"trial": trial, "reason": reason, **case}))',
        'failures.append(_json({"trial": trial + 1, "reason": reason, **case}))',
        ["tests/test_oracle.py"],
    ),
    (
        "selftest failure record: the case's inputs dropped",
        "oracle.py",
        'failures.append(_json({"trial": trial, "reason": reason, **case}))',
        'failures.append(_json({"trial": trial, "reason": reason}))',
        ["tests/test_oracle.py"],
    ),
    (
        "JSON form: a Fraction written by str(), so an integer prints without /1",
        "core.py",
        "        return format_rational(value)\n",
        "        return str(value)\n",
        ["tests/test_byte_identity.py"],
    ),
    (
        "JSON form: the record check after the tuple check, so a record becomes a list",
        "core.py",
        "    if isinstance(value, _Record):\n        return value.to_json()\n"
        "    if isinstance(value, Fraction):\n        return format_rational(value)\n"
        "    if isinstance(value, (tuple, list)):\n        return list(map(_json, value))\n",
        "    if isinstance(value, (tuple, list)):\n        return list(map(_json, value))\n"
        "    if isinstance(value, _Record):\n        return value.to_json()\n"
        "    if isinstance(value, Fraction):\n        return format_rational(value)\n",
        ["tests/test_byte_identity.py"],
    ),
    (
        "process entry: cli.main freezes after the report too, so in-process callers get a frozen collector",
        "cli.py",
        "    return run(config)\n",
        "    code = run(config)\n    gc.freeze()\n    return code\n",
        ["tests/test_process_entry.py"],
    ),
    (
        "process entry: the freeze dropped",
        "cli.py",
        "    code = main()\n    gc.freeze()\n",
        "    code = main()\n",
        ["tests/test_process_entry.py"],
    ),
]


def run_tests(src: Path, files: list[str]) -> subprocess.CompletedProcess:
    # the copy's src goes first; the rest of the caller's path (say, where pytest is) stays
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}
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
