"""Probes the traced run takes besides its spans.

Fresh interpreters give interpreter start and `-X importtime` figures; a
seeded batch gives per-call times of small core functions; repeating an
engine call with one setting changed gives the cost of that setting.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

IMPORT_MODULES = ("upqstab.cli", "upqstab.core", "upqstab.walls", "upqstab.oracle", "upqstab.milnor_wood",
                  "argparse", "json", "csv", "concurrent.futures", "fractions")


def python_start_ms(env: dict, cwd, span, repeats: int = 7) -> float:
    """Median wall time of a bare `python -c pass`, each run inside `span`."""
    samples = []
    for _ in range(repeats):
        with span("proc.python_start"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
            samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def import_times(env: dict, cwd, span, repeats: int = 5) -> dict[str, float]:
    """Medians over fresh interpreters of `-X importtime` for `import upqstab.cli`.

    Returns `upqstab_cli_ms` (cumulative) and `self_us.<module>`; a module
    another import already loaded reads 0.  Each interpreter runs inside `span`.
    """
    runs = []
    for _ in range(repeats):
        with span("import.upqstab_cli"):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import upqstab.cli"],
                                  env=env, cwd=cwd, check=True, capture_output=True, text=True)
        table = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                table[fields[2].strip()] = (int(fields[0]), int(fields[1]))
        runs.append(table)
    result = {"upqstab_cli_ms": statistics.median(run["upqstab.cli"][1] for run in runs) / 1e3}
    for module in IMPORT_MODULES:
        result[f"self_us.{module}"] = statistics.median(run.get(module, (0, 0))[0] for run in runs)
    return result


def _per_call_us(fn, args_list, repeats: int = 9) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / len(args_list) / 1e3)
    return statistics.median(samples)


def core_batch_us(core, oracle, seed: int, size: int = 200) -> dict[str, float]:
    """Per-call microseconds of selftest's hottest small functions on a seeded batch."""
    rng = random.Random(f"perfbench:core:{seed}")
    types = [core.HitchinPairType(rng.randint(1, 6), rng.randint(1, 6), rng.randint(-8, 8), rng.randint(-8, 8))
             for _ in range(size)]
    alphas = [Fraction(rng.randint(-72, 72), rng.randint(1, 12)) for _ in range(size)]
    quiver_args = [(core.upq_quiver_type(t), core.upq_parameter_vector(a)) for t, a in zip(types, alphas)]
    envelope_args = [(t.p, t.q, rng.randint(0, 4), a) for t, a in zip(types, alphas)]
    return {
        "core.toledo_us": _per_call_us(core.toledo, [(t,) for t in types]),
        "core.alpha_slope_quiver_us": _per_call_us(core.alpha_slope_quiver, quiver_args),
        "oracle.envelope_toledo_bounds_us": _per_call_us(oracle.envelope_toledo_bounds, envelope_args),
    }


def _engine_cpu_ms(cli, config) -> float:
    start = time.process_time()
    cli._execute(config)
    return (time.process_time() - start) * 1e3


def engine_difference_ms(cli, request, changed, flip: bool) -> float | None:
    """CPU ms of each step's engine call minus the same call with `changed`
    applied to its config, summed over the steps it applies to (None if none).

    `changed(config)` returns the altered config, or None to skip the step;
    `flip` swaps which call runs first, so alternating it cancels order effects.
    """
    total = None
    for step in request:
        if step.command not in ("walls", "chambers", "selftest"):
            continue
        config = cli.parse_args(list(step.argv))
        other = changed(config)
        if other is None:
            continue
        if flip:
            other_ms = _engine_cpu_ms(cli, other)
            base_ms = _engine_cpu_ms(cli, config)
        else:
            base_ms = _engine_cpu_ms(cli, config)
            other_ms = _engine_cpu_ms(cli, other)
        total = (total or 0.0) + base_ms - other_ms
    return total


def at_one_job(config):
    """The same engine call inline, for the thread fan-out's overhead."""
    return replace(config, jobs=1) if config.jobs is None else None


def without_mw_filter(config):
    """The same engine call unfiltered, for the Milnor-Wood filter's cost."""
    return replace(config, mw_filter=False) if config.mw_filter else None
