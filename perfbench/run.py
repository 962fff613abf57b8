#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the upqstab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/upqstab`.  The workload's inputs
come from the seed; every output is checked; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones, and the spans go to `.perfbench_out/`.  See README.md in this
directory for what each metric means and which one a change should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
from reference import FRESH_SAMPLE_S, WINDOW, ReferenceClock  # noqa: E402
from tracing import REQUEST_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checker, CheckFailed, make_inputs, oracle_matches  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 11  # fresh interpreters whose set-up CPU gives setup_s
# Runs each argv read from stdin through `cli.main` and nothing else, so that
# its peak RSS is the program's alone, not the checker's.
PROGRAM_CHILD = """\
import json, sys
from upqstab import cli
for argv in json.load(sys.stdin):
    if cli.main(argv):
        sys.exit(1)
"""
ORACLE_SAMPLE = 4  # distinct walls inputs per run compared with the brute-force oracle


def program_env() -> dict:
    """Environment for program subprocesses: the source tree on the path and
    bytecode caching on, whatever the caller's environment says about either."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "UPQSTAB_FORMAT")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, stdin: bytes | None = None) -> tuple[int, bytes, resource.struct_rusage]:
    """Run a process from the checkout root to its end; return its exit code,
    stdout and resource usage, which counts the children it waited for."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE if stdin is not None else None,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if stdin is not None:  # the child reads all of it before it writes anything
        with proc.stdin:
            proc.stdin.write(stdin)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage


def import_program() -> dict:
    if not (SRC / "upqstab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no upqstab sources under {SRC}")
    os.environ.pop("UPQSTAB_FORMAT", None)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"upqstab.{name}") for name in ("cli", "core", "walls", "oracle")}


class InProcess:
    """Calls `cli.main` in this process, each step writing to its own file."""

    def __init__(self, modules: dict, tmp: Path) -> None:
        self.cli = modules["cli"]
        self.paths = [tmp / f"step{i}.out" for i in range(3)]
        self.codes: list[int] = []
        self.reference_env = None
        self.peak_rss_kb = 0

    def execute(self, request, scope) -> float:
        self.codes = []
        with scope():
            for step, path in zip(request, self.paths):
                try:
                    self.codes.append(self.cli.main([*step.argv, "--output", str(path)]))
                except Exception:  # a crash fails the request; the check counts it
                    traceback.print_exc()
                    self.codes.append(-1)
        return 0.0

    def outputs(self, request, scope) -> list[bytes]:
        if any(self.codes):
            raise CheckFailed(f"exit codes {self.codes}")
        data = []
        for path in self.paths[: len(request)]:
            data.append(path.read_bytes())
            path.unlink()
        return data

    def measure_peak_rss(self, inputs) -> bool:
        """Run every input once in a fresh process that runs nothing but the
        program, and keep that process's peak RSS; False if it failed."""
        argvs = [[*step.argv, "--output", str(path)] for request in inputs for step, path in zip(request, self.paths)]
        code, _, usage = run_child([sys.executable, "-c", PROGRAM_CHILD], program_env(), json.dumps(argvs).encode())
        self.peak_rss_kb = usage.ru_maxrss
        if code != 0:
            print(f"perfbench: the peak RSS process exited {code}", file=sys.stderr)
        return code == 0

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024


class Oneshot:
    """Runs each step as its own `python -m upqstab` process."""

    def __init__(self, modules: dict, tmp: Path) -> None:
        self.cli = modules["cli"]
        self.env = program_env()
        # requests are fresh interpreters, so reference samples are too
        self.reference_env = self.env
        self.results: list[tuple[int, bytes]] = []
        self.peak_rss_kb = 0

    def execute(self, request, scope) -> float:
        self.results = []
        child_cpu = 0.0
        for step in request:
            code, out, usage = run_child([sys.executable, "-m", "upqstab", *step.argv], self.env)
            child_cpu += usage.ru_utime + usage.ru_stime
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            self.results.append((code, out))
        return child_cpu

    def outputs(self, request, scope) -> list[bytes]:
        """The processes' stdout, each byte-identical to the same argv run
        in-process; in a traced run, that in-process run is the traced one."""
        data = []
        for step, (code, out) in zip(request, self.results):
            buffer = io.StringIO()
            with scope(), contextlib.redirect_stdout(buffer):
                local_code = self.cli.main(list(step.argv))
            if code != 0 or local_code != 0:
                raise CheckFailed(f"exit codes {code} (process) and {local_code} (in-process)")
            if buffer.getvalue().encode("utf-8") != out:
                raise CheckFailed("process stdout differs from the in-process run")
            data.append(out)
        return data

    def measure_peak_rss(self, inputs) -> bool:
        """The loop's processes ran nothing but the program; their peak is kept as they end."""
        return True

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024


class Bench:
    """One workload's program, inputs and runner, set up and warmed up."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.modules = import_program()
        self.inputs = make_inputs(workload, seed)
        self.runner = (Oneshot if workload == "oneshot" else InProcess)(self.modules, tmp)
        self.checker = Checker()
        # the brute-force oracle is slow, so it sees a seeded sample of inputs, never the warm-up's
        self.oracle_slots = set(random.Random(f"perfbench:oracle:{seed}").sample(range(1, len(self.inputs)), ORACLE_SAMPLE))
        # input slot -> (digest of its verified outputs, its counts)
        self.verified: dict[int, tuple[bytes, Counter]] = {}
        # warm-up: one request, so caches and bytecode are in place
        self.runner.execute(self.inputs[0], contextlib.nullcontext)

    def check_warm_up(self) -> None:
        """Check the warm-up request; a failure here is counted when the loop runs this input again."""
        with contextlib.suppress(Exception):
            self.check(0, contextlib.nullcontext)

    def check(self, slot: int, scope) -> Counter:
        """Return the counts of the request just run; raise CheckFailed unless
        every output of it is right.

        An input's first outputs get the full check; a repeat must be
        byte-identical to them, which the program's determinism promises.
        """
        request = self.inputs[slot]
        outputs = self.runner.outputs(request, scope)
        digest = hashlib.sha256(b"".join(len(data).to_bytes(8, "big") + data for data in outputs)).digest()
        if slot in self.verified:
            want, counts = self.verified[slot]
            if digest != want:
                raise CheckFailed("output differs from the verified output of the same input")
            return counts
        counts: Counter = Counter()
        walls = [self.checker.check_step(step, data, counts) for step, data in zip(request, outputs)]
        if slot in self.oracle_slots and walls[0] is not None:
            if not oracle_matches(self.modules["oracle"], self.modules["core"], request[0], walls[0]):
                raise CheckFailed("walls differ from the brute-force oracle")
        self.verified[slot] = (digest, counts)
        return counts


def setup_seconds(args) -> float:
    """Set-up time in nominal seconds: the median over fresh interpreters that
    run this file's set-up (start, import, inputs and the warm-up request) of
    their CPU time over the mean of the fresh-interpreter reference samples
    taken just before and just after, times `FRESH_SAMPLE_S`."""
    env = program_env()
    clock = ReferenceClock(env)
    clock.sample()
    ratios = []
    for i in range(SETUP_CHILDREN):
        code, _, usage = run_child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                                    "--seed", str(args.seed), "--setup-probe"], env)
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}")
        clock.sample()
        ratios.append((usage.ru_utime + usage.ru_stime) / statistics.mean(clock.cpu[i: i + 2]))
    return statistics.median(ratios) * FRESH_SAMPLE_S


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, args, tracer: Tracer | None) -> dict:
    """The closed loop: reference sample, request, check; repeat.  Times are
    turned into reference units at the end, by `ReferenceClock`.

    The first `WINDOW` requests are run and checked but not timed: they fill
    the reference window with samples taken between requests, which run
    slower than back-to-back ones, so the first ratios are not inflated.
    With a tracer every second request is traced and followed by the engine
    probes; the others stay untraced, for the overhead ratio and raw times.
    """
    clock = ReferenceClock(bench.runner.reference_env)
    rows: list[dict] = []
    cli = bench.modules["cli"]
    deadline = time.perf_counter() + args.seconds
    index = 0
    # at least ten timed requests; a traced run also runs every input, so that its counts cover them all
    least = max(WINDOW + 10, len(bench.inputs) if tracer else 0)
    while time.perf_counter() < deadline or index < least:
        slot = (index + args.seed) % len(bench.inputs)
        request = bench.inputs[slot]
        traced = tracer is not None and index % 2 == 1
        scope = (lambda: tracer.request_scope(index)) if traced else contextlib.nullcontext
        gc.collect()
        clock.sample()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        child_cpu = bench.runner.execute(request, scope)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0 + child_cpu
        row = {"index": index, "timed": index >= WINDOW, "traced": traced, "cpu_ms": cpu * 1e3,
               "wall_ms": wall * 1e3, "ok": True, "counts": Counter()}
        try:
            row["counts"] = bench.check(slot, scope)
        except Exception:  # the loop goes on; a failed request counts against ok_ratio
            row["ok"] = False
            print(f"perfbench: request {index} (input {slot}) failed its check:", file=sys.stderr)
            traceback.print_exc()
        if traced:
            flip = index % 4 == 1
            row["fanout_ms"] = probes.engine_difference_ms(cli, request, probes.at_one_job, flip)
            row["mw_filter_ms"] = probes.engine_difference_ms(cli, request, probes.without_mw_filter, flip)
        rows.append(row)
        index += 1
    clock.sample()  # request i ran between samples i and i + 1
    for i, row in enumerate(rows):
        row["cpu_ref"] = row["cpu_ms"] / 1e3 / clock.cpu_unit(i)
        row["latency_ref"] = row["wall_ms"] / 1e3 / clock.wall_unit(i)
    return {"rows": rows, "ref_cpu_ms": [x * 1e3 for x in clock.cpu]}


def end_to_end_metrics(bench: Bench, result: dict, setup_s: float) -> dict:
    rows = result["rows"]
    timed = [r for r in rows if r["timed"]]
    cpu_ref = [r["cpu_ref"] for r in timed]
    return {
        "cpu_ref.p50": (statistics.median(cpu_ref), "ref"),
        "cpu_ref.p90": (p90(cpu_ref), "ref"),
        "latency_ref.p50": (statistics.median(r["latency_ref"] for r in timed), "ref"),
        "peak_rss_mb": (bench.runner.peak_rss_mb(), "MB"),
        "ok_ratio": (sum(r["ok"] for r in rows) / len(rows), "ratio"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(bench: Bench, result: dict, tracer: Tracer, args) -> dict:
    rows = [r for r in result["rows"] if r["timed"]]
    plain = [r for r in rows if not r["traced"]]
    traced = [r for r in rows if r["traced"]]
    env = program_env()
    with tracer.probe_scope():
        python_start_ms = probes.python_start_ms(env, ROOT, tracer.span)
        imports = probes.import_times(env, ROOT, tracer.span)
    table = tracer.per_request()
    spans = [table[r["index"]] for r in traced]
    totals: Counter = Counter()
    for _, counts in bench.verified.values():
        totals.update(counts)

    def p50(key):
        """Median over the traced requests that made the call; 0 if none did."""
        return median_or_zero(row[key] for row in spans if key in row)

    def per_call_us(name):
        return median_or_zero(row[f"busy.{name}"] / row[f"calls.{name}"] * 1e3
                              for row in spans if row.get(f"calls.{name}"))

    def throughput(count_key, span_name):
        return median_or_zero(r["counts"][count_key] / table[r["index"]][f"busy.{span_name}"]
                              for r in traced if table[r["index"]].get(f"busy.{span_name}"))

    metrics = {
        "ref.cpu_ms.p50": (statistics.median(result["ref_cpu_ms"]), "ms"),
        "proc.python_start_ms.p50": (python_start_ms, "ms"),
        "import.upqstab_cli_ms": (imports["upqstab_cli_ms"], "ms"),
    }
    for module in probes.IMPORT_MODULES:
        metrics[f"import.self_us.{module}"] = (imports[f"self_us.{module}"], "us")
    metrics.update({
        "cli.parse_args_ms.p50": (p50("busy.cli.parse_args"), "ms"),
        "cli.engine_ms.p50": (p50("busy.cli.engine"), "ms"),
        "walls.enumerate_walls_ms.p50": (p50("busy.walls.enumerate_walls"), "ms"),
        "walls.chamber_report_ms.p50": (p50("busy.walls.chamber_report"), "ms"),
        "walls.witnesses_per_ms": (throughput("witnesses", "walls.enumerate_walls"), "1/ms"),
        "walls.to_json_ms.p50": (p50("convert"), "ms"),
        "cli.render_json_ms.p50": (p50("busy.cli.render_json"), "ms"),
        "cli.render_csv_ms.p50": (p50("busy.cli.render_csv"), "ms"),
        "cli.write_ms.p50": (p50("self.cli.run"), "ms"),
        "walls.mw_filter_ms.p50": (median_or_zero(r["mw_filter_ms"] for r in traced if r["mw_filter_ms"] is not None), "ms"),
        "milnor_wood.toledo_bounds_us.p50": (per_call_us("milnor_wood.toledo_bounds"), "us"),
        "concurrency.fanout_overhead_ms.p50": (median_or_zero(r["fanout_ms"] for r in traced if r["fanout_ms"] is not None), "ms"),
        "oracle.property_driver_ms.p50": (p50("busy.oracle.property_driver"), "ms"),
        "selftest.cases_per_ms": (throughput("cases", "oracle.property_driver"), "1/ms"),
    })
    for name, value in probes.core_batch_us(bench.modules["core"], bench.modules["oracle"], args.seed).items():
        metrics[name] = (value, "us")
    mw_candidates = totals["mw_candidates"]
    metrics.update({
        "walls.families": (totals["families"], "count"),
        "walls.candidates": (totals["candidates"], "count"),
        "walls.walls": (totals["walls"], "count"),
        "walls.witnesses": (totals["witnesses"], "count"),
        "walls.mw_checks": (totals["mw_checks"], "count"),
        "walls.mw_dropped": (totals["mw_dropped"], "count"),
        "walls.mw_kept_ratio": ((mw_candidates - totals["mw_dropped"]) / mw_candidates if mw_candidates else 0.0, "ratio"),
        "cli.out_bytes": (totals["out_bytes"], "bytes"),
        "selftest.cases": (totals["cases"], "count"),
        "trace.overhead_ratio": (median_or_zero(r["cpu_ref"] for r in traced) / median_or_zero(r["cpu_ref"] for r in plain), "ratio"),
        "cpu_ref.untraced.p50": (median_or_zero(r["cpu_ref"] for r in plain), "ref"),
        "latency_ms.p50": (median_or_zero(r["wall_ms"] for r in plain), "ms"),
        "cpu_ms.p50": (median_or_zero(r["cpu_ms"] for r in plain), "ms"),
        "cpu_ms.p90": (p90([r["cpu_ms"] for r in plain]), "ms"),
    })
    for layer in REQUEST_LAYERS:
        metrics[f"layer.{layer}.self_ms.p50"] = (p50(f"layer.{layer}"), "ms")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed,
                 "metrics": {name: value for name, (value, _) in metrics.items()}})
    return metrics


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        bench = Bench(args.workload, args.seed, tmp)
        if args.setup_probe:
            return 0
        bench.check_warm_up()
        if args.trace:
            tracer = Tracer(bench.modules)
            result = measure(bench, args, tracer)
            metrics = per_layer_metrics(bench, result, tracer, args)
        else:
            setup_s = setup_seconds(args)
            result = measure(bench, args, None)
            if not bench.runner.measure_peak_rss(bench.inputs):
                result["rows"].append({"ok": False, "timed": False})
            metrics = end_to_end_metrics(bench, result, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rows = result["rows"]
    failed = sum(not r["ok"] for r in rows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
