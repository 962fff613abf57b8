"""Reference loop that turns request times into host-independent units.

On a shared host the speed of the CPU this process gets drifts by far more
than any change to the program under test: a fixed pure-Python `Fraction`
loop swung between 53 and 107 ms on samples taken one second apart, and the
raw per-request milliseconds of an unchanged workload moved by 13-25% from run
to run.  Dividing each request's time by the time of a fixed reference loop,
timed right before it, cancels that drift: the ratio held within about 5%.

The loop imports nothing from the program, so no change to the program can
move it.  It does the same kind of work the program does (small exact
rationals in pure Python), so both slow down together when the host does.

A request that is a fresh `python -m upqstab` process is mostly interpreter
start-up and import, which the host slows down differently from a warm loop:
divided by the in-process loop, such requests still drifted by about 11%
between rounds a minute apart.  For them the sample is this file run as a
fresh interpreter, start-up included, which held within about 3%.  Start-up
is the floor no change to the program can move, so dividing by it hides
nothing a change could do.

    python3 perfbench/reference.py    # one sample; prints the loop's checksum
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# about 10 ms of CPU per sample on a 2-CPU Xeon VM under Python 3.11
REFERENCE_TERMS = 3300
WINDOW = 9
# CPU seconds of one fresh-interpreter sample on that VM: the factor that turns
# set-up time in fresh-interpreter reference units back into seconds
FRESH_SAMPLE_S = 0.08


def reference_work() -> Fraction:
    """A fixed amount of `Fraction` arithmetic; the result is a checksum."""
    acc = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return acc


def _in_process() -> tuple[float, float, str]:
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    checksum = reference_work()
    wall = time.perf_counter() - wall0
    return time.process_time() - cpu0, wall, str(checksum)


def _fresh_interpreter(env: dict) -> tuple[float, float, str]:
    wall0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__], env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - wall0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"reference process exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime, wall, out.decode().strip()


class ReferenceClock:
    """Reference samples of CPU and wall seconds: one taken right before each
    request, and one after the last.

    `cpu_unit(i)` and `wall_unit(i)` are the divisors that turn the seconds of
    request `i`, run between samples `i` and `i + 1`, into reference units:
    the median of the last `WINDOW` samples up to `i`, or either adjacent
    sample if it is slower.  The median rides out single fast samples.  But
    the host slows down in bursts of about half a second, too short to move a
    median of nine, and a request inside one looked 20-30% slower than its
    neighbours; the samples on either side of it fall in the same burst.  Over
    eight 15 s `walls_mw` runs this cut the run-to-run spread of `cpu_ref.p90`
    from 12.7% to 4.0% of its median, with `cpu_ref.p50` at 2.9% and 3.3%.
    With `env`, each sample is a fresh interpreter started with that
    environment.
    """

    def __init__(self, env: dict | None = None) -> None:
        self.env = env
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self._checksum: str | None = None

    def sample(self) -> None:
        cpu, wall, checksum = _in_process() if self.env is None else _fresh_interpreter(self.env)
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("reference loop returned a different checksum")
        self.cpu.append(cpu)
        self.wall.append(wall)

    def cpu_unit(self, i: int) -> float:
        return _unit(self.cpu, i)

    def wall_unit(self, i: int) -> float:
        return _unit(self.wall, i)


def _unit(samples: list[float], i: int) -> float:
    return max(statistics.median(samples[max(0, i - WINDOW + 1): i + 1]), samples[i], samples[i + 1])


if __name__ == "__main__":
    print(reference_work())
