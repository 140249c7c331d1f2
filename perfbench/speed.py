"""How fast the CPU under the benchmark runs, moment by moment.

On a shared host the same code runs up to about 1.5x slower for seconds
to minutes at a time, as other tenants load the same physical cores. A
run can sit mostly in a slow or a fast stretch, and its wall times then
differ from another run's by more than any useful bound. So while the
loop runs, a small monitor process (`monitor.py`) follows the
benchmark's main thread from CPU to CPU and times a fixed reference
kernel there every `PERIOD_S`, in CPU seconds. Each timed operation is
then rescaled to reference speed::

    reported_s = wall_s * NOMINAL_S / mean(kernel_s sampled during it)

The kernel never calls antfis, so a change to the program moves the
reported times in full; only the machine's momentary speed is divided
out. It mixes the three kinds of work the program does: text
formatting and parsing, plain interpreter loops, and numpy calls on
small arrays. The monitor costs the benchmark a few percent of one
CPU, the same on every run. Wall times and speed factors stay in the
result file.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Seconds of one `kernel()` call at reference speed: about its median on
# the machine in README.md. Fixed across commits; it only sets the scale.
NOMINAL_S = 0.0022
PERIOD_S = 0.05
# Samples used for an interval too short to contain this many.
MIN_SAMPLES = 3

_RNG = np.random.default_rng(20010427)
_ROWS = [",".join(f"{v:.9g}" for v in row) for row in _RNG.random((60, 6))]
_X = _RNG.random((300, 5))
_X1 = np.hstack([_X, np.ones((300, 1))])
_Y = _RNG.random(300)
_CENTERS = _RNG.random((6, 5))
_SIGMAS = 0.3 + _RNG.random((6, 5))


def kernel() -> float:
    """The reference work: about 2 ms of CPU time at reference speed."""
    # Text: format and parse CSV-like rows, as the data plane does.
    table = {}
    for i, line in enumerate(_ROWS):
        table[f"row{i}"] = [float(x) for x in line.split(",")]
    text = "\n".join(",".join(f"{v:.9g}" for v in values)
                     for values in table.values())
    total = float(len(text))
    # Interpreter: plain loops over ints and dict updates.
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    total += len(counts)
    # Small arrays: a Gaussian-rule least-squares fit, as a fitness
    # evaluation does, on a third of its row count.
    z = (_X[:, None, :] - _CENTERS[None]) / _SIGMAS[None]
    log_w = -0.5 * (z * z).sum(axis=2)
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    design = (w[:, :, None] * _X1[:, None, :]).reshape(len(_X), -1)
    total += float(np.linalg.lstsq(design, _Y, rcond=None)[0][0])
    return total


def warm_up() -> None:
    for _ in range(20):
        kernel()


class Monitor:
    """Runs monitor.py on this process while in use; then `factor(t0, t1)`
    gives NOMINAL_S over the mean kernel time sampled in [t0, t1].

    Times are `time.perf_counter()` values, which on Linux read the
    system-wide CLOCK_MONOTONIC, so both processes share one clock.
    """

    def __init__(self, out: Path):
        if (time.get_clock_info("perf_counter").implementation
                != "clock_gettime(CLOCK_MONOTONIC)"):
            raise RuntimeError("perf_counter is not CLOCK_MONOTONIC here; "
                               "monitor samples cannot be matched to steps")
        self.out = out
        self._proc = None
        self._starts: list[float] = []
        self._secs: list[float] = []

    def __enter__(self) -> "Monitor":
        script = Path(__file__).with_name("monitor.py")
        self._proc = subprocess.Popen(
            [sys.executable, str(script), str(os.getpid()), str(self.out),
             str(PERIOD_S)], stdin=subprocess.DEVNULL)
        # Wait until it samples, so the first step is covered.
        deadline = time.monotonic() + 30
        while not (self.out.exists() and self.out.stat().st_size > 0):
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("speed monitor did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop the monitor, wait for it to end, and load its samples."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.out.exists():
            pairs = sorted(
                (float(a), float(b)) for a, b in
                (line.split() for line in
                 self.out.read_text(encoding="ascii").splitlines()
                 if len(line.split()) == 2))
            self._starts = [a for a, _ in pairs]
            self._secs = [b for _, b in pairs]

    def factor(self, t0: float, t1: float) -> float:
        if not self._starts:
            raise RuntimeError("no speed samples; call stop() first")
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        if hi - lo < MIN_SAMPLES:
            near = bisect.bisect_left(self._starts, (t0 + t1) / 2)
            lo = max(0, min(near - MIN_SAMPLES // 2,
                            len(self._starts) - MIN_SAMPLES))
            hi = min(len(self._starts), lo + MIN_SAMPLES)
        return NOMINAL_S / statistics.mean(self._secs[lo:hi])
