"""Sample the speed of the CPU another process runs on, until stopped.

    python3 perfbench/monitor.py PID OUT PERIOD_S

Every PERIOD_S seconds the monitor moves itself to the CPU on which the
main thread of PID last ran, runs the reference kernel in `speed.py`
there, and appends ``<perf_counter at start> <CPU seconds>`` to OUT.
CPU time, not wall time: when the watched thread preempts the monitor
mid-kernel, the wait is not the CPU's speed. The monitor exits on
SIGTERM, or when PID is no longer its parent. The process it watches is
not pinned and may use every CPU it is given.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from pathlib import Path


def _cpu_of(stat_path: str) -> int | None:
    """The CPU a task last ran on (field 39 of its stat line)."""
    try:
        with open(stat_path, encoding="ascii") as fh:
            text = fh.read()
    except OSError:
        return None
    return int(text[text.rindex(")") + 2:].split()[36])


def main(argv: list[str]) -> int:
    pid, out, period = int(argv[0]), Path(argv[1]), float(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import speed

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    stat_path = f"/proc/{pid}/task/{pid}/stat"
    allowed = os.sched_getaffinity(0)
    speed.warm_up()
    with open(out, "w", encoding="ascii", buffering=1) as fh:
        while os.getppid() == pid:
            cpu = _cpu_of(stat_path)
            if cpu in allowed:
                os.sched_setaffinity(0, {cpu})
            t0, cpu0 = time.perf_counter(), time.thread_time()
            speed.kernel()
            fh.write(f"{t0:.6f} {time.thread_time() - cpu0:.9f}\n")
            time.sleep(period)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
