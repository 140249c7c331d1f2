"""Work cut into shares, one per CPU: the one module that forks.

A worker is a child made by os.fork that answers requests until its
request pipe ends. A request is bytes sent over a pipe, framed by its
length. The child writes its reply into an anonymous temp file made
for it before the fork, then sends back the reply's length; this
process reads the reply from the file. A round sends each worker its
share's request, runs the first share in this process, then appends
each worker's reply to the caller's output in share order. A share
whose worker could not start, failed or was killed is run here instead,
so a failure only costs time, and an error then raised keeps its type
and message; that worker gets no further request. Leaving the
`_workers` block, by any path, closes every pipe and temp file and
kills and reaps every child.

No child is made on one CPU, without os.fork, while a second Python
thread runs (a forked copy of a threaded process can deadlock), or
while a share runs, in this process or in a child: work never nests.

Two users: _in_shares, a single round whose children inherit the items
(the row blocks of write_csv_table, the cells of trainer.sweep), and
aco.optimize, whose workers live for one call and evaluate each round's
candidate rows, sent as float64 bytes.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
from contextlib import contextmanager
from typing import BinaryIO, Callable

_HEADER = 8       # bytes of the little-endian length that frames a message
_CHUNK = 1 << 16  # bytes per read when a reply is copied out

# True while this process runs a share, and in every forked child.
_in_share = False


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _share_count(items: int) -> int:
    """Shares to cut `items` into: min(CPUs, items) where a child may be
    forked, else 1."""
    if (_in_share or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return max(1, min(_cpu_count(), items))


def _cuts(n: int, count: int) -> list[int]:
    """Bounds of `count` contiguous shares of n items, sizes within one."""
    return [i * n // count for i in range(count + 1)]


def _frame(size: int) -> bytes:
    return size.to_bytes(_HEADER, "little")


def _read(fd: int, n: int) -> bytes:
    """n bytes from the pipe fd, fewer only at its end."""
    parts = []
    while n > 0:
        part = os.read(fd, n)
        if not part:
            break
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Worker:
    """A forked child, the ends of its two pipes open in this process
    (request read and write end, reply read and write end) and its reply
    file. A worker whose pid is None has ended or never started, and
    fails every round."""

    def __init__(self):
        self.pid = self.spool = None
        self.fds = [None] * 4

    def start(self, serve: Callable[[bytes, BinaryIO], None],
              workers: list[_Worker], cpu: int | None) -> None:
        """Fork the child, pinned to `cpu` unless it is None; if a pipe,
        the file or the fork fails, the worker ends."""
        global _in_share
        try:
            self.fds[0], self.fds[1] = os.pipe()
            self.fds[2], self.fds[3] = os.pipe()
            self.spool = tempfile.TemporaryFile()
            self.pid = os.fork()
        except OSError:
            self.end()
            return
        if self.pid == 0:  # the child: never returns into the caller
            code = 1
            try:
                _in_share = True
                if cpu is not None:
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except OSError:  # say, a CPU gone offline: no pin
                        pass
                for worker in workers:
                    if worker is not self:
                        worker.close()
                self.close(1, 2)
                self.answer(serve)
                code = 0
            finally:
                os._exit(code)
        self.close(0, 3)

    def answer(self, serve: Callable[[bytes, BinaryIO], None]) -> None:
        """The child's loop: serve each request until the pipe ends."""
        while True:
            head = _read(self.fds[0], _HEADER)
            size = int.from_bytes(head, "little")
            request = _read(self.fds[0], size)
            if len(head) < _HEADER or len(request) < size:
                return
            self.spool.seek(0)
            self.spool.truncate()
            serve(request, self.spool)
            self.spool.flush()
            _write(self.fds[3], _frame(self.spool.tell()))

    def close(self, *ends: int) -> None:
        """Close the given pipe ends here, or all of them and the file."""
        if not ends:
            ends = range(4)
            if self.spool is not None:
                self.spool.close()
        for end in ends:
            fd, self.fds[end] = self.fds[end], None
            if fd is not None:
                os.close(fd)

    def send(self, request: bytes) -> None:
        if self.pid is not None:
            try:
                _write(self.fds[1], _frame(len(request)) + request)
            except OSError:  # the child has gone
                self.end()

    def reply_into(self, out: BinaryIO) -> bool:
        """Append the reply to the last request to `out`; False if the
        worker failed, with `out` untouched."""
        if self.pid is None:
            return False
        head = _read(self.fds[2], _HEADER)
        if len(head) < _HEADER:
            self.end()
            return False
        size, fd = int.from_bytes(head, "little"), self.spool.fileno()
        for start in range(0, size, _CHUNK):
            out.write(os.pread(fd, min(_CHUNK, size - start), start))
        return True

    def end(self) -> None:
        """Close the pipes and the file, then kill and reap the child."""
        self.close()
        if self.pid is not None:
            pid, self.pid = self.pid, None
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker_cpus(count: int) -> list[int | None]:
    """A CPU for each of `count` workers: those this process may run on
    that follow, in a ring, the one it runs on now; None for each where
    affinity cannot be set or there are not more CPUs than workers."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * count
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) <= count:
        return [None] * count
    try:
        with open("/proc/self/stat", "rb") as fh:  # field 39: the CPU
            now = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        now = cpus[0]
    i = cpus.index(now) + 1 if now in cpus else 1
    return (cpus[i:] + cpus[:i])[:count]


@contextmanager
def _workers(count: int, serve: Callable[[bytes, BinaryIO], None]):
    """Fork `count` workers that answer a request with serve(request,
    reply), `reply` a binary file, and yield them.

    Each worker is pinned to a CPU of its own, other than the one this
    process runs on, where there are enough. A pipe write wakes its
    reader on the writer's CPU, and the scheduler then tended to keep a
    worker there, so unpinned shares ran one after another in most rounds
    (measured: 1.5 ms of a 3 ms round spent in the request write). This
    process stays unpinned: BLAS threads it starts while pinned would
    keep that one CPU.
    """
    workers = []
    try:
        for cpu in _worker_cpus(count):
            workers.append(_Worker())
            workers[-1].start(serve, workers, cpu)
        yield workers
    finally:
        for worker in workers:
            worker.end()


def _round(workers: list[_Worker], requests: list[bytes],
           here: Callable[[int, BinaryIO], None], out: BinaryIO) -> None:
    """One round over 1 + len(workers) shares: requests[i] goes to
    workers[i], which serves share i + 1; here(0, out) runs share 0 in
    this process; then each worker's reply is appended to `out` in share
    order, or here(i, out) runs share i if its worker failed."""
    global _in_share
    for worker, request in zip(workers, requests, strict=True):
        worker.send(request)
    outer, _in_share = _in_share, True
    try:
        here(0, out)
        for i, worker in enumerate(workers, start=1):
            if not worker.reply_into(out):
                here(i, out)
    finally:
        _in_share = outer


def _in_shares(run: Callable[[list, BinaryIO], None], items: list,
               out: BinaryIO) -> None:
    """Call run(share, out) on `items` cut into _share_count(len(items))
    contiguous shares, in share order, `out` being a binary file.

    One round of forked workers, which inherit the items: the request
    names a share, the reply holds the bytes run wrote for it. `out`
    receives the same bytes for any CPU count when `run` writes the same
    bytes for a list of items as for its parts in turn.

    Two callers: dataset.write_csv_table, whose items are row blocks and
    whose shares write their rows' CSV text; and trainer.sweep, whose
    items are grid cells and whose shares write each cell's (train R,
    test R) as two float64s.
    """
    cuts = _cuts(len(items), _share_count(len(items)))
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    with _workers(len(shares) - 1,
                  lambda request, reply: run(shares[int(request)], reply)
                  ) as workers:
        _round(workers, [b"%d" % i for i in range(1, len(shares))],
               lambda i, into: run(shares[i], into), out)
