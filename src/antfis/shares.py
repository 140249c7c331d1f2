"""Work cut into shares, one per CPU: the one module that forks.

One function, serve(request, reply), serves every share of a round: it
writes the reply to its request's bytes into a binary file. A worker is
a child made by os.fork that serves requests until its request pipe
ends; each request is one multiprocessing.connection message over a
one-way pipe. The child writes its reply into an anonymous temp file
made before the fork and then sends its size as a message over a second
pipe; this process reads the reply from the file. This process serves
share 0, and the share of any worker that could not start, failed or
was killed, from the same request bytes: a failure only costs time, an
error then raised keeps its type and message, and that worker gets no
further request. While workers live, the OpenBLAS that numpy bundles
runs one thread, here and in every child. Leaving the `_workers` block,
by any path, closes every pipe and temp file, kills and reaps every
child and restores the BLAS thread count.

No child is made on one CPU, without os.fork, while a second Python
thread runs (a forked copy of a threaded process can deadlock), or
while a share runs, in this process or in a child: work never nests.

Its users: _in_shares, one round whose children inherit the items (the
even row spans of write_csv_table, one per share, each formatted as CSV
text in blocks of at most dataset._BLOCK_ROWS rows; the line spans of
read_csv_table and the cells of trainer.sweep, whose shares write
float64s), and aco.optimize, whose workers live for one call: each
round's request names only a row count and the row a share starts its
scan at, and the workers claim, read and answer the candidate rows on a
board mapped before the fork, with empty replies.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from typing import BinaryIO, Callable

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


class _Worker:
    """A forked child, this process's ends of its two one-way pipes
    (`requests` it writes, `sizes` it reads) and its reply file. A
    worker whose pid is None has ended or never started, and fails every
    round."""

    def __init__(self):
        self.pid = self.requests = self.sizes = self.spool = None

    def start(self, serve: Callable[[bytes, BinaryIO], None],
              workers: list[_Worker], cpu: int | None) -> None:
        """Fork the child, pinned to `cpu` unless it is None; if a pipe,
        the file or the fork fails, the worker ends."""
        global _in_share
        # Imported at the first fork: a command that forks nothing does
        # not pay its import, about 10 ms.
        from multiprocessing.connection import Pipe
        with ExitStack() as theirs:  # the child's ends, closed here
            try:
                requests, self.requests = Pipe(duplex=False)
                theirs.enter_context(requests)
                self.sizes, sizes = Pipe(duplex=False)
                theirs.enter_context(sizes)
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
                    self.requests.close()
                    self.sizes.close()
                    self.requests, self.sizes = requests, sizes
                    self.answer(serve)
                    code = 0
                finally:
                    os._exit(code)

    def answer(self, serve: Callable[[bytes, BinaryIO], None]) -> None:
        """The child's loop: serve each request until the pipe ends."""
        while True:
            try:
                request = self.requests.recv_bytes()
            except (EOFError, OSError):  # at or within a message
                return
            self.spool.seek(0)
            self.spool.truncate()
            serve(request, self.spool)
            self.spool.flush()
            self.sizes.send_bytes(b"%d" % self.spool.tell())

    def close(self) -> None:
        """Close the pipe ends and the file open here."""
        for end in (self.requests, self.sizes, self.spool):
            if end is not None:
                end.close()

    def send(self, request: bytes) -> None:
        if self.pid is not None:
            try:
                self.requests.send_bytes(request)
            except OSError:  # the child has gone
                self.end()

    def reply_into(self, out: BinaryIO) -> bool:
        """Append the reply to the last request to `out`; False if the
        worker failed, with `out` untouched."""
        if self.pid is None:
            return False
        try:
            size = int(self.sizes.recv_bytes())
        except (EOFError, OSError):  # the child has gone
            self.end()
            return False
        fd = self.spool.fileno()
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


def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles, as this process loaded it; None where numpy is not loaded or
    no library exports those symbols (MKL, Accelerate, an OpenBLAS under
    other names)."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return None
    # Imported at the first fork, as Pipe is.
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(glob.escape(libs),
                                       "libscipy_openblas64_*.so")):
        try:  # only the copy numpy loaded: RTLD_NOLOAD loads nothing new
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _worker_cpus(count: int) -> list[int | None]:
    """A CPU for each of `count` workers: those this process may run on
    that follow, in a ring, the one it runs on now; None for each where
    affinity cannot be set or there are not more CPUs than workers."""
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [])
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
    reply), `reply` a binary file, and yield round(requests, out), which
    sends requests[i] to worker i for share i, i from 1, serves share 0
    here, and appends the replies to the binary file `out` in share order.

    Each worker is pinned to a CPU of its own, other than the one this
    process runs on, where there are enough. A pipe write wakes its
    reader on the writer's CPU, and the scheduler then tended to keep a
    worker there, so unpinned shares ran one after another in most rounds
    (measured: 1.5 ms of a 3 ms round spent in the request write). This
    process stays unpinned: BLAS threads it starts while pinned would
    keep that one CPU.

    While at least one worker lives, numpy's bundled OpenBLAS runs one
    thread here, and the children inherit that; its own threads would
    share the CPUs with the workers (measured on 2 vCPUs: a stage-3 train
    took 25 s against 0.5 s). The count is restored on leaving, by any
    path.
    """
    workers, threads = [], None

    def round(requests: list[bytes], out: BinaryIO) -> None:
        global _in_share
        for worker, request in zip(workers, requests[1:], strict=True):
            worker.send(request)
        outer, _in_share = _in_share, True
        try:
            serve(requests[0], out)
            for worker, request in zip(workers, requests[1:]):
                if not worker.reply_into(out):
                    serve(request, out)
        finally:
            _in_share = outer

    try:
        if count and (blas := _openblas()) is not None:
            get_threads, set_threads = blas
            threads = get_threads()
            set_threads(1)
        for cpu in _worker_cpus(count):
            workers.append(_Worker())
            workers[-1].start(serve, workers, cpu)
        yield round
    finally:
        for worker in workers:
            worker.end()
        if threads is not None:
            set_threads(threads)


def _in_shares(run: Callable[[list, BinaryIO], None], items: list[object],
               out: BinaryIO) -> None:
    """Call run(share, out) on `items` cut into _share_count(len(items))
    contiguous shares, in share order, `out` being a binary file. The
    items are whatever a share's work is described by: the (start, stop)
    row spans of write_csv_table, one per share, the span numbers of
    read_csv_table or the cells of trainer.sweep.

    One round of forked workers, which inherit the items: the request
    names a share, the reply holds the bytes run wrote for it. `out`
    receives the same bytes for any CPU count when `run` writes the same
    bytes for a list of items as for its parts in turn.
    """
    cuts = _cuts(len(items), _share_count(len(items)))
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    with _workers(len(shares) - 1,
                  lambda request, reply: run(shares[int(request)], reply)
                  ) as round:
        round([b"%d" % i for i in range(len(shares))], out)
