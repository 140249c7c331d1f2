"""All parallel work in the package forks through one module, shares.py,
which holds the fallbacks and the clean-up of every child. The first
test fails if the calls that make, await or end a child, the pipes it
talks through, the tempfile module its replies go through, or the
multiprocessing package its messages are framed by appear anywhere else
in src/antfis. The others check that the framing carries large messages
and that a command which forks nothing does not import it."""

import ast
import io
import os
import random
import subprocess
import sys
from pathlib import Path

from antfis import shares

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antfis"
HELPER = "shares.py"
OS_CALLS = {"fork", "_exit", "waitpid", "kill", "pipe"}


def is_multiprocessing(module):
    return module is not None and module.split(".")[0] == "multiprocessing"


def is_reference(node):
    """True if `node` names one of OS_CALLS of os, or tempfile, or imports
    multiprocessing."""
    if isinstance(node, ast.Attribute):
        return (node.attr in OS_CALLS and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    if isinstance(node, ast.Name):
        return node.id == "tempfile"
    if isinstance(node, ast.alias):  # import tempfile as ...
        return node.name == "tempfile" and node.asname is not None
    if isinstance(node, ast.Import):
        return any(is_multiprocessing(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "tempfile" or is_multiprocessing(node.module) \
            or (node.module == "os"
                and any(alias.name in OS_CALLS for alias in node.names))
    return False


def references(path):
    """Line of each reference in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if is_reference(node):
            yield node.lineno


def test_processes_fork_only_in_the_share_helper():
    found = {(path.name, line) for path in PACKAGE.glob("*.py")
             for line in references(path)}
    assert any(name == HELPER for name, _ in found)
    assert sorted(ref for ref in found if ref[0] != HELPER) == []


def test_megabyte_messages_round_trip(monkeypatch):
    # a request and a reply past 1 MiB: past a pipe's buffer, and past
    # the 16 KiB from which a message's header and body are written apart
    monkeypatch.setattr(shares, "_cpu_count", lambda: 2)
    requests = [random.Random(i).randbytes((1 << 20) + 1 + i)
                for i in range(2)]
    parent = os.getpid()

    def serve(request, reply):
        # a marker byte at the end says that a worker, not this process,
        # served the request
        reply.write(request[::-1] + request + b"w" * (os.getpid() != parent))

    expected = b"".join(r[::-1] + r for r in requests) + b"w"
    with shares._workers(shares._share_count(2) - 1, serve) as round:
        for _ in range(2):  # a second message on the same pipes
            out = io.BytesIO()
            round(requests, out)
            assert out.getvalue() == expected


def test_cli_import_leaves_multiprocessing_out():
    # the helper imports it at its first fork, so a command that forks
    # nothing does not pay for it
    script = ("import sys, antfis.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'multiprocessing'))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
