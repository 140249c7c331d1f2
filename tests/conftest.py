import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test after which this process still has a child, running
    or unreaped: every forked worker must be reaped by the code that
    made it."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test: "
                + ("still running" if pid == 0 else f"pid {pid} unreaped"))
