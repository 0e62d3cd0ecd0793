"""A wall-clock limit on every test call, so that code that never returns
fails its test instead of stalling the suite.

The limit sits far above the slowest test (about 3 s on a 2-vCPU host), so
only a hang reaches it.  It is a SIGALRM timer, which needs a Unix host and
the main thread; pytest runs each test there.
"""

from __future__ import annotations

import signal

import pytest

TEST_WALL_LIMIT_S = 120


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TEST_WALL_LIMIT_S} s wall limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_WALL_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
