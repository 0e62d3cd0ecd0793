"""A wall-clock limit on every test call and an address-space limit on the
test process, so that code that never returns, or that grows without end,
fails its test instead of stalling the suite or exhausting the host.

The wall limit sits far above the slowest test (about 3 s on a 2-vCPU
host), so only a hang reaches it.  It is a SIGALRM timer, which needs a Unix
host and the main thread; pytest runs each test there.  The address-space
limit is a soft ``RLIMIT_AS``, lowered at session start and never raised, so
a runaway allocation ends in MemoryError; child processes inherit it.  It
sits far above what the suite needs, and it too needs a Unix host.
"""

from __future__ import annotations

import signal

import pytest

TEST_WALL_LIMIT_S = 120
TEST_ADDRESS_LIMIT_BYTES = 2 << 30


def pytest_sessionstart(session):
    try:
        import resource
    except ImportError:  # not a Unix host
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > TEST_ADDRESS_LIMIT_BYTES:
        # a hard limit below ours would have kept the soft one below it too
        resource.setrlimit(resource.RLIMIT_AS, (TEST_ADDRESS_LIMIT_BYTES, hard))


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
