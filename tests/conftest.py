"""Shared test helpers."""

import contextlib
import signal

import pytest


class _Hang(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Raise _Hang in the block if it runs longer than `seconds`."""

    def expire(signum, frame):
        raise _Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """`with deadline(seconds):` fails the test with _Hang if the block
    runs longer than `seconds`."""
    return _deadline
