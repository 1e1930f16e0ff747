"""Settings shared by every test module."""

import io
import sys

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a rerun checks exactly what the previous run checked.
settings.register_profile(
    "flowhazard", derandomize=True, database=None, deadline=None
)
settings.load_profile("flowhazard")


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test that leaves a child process running.  A test that
    never loaded ``multiprocessing`` started none, so it is not loaded
    here either."""
    yield
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        assert multiprocessing.active_children() == []


class _OneByteReads(io.RawIOBase):
    """A binary handle on ``data`` that gives one byte per read, so each
    multibyte UTF-8 character is split across reads."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(memoryview(buffer)[:1])


@pytest.fixture
def one_byte_reads():
    """``one_byte_reads(data)`` is a binary handle that reads ``data``
    one byte at a time."""
    return _OneByteReads


@pytest.fixture
def wrap_scan(monkeypatch):
    """``wrap_scan(transform)`` patches ``survival._breslow_scan`` so that
    each scan's ``(ll, grad, hess, log_s0)`` is passed through
    ``transform(scan, calls)`` and returns the list ``calls``, which holds
    the beta of every scan so far, this one included."""
    from flowhazard import survival

    scan = survival._breslow_scan

    def wrap(transform=lambda result, calls: result):
        calls = []

        def wrapped(blocks, X, beta):
            calls.append(beta.copy())
            return transform(scan(blocks, X, beta), calls)

        monkeypatch.setattr(survival, "_breslow_scan", wrapped)
        return calls

    return wrap
