"""Settings shared by every test module."""

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
