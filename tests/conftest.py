"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a rerun checks exactly what the previous run checked.
settings.register_profile(
    "flowhazard", derandomize=True, database=None, deadline=None
)
settings.load_profile("flowhazard")
