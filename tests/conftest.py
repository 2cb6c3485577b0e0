"""Test-session settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, with no per-example
# deadline (a loaded machine must not fail them) and no example database
# (a failure found once is not replayed from disk on the next run).
settings.register_profile("franklopt", derandomize=True, deadline=None, database=None)
settings.load_profile("franklopt")
