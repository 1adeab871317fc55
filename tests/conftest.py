"""Test-wide settings: every property test draws the same examples on every
run, from a seed derived from the test itself, and replays no examples saved
by an earlier run.  A test's own ``@settings`` keeps its ``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
