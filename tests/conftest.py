"""Test-wide settings: every Hypothesis test draws the same examples on every run.

The profile is loaded before the test modules are imported, so each
@settings(...) in them inherits derandomize and keeps its own max_examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
