"""Tier-1 runs the same Hypothesis examples every time.

The ``tier1`` profile derandomizes every property: each test draws its
examples from a seed derived from the test itself, and no example
database is read or written, so whether the suite catches a defect does
not vary from run to run.  Example counts stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
