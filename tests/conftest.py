"""One hypothesis profile for the suite: the same examples on every run and machine."""

from hypothesis import settings

settings.register_profile("discweil", derandomize=True, deadline=None, database=None)
settings.load_profile("discweil")
