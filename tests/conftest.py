"""Suite-wide hypothesis settings: every property draws the same examples on
every run, with no example database and no per-example deadline, so a
failure reproduces as it was reported."""

from hypothesis import settings

settings.register_profile("suite", deadline=None, database=None, derandomize=True)
settings.load_profile("suite")
