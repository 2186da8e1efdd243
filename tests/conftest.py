"""Test configuration shared by every test module.

One hypothesis profile, loaded by default: property tests run the same
examples on every run (derandomized, no example database) and have no
per-example deadline, so a slow machine cannot fail them.  Each test's own
``@settings`` sets only its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("bohrlab", deadline=None, derandomize=True, database=None)
settings.load_profile("bohrlab")
