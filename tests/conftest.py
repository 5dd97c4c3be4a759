"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Fixed example streams and no per-example deadline keep tier-1 reproducible
# on a slow or loaded machine; a test's own @settings still overrides these.
settings.register_profile("pbp", derandomize=True, deadline=None)
settings.load_profile("pbp")
