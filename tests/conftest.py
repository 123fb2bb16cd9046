"""Suite-wide test settings."""

from hypothesis import settings

# the same examples on every run, and no deadline, since a test's speed varies with the host's load
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
