"""Shared test settings: property tests run a fixed, derandomized sample
with no deadline, so a run is repeatable and a slow host cannot fail it.
Without hypothesis installed the suite still runs; the property tests skip."""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "mcislab", derandomize=True, deadline=None, max_examples=100, database=None
    )
    settings.load_profile("mcislab")
