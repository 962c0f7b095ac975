"""Shared pytest set-up: hypothesis runs derandomized, so every run of the
suite draws the same examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
