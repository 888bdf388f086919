"""All QHS on a few generators, shared by the test modules.

A plain module rather than a conftest.py helper, so that ``tests`` and
``perfbench/tests`` (which has its own conftest.py) collect in one run.
"""

from functools import lru_cache

from quadsemi.census import enumerate_qhs


@lru_cache(maxsize=None)
def qhs_census(n: int) -> tuple:
    """All QHS on n generators, enumerated once per test session."""
    return tuple(enumerate_qhs(n))
