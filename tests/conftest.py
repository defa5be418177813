"""Shared fixtures."""

import pytest

from genosc import _cache


@pytest.fixture
def fresh_tables():
    """Empty the table caches before and after a test that patches a table builder,
    so that it reads no table built before the patch and leaves no patched one behind."""
    _cache.clear()
    yield
    _cache.clear()
