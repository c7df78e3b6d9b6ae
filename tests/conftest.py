"""Fixtures shared by the test modules."""

import pytest

from wignerlab import scenarios


@pytest.fixture
def fresh_frames():
    """Rebuild the cached protocol frames inside the test, and drop what it built afterwards."""
    scenarios.build_pm_frame.cache_clear()
    scenarios.build_hardy_frame.cache_clear()
    yield
    scenarios.build_pm_frame.cache_clear()
    scenarios.build_hardy_frame.cache_clear()
