import ctypes

import pytest


def _has_mallinfo2() -> bool:
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        return False
    return True


_HAS_MALLINFO2 = _has_mallinfo2()


def pytest_runtest_setup(item):
    if item.get_closest_marker("glibc") and not _HAS_MALLINFO2:
        pytest.skip("needs glibc's mallinfo2")
