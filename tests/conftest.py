import pytest

from comex import walk_kernel


@pytest.fixture
def native_walk():
    """The native walk kernel; the test is skipped where it cannot be built."""
    library = walk_kernel.load()
    if library is None:
        pytest.skip("the native walk kernel cannot be built here")
    return library


@pytest.fixture
def python_walk(monkeypatch):
    """Force the Python twins (update, walks, contamination stage loop), the
    kernel's reference and fallback."""
    monkeypatch.setattr(walk_kernel, "load", lambda: None)


@pytest.fixture(params=["native_walk", "python_walk"])
def walk_path(request):
    """Each path in turn: the native kernel, then the Python twins."""
    return request.getfixturevalue(request.param)
