import pytest

import toys


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a child of the test process running or
    unreaped, such as the edge pass's forked worker."""
    yield
    left = toys.live_children()
    assert not left, f"child processes left running: {left}"
