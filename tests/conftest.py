"""Every test under tests/ fails on a leaked resource. An unclosed socket or
file warns with a ResourceWarning from its finalizer, which pytest reports
as an unraisable exception; both are errors here. A thread still alive
after the test's fixtures are torn down, such as a send thread that
outlived its round, is an error too. perfbench/ keeps its own settings."""

import threading
import time
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
_MARKS = (pytest.mark.filterwarnings("error::ResourceWarning"),
          pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))
# A thread that has done its work may take a moment to exit; one blocked on
# a socket waits out the channel's timeout, seconds at least.
_EXIT_GRACE_S = 0.5


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in Path(item.path).resolve().parents:
            for mark in _MARKS:
                item.add_marker(mark)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Autouse, so it is set up before and torn down after the test's other
    fixtures, and applies to the tests under this directory only."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + _EXIT_GRACE_S
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail(f"threads left alive: {alive}")
