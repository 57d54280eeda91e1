"""Every test under tests/ fails on a leaked resource. An unclosed socket or
file warns with a ResourceWarning from its finalizer, which pytest reports
as an unraisable exception; both are errors here. perfbench/ keeps its own
settings."""

from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
_MARKS = (pytest.mark.filterwarnings("error::ResourceWarning"),
          pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in Path(item.path).resolve().parents:
            for mark in _MARKS:
                item.add_marker(mark)
