"""Shared fixtures for the test suite."""

import gc
import os
import threading
import time

import pytest

#: seconds a filter thread already told to stop may take to exit
_EXIT_GRACE_S = 5.0


def filter_threads() -> list[threading.Thread]:
    """The DataCutter runtime's live filter threads (``dc-<filter>#<i>``)."""
    return [t for t in threading.enumerate() if t.name.startswith("dc-")]


@pytest.fixture(autouse=True, scope="session")
def no_filter_graph_outlives_the_suite():
    """Every graph must stop: at the end of the session, with every engine
    unreachable and collected, no filter thread may be alive.  An engine
    keeps its graph parked only while its session is open; collecting the
    engine winds the graph down."""
    yield
    gc.collect()
    deadline = time.monotonic() + _EXIT_GRACE_S
    for thread in filter_threads():
        thread.join(max(deadline - time.monotonic(), 0.0))
    alive = sorted(t.name for t in filter_threads())
    if alive:
        pytest.fail(f"{len(alive)} filter threads outlived the suite: "
                    + ", ".join(alive[:12]), pytrace=False)


@pytest.fixture
def protocol_checkers(monkeypatch):
    """Force the runtime protocol checkers on for one test.

    Engines and runtimes constructed inside the test behave as under
    ``DOOC_CHECKERS=1``: lock acquisitions are recorded and every ticket
    grant is audited.
    """
    monkeypatch.setenv("DOOC_CHECKERS", "1")
    return True


def pytest_report_header(config):
    flag = os.environ.get("DOOC_CHECKERS", "")
    return f"DOOC_CHECKERS={flag or '0'} (runtime protocol checkers)"
