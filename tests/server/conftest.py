"""Shared fixtures for the server suites."""

import threading

import pytest

READER_THREAD = "nnexus-client-reader"


def _readers() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name == READER_THREAD}


@pytest.fixture(autouse=True)
def no_leaked_client_readers():
    """Fail any test that leaves a client reader thread alive.

    A reader outliving its test means a client was never closed, or
    ``close()`` failed to wake the reader out of ``recv``; either way
    the connection stays half-open until the server's idle timeout.
    """
    before = _readers()
    yield
    leaked = _readers() - before
    assert not leaked, f"test left {len(leaked)} {READER_THREAD} thread(s) alive"
