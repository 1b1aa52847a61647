"""Keeps every test, and every process a test starts, off the user's store of
solved bases (molpol._bases) and off every other test's.

The store lives under $XDG_CACHE_HOME/molpol. A session-wide directory covers
fixtures of a wider scope, which are built before any test's own fixtures;
each test then gets a fresh, empty directory of its own, so no count of dense
solves depends on which test solved the same block before it. Processes a
test starts inherit the variable through the environment.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield


@pytest.fixture(autouse=True)
def empty_cache_home(tmp_path_factory, monkeypatch):
    # beside the test's tmp_path, not in it: tests list what tmp_path holds
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
