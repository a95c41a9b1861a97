"""Settings shared by the whole suite."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def private_cache(tmp_path_factory):
    """Build the compiled estimator fields (stochwave._native) into a
    temporary cache, never into the user's; children that inherit the
    environment share it."""
    old = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if old is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = old
