"""The package's public names: every name in stochwave.__all__ is bound
on the package, and a star import binds exactly those names, so a
deleted object cannot linger as a stale export."""

import stochwave


def test_every_public_name_resolves_and_star_imports():
    names = stochwave.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(stochwave, n)] == []
    scope = {}
    exec("from stochwave import *", scope)
    assert set(scope) - {"__builtins__"} == set(names)
