"""Fixtures shared by the test modules."""
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` patches the function `module.<name>` in
    every splitrel module that imported it by name, and in its home module,
    through which it recurses.  It returns the list of the argument tuples
    of each call not made from inside another call of the same function."""

    def install(module, name):
        original = getattr(module, name)
        calls = []
        depth = [0]

        def counting(*args, **kwargs):
            if depth[0] == 0:
                calls.append(args)
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "splitrel" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install
