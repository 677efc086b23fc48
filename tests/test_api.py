import importlib

import pytest

MODULES = ("spectral", "numerics", "rates", "crossover", "lindblad", "oracle",
           "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry left behind by a deletion would go unnoticed by
    # anything that walks __all__ with a default
    module = importlib.import_module("zenolab." + name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
