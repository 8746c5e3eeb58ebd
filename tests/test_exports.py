import importlib

import pytest


@pytest.mark.parametrize("package", ["qpdyn", "qpdyn.harness"])
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
