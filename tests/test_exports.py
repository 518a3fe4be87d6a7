import importlib
import pkgutil

import pytest

import instantform

MODULES = ["instantform"] + [
    f"instantform.{m.name}" for m in pkgutil.iter_modules(instantform.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deletion cannot leave a stale name in a module's __all__."""
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
