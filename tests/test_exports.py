import importlib
import pkgutil

import pytest

import skillops

MODULES = ["skillops"] + [
    f"skillops.{info.name}" for info in pkgutil.iter_modules(skillops.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name listed in __all__ must exist, so deleting a function cannot
    leave a stale export behind."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what the module lacks: {missing}"
