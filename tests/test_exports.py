import pkgutil

import pytest

import sfp

MODULES = ["sfp"] + [f"sfp.{m.name}" for m in pkgutil.iter_modules(sfp.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a name left in __all__ after its object is gone fails here
    exec(f"from {module} import *", {})
