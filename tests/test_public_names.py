"""Every name a module lists in `__all__` resolves, so a removed function
cannot linger in a module's public list."""
import importlib
import pkgutil

import pytest

import nks3
from nks3 import fixtures

MODULES = sorted(m.name for m in pkgutil.iter_modules(nks3.__path__))


def test_every_module_is_listed():
    assert {"quat", "nkspace", "surface", "hsystem", "fixtures", "io", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nks3.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert module.__all__ and not missing


def test_fixtures_public_names():
    # named fixtures are built only through make_fixture
    assert fixtures.__all__ == [
        "FIXTURE_NAMES", "POLE_MARGIN", "make_fixture", "non_adapted_grid",
        "SPHERE_RADIUS", "CYLINDER_RADIUS",
    ]
