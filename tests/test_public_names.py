"""Every exported name exists: `__all__` of each module and the package's re-exports."""

import importlib
import pkgutil

import pytest

import qproj

MODULES = ["qproj"] + ["qproj." + m.name for m in pkgutil.iter_modules(qproj.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_name_in_all(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate names in %s.__all__" % name
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert [n for n in exported if n not in namespace] == []


def test_package_reexports_only_public_names():
    # A name the package imports from a submodule must be in that module's
    # __all__, so a rename or removal cannot leave the two lists disagreeing.
    for attr, value in vars(qproj).items():
        home = getattr(value, "__module__", None)
        if attr.startswith("_") or not (home or "").startswith("qproj."):
            continue
        assert attr in importlib.import_module(home).__all__, (attr, home)
