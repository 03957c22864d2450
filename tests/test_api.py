import importlib
import pkgutil

import pytest

import ultrariesz

SUBMODULES = {
    info.name: importlib.import_module(f"ultrariesz.{info.name}")
    for info in pkgutil.iter_modules(ultrariesz.__path__)
}


def test_package_names_are_unique():
    assert len(ultrariesz.__all__) == len(set(ultrariesz.__all__))


@pytest.mark.parametrize("name", ultrariesz.__all__)
def test_package_name_comes_from_exactly_one_submodule(name):
    owners = [module for module in SUBMODULES.values() if name in getattr(module, "__all__", ())]
    assert len(owners) == 1, [module.__name__ for module in owners]
    assert getattr(ultrariesz, name) is getattr(owners[0], name)
