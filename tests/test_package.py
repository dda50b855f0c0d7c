"""The package's public names: one list per module, re-exported whole."""

import dephasim
from dephasim import bath, dynamics, entanglement, errors, experiments

MODULES = (bath, dynamics, entanglement, errors, experiments)


def test_all_is_the_sorted_union_of_the_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert dephasim.__all__ == sorted(names)


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dephasim, name) is getattr(module, name)
            assert getattr(module, name).__module__ == module.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dephasim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == dephasim.__all__
