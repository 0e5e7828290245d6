"""The public names: each library module's ``__all__`` lists every public
function and class it defines, and the package exports exactly those."""

import inspect

import pytest

import binform
from binform import beauville, forms, invariants, mpoly

MODULES = (mpoly, forms, invariants, beauville)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_lists_every_public_definition(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__)


def test_package_all_is_the_module_lists():
    expected = [name for m in MODULES for name in m.__all__] + ["__version__"]
    assert binform.__all__ == expected
    assert len(set(expected)) == len(expected)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(binform, name) is getattr(m, name)
