"""The public names: each library module's ``__all__`` lists every public
function and class it defines, and the package exports exactly those."""

import ast
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


def test_packed_key_fields_are_read_in_mpoly_alone():
    # the packing is mpoly's; the one reader outside it is keyprop's D-pass,
    # beauville._require_invariant, a hot loop over the packed keys
    fields = {"_BITS", "_MASK"}
    for module in (forms, invariants, beauville):
        tree = ast.parse(inspect.getsource(module))
        reads = {node for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id in fields}
        allowed = {node for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name == "_require_invariant"
                   for node in ast.walk(fn)}
        assert reads <= allowed, module.__name__
        assert bool(reads) == (module is beauville)
