"""The public names: each library module's ``__all__`` lists every public
function and class it defines, and the package exports exactly those."""

import ast
import inspect
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def test_the_overflow_rule_is_mpolys_alone():
    # every product over packed keys is checked by mpoly._addmul, so no
    # other module bounds a degree itself
    for module in (forms, invariants, beauville):
        tree = ast.parse(inspect.getsource(module))
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & {"_check_degree", "_max_degree"}, module.__name__
    assert not hasattr(mpoly, "_max_degree")


HUGE = 10 ** 5000   # past Python's default limit of 4300 printed digits


@pytest.mark.parametrize("call, error, text", [
    (lambda: mpoly.MPoly.variable("x") ** HUGE, OverflowError,
     "total degree a 16610-bit int exceeds the supported maximum 65535"),
    (lambda: invariants.graded_dimension(-HUGE), ValueError,
     "degree must be a positive multiple of 4, got a negative 16610-bit int"),
    (lambda: beauville.thm48_decompose((HUGE + 1, 0, 0)), ValueError,
     "degree 12*a1 + 8*a2 + 4*a3 = a 16614-bit int is not divisible by 48"),
    (lambda: forms.weight_of(HUGE, 5, 1), ValueError,
     "no covariant of degree a 16610-bit int, order 1 on a form of order 5"),
    (lambda: forms.transvectant(forms.BinaryForm([1, 2]),
                                forms.BinaryForm([1, 2]), HUGE), ValueError,
     "transvectant index a 16610-bit int out of range for orders 1,1"),
    (lambda: beauville.JKLPolynomial({(-HUGE, 0, 0): 1}), ValueError,
     "exponent a1 must be nonnegative, got a negative 16610-bit int"),
    (lambda: beauville.JKLPolynomial(HUGE), TypeError,
     "terms must be a mapping, not int"),
    (lambda: mpoly.MPoly(("x",), [((HUGE,), 2)]), TypeError,
     "terms must be a mapping, not list"),
    (lambda: mpoly.MPoly(("x", "y"), [((HUGE, 0), 2)]), TypeError,
     "terms must be a mapping, not list"),
], ids=["pow", "graded_dimension", "thm48_decompose", "weight_of",
        "transvectant", "JKLPolynomial", "JKLPolynomial_terms",
        "MPoly_pairs", "MPoly_pairs_of_pairs"])
def test_refusals_print_any_value(call, error, text):
    # an int too long to print is shown by its size, so the refusal keeps
    # its own type and text, which names the argument
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(error) as caught:
            call()
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(caught.value) == text


def test_exact_value_records_share_one_rule():
    # equality and hashing come from mpoly._Record alone; BeauvilleVector
    # keeps its own list repr, SylvesterPoint its positional one, and
    # GroupElement, BinaryForm and JKLPolynomial theirs (their own tests)
    for cls in (invariants.QuarticInvariants, invariants.InvariantVector,
                beauville.BeauvilleVector, invariants.SylvesterPoint,
                forms.GroupElement, forms.BinaryForm,
                beauville.JKLPolynomial, beauville.TschirnhausTrace):
        assert issubclass(cls, mpoly._Record)
        assert not {"__eq__", "__hash__"} & set(vars(cls)), cls.__name__
    quartic = invariants.QuarticInvariants(1, 2)
    assert quartic == invariants.QuarticInvariants(1, 2)
    assert quartic != invariants.QuarticInvariants(1, 3)
    assert quartic != beauville.BeauvilleVector([1, 2, 0, 0, 0, 0])
    assert quartic.__eq__((1, 2)) is NotImplemented
    point = invariants.SylvesterPoint(1, 2, 3)
    assert point == invariants.SylvesterPoint(1, 2, 3)
    assert hash(point) == hash(invariants.SylvesterPoint(1, 2, 3))
    assert point != invariants.SylvesterPoint(1, 2, 4)
    assert point != invariants.QuarticInvariants(1, 2)
    assert repr(point) == ("SylvesterPoint(Fraction(1, 1), Fraction(2, 1),"
                           " Fraction(3, 1))")
    symbolic = invariants.SylvesterPoint.symbolic()
    assert symbolic == invariants.SylvesterPoint.symbolic()
    assert repr(symbolic) \
        == "SylvesterPoint(MPoly('u'), MPoly('v'), MPoly('w'))"
    g = forms.GroupElement(1, Fraction(1, 2), -3, 2)
    assert g == forms.GroupElement(Fraction(2, 2), Fraction(1, 2), -3, 2)
    assert hash(g) == hash(forms.GroupElement(1, Fraction(1, 2), -3, 2))
    assert g != forms.GroupElement(1, 0, -3, 2)
    x = mpoly.MPoly.variable("x")
    form = forms.BinaryForm([1, x, Fraction(1, 2)])
    wider = forms.BinaryForm([1, x.in_universe(("x", "y")), Fraction(2, 4)])
    assert form == wider and hash(form) == hash(wider)
    assert form != forms.BinaryForm([1, x])
    assert form.__eq__([1, x, Fraction(1, 2)]) is NotImplemented
    quintic = [1, 2, 0, -1, 3, 1]
    chain = invariants.quintic_covariants(forms.BinaryForm(quintic))
    assert hash(chain) == hash(
        invariants.quintic_covariants(forms.BinaryForm(quintic)))
    # the terms are kept in items() order, so insertion order is not hashed
    jkl = beauville.JKLPolynomial({(0, 0, 6): 1, (2, 0, 0): Fraction(1, 2)})
    same = beauville.JKLPolynomial({(2, 0, 0): Fraction(2, 4), (0, 0, 6): 1})
    assert jkl == same and hash(jkl) == hash(same)
    assert list(jkl.terms) == [(2, 0, 0), (0, 0, 6)]
    _, trace = beauville.beauville_pipeline(
        forms.BinaryForm([1, 0, 0, 0, 0, 1]))
    assert repr(trace).startswith("TschirnhausTrace(q_coeffs=(Fraction(1, 1),")
    assert ", r_bar=MPoly(" in repr(trace)


@pytest.mark.parametrize("other", [None, 1.5, True, "x"],
                         ids=["None", "float", "bool", "str"])
@pytest.mark.parametrize("value", [
    mpoly.MPoly.variable("x"), beauville.JKLPolynomial({(0, 0, 1): 1})],
    ids=["MPoly", "JKLPolynomial"])
def test_foreign_operands(value, other):
    # neither type takes a foreign operand: arithmetic raises TypeError
    # and == is False, both sides
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(value, other)
        with pytest.raises(TypeError):
            op(other, value)
    assert value.__eq__(other) is NotImplemented
    assert (value == other) is False and (other == value) is False
    assert mpoly._coerce(other) is NotImplemented


def test_imports_need_only_the_standard_library():
    # a fresh interpreter: the modules that importing binform and its CLI
    # adds are binform's own or the standard library's.  Those loaded
    # before the import, such as the ones site hooks preload, do not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import binform, binform.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    src = str(Path(binform.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    added = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "binform" in added
    assert added - {"binform"} <= sys.stdlib_module_names


def public_options():
    """Every parameter with a default of the callables in binform.__all__
    and of the public methods and classmethods of the exported classes,
    as 'name(parameter=default)'."""
    options = []
    for name in binform.__all__:
        obj = getattr(binform, name)
        if not callable(obj):
            continue
        targets = [(name, obj)]
        if inspect.isclass(obj):
            targets += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr, value in vars(obj).items()
                        if not attr.startswith("_")
                        and (inspect.isfunction(value)
                             or isinstance(value, (classmethod,
                                                   staticmethod)))]
        for label, target in targets:
            for param in inspect.signature(target).parameters.values():
                if param.default is not param.empty:
                    options.append(f"{label}({param.name}={param.default!r})")
    return options


def test_public_options_are_pinned():
    # a new option anywhere in the public API shows up as an edit here
    assert sorted(public_options()) == sorted([
        "generic_form(prefix='a')",
        "verify_disc(seed=0)",
    ])
