"""Sparse multivariate polynomial arithmetic over exact rationals.

Terms live in a dict keyed by a packed integer encoding of the exponent
vector.  The packing puts the total degree in the top field and the
exponents below it, most significant variable first, so that ordinary
integer comparison of keys realises the graded lexicographic monomial
order: leading-term extraction is ``max`` over the key set, and printing
in canonical order is a single sort.  Each exponent field is 16 bits wide,
so a total degree above 65535 raises OverflowError.

Coefficients are exact rationals, stored as FLINT's ``fmpq_poly`` stores
them: nonzero ints over one positive int denominator coprime to their
content.  ``MPoly._make`` builds every result in that canonical form, so
equal polynomials have equal terms and denominators, and every product
runs on the stored ints.  ``terms()`` gives each coefficient back as an
``int`` where the denominator divides it and a ``Fraction`` otherwise.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence, Union

__all__ = [
    "MPoly", "det_fraction_free", "format_poly", "monic_divrem",
]

Scalar = Union[int, Fraction]

_BITS = 16
_MASK = (1 << _BITS) - 1


def _shown(x) -> str:
    """repr(x), or an int or Fraction too long to print as its size."""
    try:
        return repr(x)
    except ValueError:
        bits = max(abs(x.numerator), x.denominator).bit_length()
        return f"a {'negative ' * (x < 0)}{bits}-bit {type(x).__name__}"


def _check_degree(degree: int) -> None:
    # every exponent is at most the total degree, so this keeps each one
    # inside its field
    if degree > _MASK:
        raise OverflowError(f"total degree {_shown(degree)} exceeds the"
                            f" supported maximum {_MASK}")


def _int_exponent(e, what: str = "exponent") -> int:
    """An exponent, or another int argument named by ``what``, as an int;
    anything else, a bool or a float included, raises TypeError."""
    if isinstance(e, bool) or not isinstance(e, int):
        raise TypeError(f"{what} {_shown(e)} is not an int")
    return e


def _vector_degree(exps, n: int) -> int:
    """The total degree of an exponent vector: a tuple of n ints, none
    negative, whose sum fits the degree field."""
    if not isinstance(exps, tuple):
        raise TypeError(f"term key {exps!r} is not an exponent vector")
    if len(exps) != n:
        raise ValueError("exponent vector length mismatch")
    if any(_int_exponent(e) < 0 for e in exps):
        raise ValueError("negative exponent")
    degree = sum(exps)
    _check_degree(degree)
    return degree


def _addmul(acc: dict, f: dict, g: dict, sign=1, vs=()) -> dict:
    """Add sign * f * g into the raw term dict acc in place and return acc;
    sign is any int, such as -1 or a weight of a sum of products.  The
    values may be any ring elements (``BinaryForm.__mul__`` passes
    Fractions and MPolys); every hot caller passes ints.  A product past
    the degree field of vs, the universe packing the keys, raises before
    any term is made: the one overflow rule.  Unpacked keys pass vs = ().

    The smaller operand is looped over on the outside.  Zero coefficients
    stay in acc for the caller to prune.
    """
    if vs and f and g:
        dsh = len(vs) * _BITS
        if (max(f) >> dsh) + (max(g) >> dsh) > _MASK:
            _check_degree((max(f) >> dsh) + (max(g) >> dsh))
    if len(f) > len(g):
        f, g = g, f
    get = acc.get
    for ka, ca in f.items():
        if sign != 1:
            ca *= sign
        for kb, cb in g.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _split(terms: dict, sh: int, dsh: int) -> dict:
    """Int terms, with their degree field at shift dsh, grouped by their
    exponent e in the variable at shift sh: e -> the cofactors of that
    variable**e, in the same universe."""
    split: dict = {}
    for k, c in terms.items():
        e = (k >> sh) & _MASK
        split.setdefault(e, {})[k - (e << sh) - (e << dsh)] = c
    return split


def _shift(vs: tuple, var: str) -> int:
    """The shift of var's field in a key over the sorted universe vs."""
    if var not in vs:
        raise ValueError(f"unknown variable: {var!r}")
    return (len(vs) - 1 - vs.index(var)) * _BITS


def _unit(vs: tuple, var: str) -> int:
    """The key of var over vs: one unit in its field and the degree's."""
    return (1 << _shift(vs, var)) | (1 << len(vs) * _BITS)


def _coefficient_terms(terms: dict, vs: tuple, var: str) -> tuple:
    """vs without var, and the int term dicts over it of var**0, var**1,
    ... up to the terms' degree in var, from one pass over the terms."""
    rest = tuple(v for v in vs if v != var)
    split = _split(terms, _shift(vs, var), len(vs) * _BITS)
    return rest, [_remap_terms(split.get(e, {}), vs, rest)
                  for e in range(max(split, default=-1) + 1)]


def _scaled(terms: dict, s: int) -> dict:
    """A new dict of the int terms times the int s."""
    return dict(terms) if s == 1 else {k: c * s for k, c in terms.items()}


def _product(f: dict, g: dict) -> dict:
    """f * g as a new int term dict; ``_addmul`` is looked up at each call."""
    return _addmul({}, f, g)


def _monomials(exponents, bases, one=1, mul=operator.mul) -> list:
    """The product of bases[s] ** e[s] for each exponent tuple e, with
    ``one`` and ``mul`` the bases' unit and product: the one power routine.
    A power is made once, when first asked for: times the base when the
    power below it is made, else from the halves e // 2 and e - e // 2
    (Knuth, TAOCP Vol. 2, 4.6.3).  So each distinct exponent costs one
    product, and a lone e about log2 e.  A result may be a base or a made
    power itself: callers only read it."""
    powers = [{1: base} for base in bases]  # e -> bases[s] ** e, e >= 1
    out = []
    for exps in exponents:
        monomial = None
        for pw, e in zip(powers, exps):
            if not e:
                continue
            todo = [] if e in pw else [e]   # a stack, not recursion
            while todo:
                d = todo.pop()
                # d - 1 and the base when d - 1 is made, else d's two halves
                lo = d - 1 if d - 1 in pw else d // 2
                if d not in pw and lo in pw and d - lo in pw:
                    pw[d] = mul(pw[lo], pw[d - lo])
                elif d not in pw:
                    todo += (d, d - lo, lo)     # lo is made first
            monomial = pw[e] if monomial is None else mul(monomial, pw[e])
        out.append(one if monomial is None else monomial)
    return out


def _as_fraction(x) -> Fraction:
    """An int or a Fraction as a Fraction; anything else, a str, bool or
    float included, raises TypeError: the library's one rule for numbers."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _cleared(values) -> tuple:
    """Ints or Fractions as ints over the lcm d of their denominators, and
    d; anything else raises TypeError, as in ``_as_fraction``."""
    values = [x if type(x) is int else _as_fraction(x) for x in values]
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _universe(entries) -> tuple:
    """The sorted union of the universes of the MPolys among entries."""
    return tuple(sorted({v for e in entries if isinstance(e, MPoly)
                         for v in e._vars}))


def _mentions(entries, var: str) -> bool:
    """Whether var occurs in a term of an MPoly among entries: a universe
    may also name variables that no term uses."""
    return any(isinstance(e, MPoly) and var in e._vars and e.degree(var) > 0
               for e in entries)


def _int_terms(entries: Sequence, vs: tuple) -> tuple:
    """Numbers and MPolys over part of the sorted universe vs, as new int
    term dicts over vs times the lcm d of their denominators, and d: a
    number n becomes {0: n d}, and a zero {}.  Anything else raises
    TypeError, as in ``_as_fraction``."""
    entries = [e if type(e) is int or isinstance(e, MPoly)
               else _as_fraction(e) for e in entries]
    d = lcm(*(e._den if isinstance(e, MPoly) else e.denominator
              for e in entries))
    return [_scaled(_remap_terms(e._terms, e._vars, vs), d // e._den)
            if isinstance(e, MPoly)
            else {0: e.numerator * (d // e.denominator)} if e else {}
            for e in entries], d


class MPoly:
    """A sparse multivariate polynomial over the rationals."""

    __slots__ = ("_vars", "_terms", "_den", "_n")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple, Scalar]):
        """Terms map exponent vectors, in the order of ``variables``, to
        ints or Fractions; the stored universe is sorted."""
        if isinstance(variables, str):
            raise TypeError(f"universe {variables!r} is a str, not a sequence")
        if not isinstance(terms, Mapping):
            raise TypeError(
                f"terms must be a mapping, not {type(terms).__name__}")
        names = tuple(variables)
        for v in names:     # the one name rule: identifiers print as such
            if not isinstance(v, str):
                raise TypeError(f"variable name {v!r} is not a str")
            if not re.fullmatch(r"[A-Za-z_]\w*", v):
                raise ValueError(f"bad variable name: {v!r}")
        vs = tuple(sorted(names))
        n = len(vs)
        if len(set(vs)) != n:
            raise ValueError("variable universe must be duplicate-free")
        # each given name's field in the packing over the sorted universe
        shifts = [_shift(vs, v) for v in names]
        keys = []
        for exps in terms:
            degree = _vector_degree(exps, n)
            keys.append(sum(e << sh for e, sh in zip(exps, shifts))
                        + (degree << (n * _BITS)))
        ints, den = _cleared(terms.values())
        # distinct vectors pack to distinct keys
        self._set(vs, dict(zip(keys, ints)), den)

    def _set(self, vs: tuple, terms: dict, den: int) -> "MPoly":
        # the canonical form: zero terms pruned, gcd(den, content) divided out
        if not all(terms.values()):
            terms = {k: c for k, c in terms.items() if c}
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
        self._vars = vs
        self._n = len(vs)
        self._terms = terms
        self._den = den
        return self

    @classmethod
    def _make(cls, vs: tuple, terms: dict, den: int = 1) -> "MPoly":
        """The int terms over the positive int den in the sorted universe
        vs, canonical; the dict is taken, not copied."""
        return object.__new__(cls)._set(vs, terms, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return cls((name,), {(1,): 1})

    # -- introspection -----------------------------------------------------

    @property
    def variables(self) -> tuple:
        return self._vars

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _unpack(self, key: int) -> tuple:
        n = self._n
        return tuple((key >> ((n - 1 - i) * _BITS)) & _MASK for i in range(n))

    def terms(self) -> Iterator[tuple]:
        """Yield (exponent_vector, coefficient) in descending graded-lex order."""
        for key in sorted(self._terms, reverse=True):
            c = self._terms[key]
            q, r = divmod(c, self._den)
            yield self._unpack(key), Fraction(c, self._den) if r else q

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms) >> (self._n * _BITS)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        sh = _shift(self._vars, var)
        if not self._terms:
            return -1
        return max((k >> sh) & _MASK for k in self._terms)

    def coefficients(self, var: str) -> list:
        """The coefficients of var**0 .. var**deg over the remaining
        variables, from one pass over the terms."""
        rest, parts = _coefficient_terms(self._terms, self._vars, var)
        return [MPoly._make(rest, part, self._den) for part in parts]

    def coefficient(self, var: str, power: int) -> "MPoly":
        """The coefficient of var**power over the remaining variables, zero
        outside 0 .. deg: one pass over the terms, one part re-packed."""
        rest = tuple(v for v in self._vars if v != var)
        split = _split(self._terms, _shift(self._vars, var), self._n * _BITS)
        return MPoly._make(rest, _remap_terms(
            split.get(_int_exponent(power), {}), self._vars, rest), self._den)

    def _is_homogeneous(self, degree: int) -> bool:
        """Whether every term has total degree ``degree``."""
        dsh = self._n * _BITS
        return all(k >> dsh == degree for k in self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0], self._den)
        raise ValueError("polynomial is not constant")

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: "MPoly") -> tuple:
        if self._vars == other._vars:
            return self._vars, self._terms, other._terms
        union = tuple(sorted(set(self._vars) | set(other._vars)))
        return (union,
                _remap_terms(self._terms, self._vars, union),
                _remap_terms(other._terms, other._vars, union))

    def in_universe(self, variables: Sequence[str]) -> "MPoly":
        """The same polynomial re-expressed over a universe holding every
        variable that its terms use; a name that no term uses may go."""
        vs = MPoly(variables, {})._vars     # checks every name
        if vs == self._vars:
            return self
        if any(_mentions((self,), v) for v in set(self._vars) - set(vs)):
            raise ValueError("universe does not contain all variables")
        return MPoly._make(vs, _remap_terms(self._terms, self._vars, vs),
                           self._den)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vs, f, g = self._aligned(other)
        # both operands over the lcm of their denominators
        den = lcm(self._den, other._den)
        out = _scaled(f, den // self._den)
        get = out.get
        s = den // other._den
        for k, c in g.items():
            out[k] = get(k, 0) + c * s
        return MPoly._make(vs, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return MPoly._make(self._vars, {k: -c for k, c in self._terms.items()},
                           self._den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vs, f, g = self._aligned(other)
        return MPoly._make(vs, _addmul({}, f, g, 1, vs),
                           self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, MPoly):
            raise TypeError("use monic_divrem for polynomial division")
        c = _as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division by zero")
        # times q / p, the sign of p moved into the terms
        q = c.denominator if c > 0 else -c.denominator
        return MPoly._make(self._vars, _scaled(self._terms, q),
                           self._den * abs(c.numerator))

    def __pow__(self, exponent: int):
        if _int_exponent(exponent) < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _check_degree(self.total_degree() * exponent)  # -1 when zero
        power, = _monomials([(exponent,)], [self._terms], {0: 1}, _product)
        return MPoly._make(self._vars, power, self._den ** exponent)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _, f, g = self._aligned(other)
        return self._den == other._den and f == g

    def __hash__(self):
        # as __eq__ compares: over the variables in use, a constant as such
        vs = tuple(v for v in self._vars if self.degree(v) > 0)
        if not vs:
            return hash(Fraction(self._terms.get(0, 0), self._den))
        return hash((vs, self._den, frozenset(
            _remap_terms(self._terms, self._vars, vs).items())))

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> "MPoly":
        """Partial derivative; the variable must be in the universe."""
        sh = _shift(self._vars, var)
        dsh = self._n * _BITS
        out: dict = {}
        for k, c in self._terms.items():
            e = (k >> sh) & _MASK
            if e:
                out[k - (1 << sh) - (1 << dsh)] = c * e
        return MPoly._make(self._vars, out, self._den)

    def substitute(self, bindings: Mapping[str, object]) -> "MPoly":
        """Simultaneous substitution of polynomials (or scalars) for variables.

        Bindings for variables outside the universe are inert.  Unbound
        variables pass through unchanged: the result's universe, the zero
        polynomial's too, is theirs and the images'.  Each bound variable v
        takes one pass: the terms are split by their exponent e in v, as
        ``coefficients`` splits them.  Every part's degree is checked, then
        each part, in increasing e, is multiplied once by the e-th power of
        v's image from ``_monomials``.
        Everything runs on the stored ints: an image over d != 1, for a v of
        degree D, scales the part of exponent e by d**(D - e), and the
        result's denominator by d**D.  Scalars and 0 go first, as they only lower
        degrees, then the images by their number of terms, fewest first.
        No term is pruned between passes, so each part's degree check
        covers every term, cancelled or not.  When an image mentions a
        bound variable, the bound variables are first renamed apart.
        """
        bound = {v: b if isinstance(b, MPoly) else MPoly((), {(): b})
                 for v, b in bindings.items() if v in self._vars}
        if not bound:
            return self
        if not self._terms:
            return MPoly(set(self._vars).difference(bound).union(
                *(b._vars for b in bound.values())), {})
        names = set(self._vars).union(*(b._vars for b in bound.values()))
        if any(v in bound for b in bound.values() for v in b._vars):
            # the bound names are in use, so u is a nonempty run of _
            u = _apart(bound, names)
            renamed = self.substitute(
                {v: MPoly.variable(v + u) for v in bound})
            return renamed.substitute({v + u: b for v, b in bound.items()})
        # one universe for every pass: the bound variables leave it at the end
        vs = tuple(sorted(names))
        dsh = len(vs) * _BITS
        terms, den = _remap_terms(self._terms, self._vars, vs), self._den
        for v, b in sorted(bound.items(), key=lambda vb: (
                vb[1].total_degree() > 0, len(vb[1]))):
            # a binding to 0 keeps its keys, with coefficient 0
            image = _remap_terms(b._terms, b._vars, vs) or {0: 0}
            grow = max(b.total_degree(), 0)
            split = _split(terms, _shift(vs, v), dsh)
            es = sorted(split)  # increasing, so dense powers step up by one
            _check_degree(max((max(split[e]) >> dsh) + e * grow for e in es))
            terms = {}
            for e, power in zip(es, _monomials([(e,) for e in es], [image],
                                               {0: 1}, _product)):
                _addmul(terms, split[e], power, b._den ** (es[-1] - e))
            den *= b._den ** es[-1]
        keep = tuple(v for v in vs if v not in bound)
        return MPoly._make(keep, _remap_terms(terms, vs, keep), den)

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation at rational values for every variable."""
        missing = [v for v in self._vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        return self.substitute(values).constant_value()

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MPoly({format_poly(self)!r})"


def _coerce(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return MPoly._make((), {0: x.numerator}, x.denominator)
    return NotImplemented


def _as_exact(x):
    """A number or a constant MPoly as a Fraction, any other MPoly as it
    is; anything else raises TypeError, as in ``_as_fraction``."""
    if isinstance(x, MPoly):
        return x.constant_value() if x.total_degree() <= 0 else x
    return _as_fraction(x)


def _apart(names, used) -> str:
    """The shortest run of _, empty included, that appended to each of
    names makes no name in used: the one rule for renaming apart."""
    u = ""
    while any(v + u in used for v in names):
        u += "_"
    return u


class _Record:
    """An exact-value record over the fields named by its ``__slots__``:
    equal to another record of the same type with equal fields, hashed on
    the type name and the fields' values (a dict field by its items), and
    shown with its fields named."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__, *(
            frozenset(f.items()) if isinstance(f, dict) else f
            for f in self._fields())))

    def __repr__(self):
        parts = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({parts})"


@lru_cache(maxsize=64)
def _remap_table(old: tuple, new: tuple) -> tuple:
    """The moves that re-pack a key of universe ``old`` into universe
    ``new``: one (old shift, mask, new shift) per run of fields adjacent in
    both packings.  Both universes are sorted, so the shared variables
    keep their order, and the degree field moves with the first run."""
    # field f of a universe of n variables sits at shift (n - f) * _BITS:
    # the degree is field 0 and variable i is field i + 1
    pos = {v: f for f, v in enumerate(new, 1)}
    runs = [[0, 0, 1]]  # [first old field, first new field, length]
    for f, v in enumerate(old, 1):
        g = pos.get(v)
        if g is None:
            continue
        f0, g0, n = runs[-1]
        if (f0 + n, g0 + n) == (f, g):
            runs[-1][2] += 1
        else:
            runs.append([f, g, 1])
    n_old, n_new = len(old), len(new)
    return tuple(((n_old - f - n + 1) * _BITS, (1 << (n * _BITS)) - 1,
                  (n_new - g - n + 1) * _BITS) for f, g, n in runs)


def _remap_key(key: int, table: tuple) -> int:
    """The key re-packed by the moves of a ``_remap_table``."""
    out = 0
    for old_shift, mask, new_shift in table:
        out |= ((key >> old_shift) & mask) << new_shift
    return out


def _remap_terms(terms: dict, old: tuple, new: tuple) -> dict:
    if old == new:
        return terms
    table = _remap_table(old, new)
    return {_remap_key(k, table): c for k, c in terms.items()}


def _rehomogenize(poly: MPoly, var: str, total_degree: int) -> MPoly:
    """Insert ``var`` so every term reaches the given total degree."""
    if var in poly._vars:
        raise ValueError(f"variable {var!r} already present")
    _check_degree(total_degree)
    target = tuple(sorted(poly._vars + (var,)))
    table = _remap_table(poly._vars, target)
    unit = _unit(target, var)
    dsh = poly._n * _BITS
    out = {}
    for k, c in poly._terms.items():
        gap = total_degree - (k >> dsh)
        if gap < 0:
            raise ValueError("term degree exceeds homogenization target")
        out[_remap_key(k, table) + gap * unit] = c
    return MPoly._make(target, out, poly._den)


# -- canonical text format -------------------------------------------------

def format_poly(f: MPoly) -> str:
    """Canonical text: the terms in descending graded-lex order joined by
    `` + `` or `` - ``, each an int or ``p/q`` coefficient (left out when 1)
    and ``*``-joined powers ``v^e``; the zero polynomial is ``0``."""
    if not f._terms:
        return "0"
    pieces = []
    for exps, c in f.terms():
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(f._vars, exps) if e)
        neg = c < 0
        a = -c if neg else c
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        pieces.append((neg, body))
    first_neg, first = pieces[0]
    out = [("-" if first_neg else "") + first]
    for neg, body in pieces[1:]:
        out.append((" - " if neg else " + ") + body)
    return "".join(out)


# -- univariate-style division --------------------------------------------

def monic_divrem(f: MPoly, g: MPoly, var: str) -> tuple:
    """Euclidean division of f by g with respect to ``var``.

    g must be monic in ``var``: its leading coefficient, a polynomial in
    the remaining variables, must be the constant 1.  Returns (q, r) with
    f == q*g + r and deg_var(r) < deg_var(g); a thin wrapper over ``_divrem``.
    """
    if not isinstance(f, MPoly) or not isinstance(g, MPoly):
        raise TypeError("monic_divrem expects MPoly operands")
    vs, ft, gt = f._aligned(g)
    if not gt:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r, s = _divrem(ft, gt, g._den, vs, var)
    return MPoly._make(vs, q, f._den * s), MPoly._make(vs, r, f._den * s)


def _divrem(ft: dict, gt: dict, b: int, vs: tuple, var: str) -> tuple:
    """Division of the int terms ft by gt over vs, gt / b monic in var:
    q, r and s with s ft == q gt / b + r, for the int s that scales the
    remainder whenever b does not divide its leading part."""
    sh, dsh, unit = _shift(vs, var), len(vs) * _BITS, _unit(vs, var)
    rs, gs = _split(ft, sh, dsh), _split(gt, sh, dsh)
    dg = max(gs)
    if gs.pop(dg) != {0: b}:
        raise ValueError(f"divisor is not monic in {var!r}")
    dgt = max(gt) >> dsh
    s, q = 1, {}
    for d in range(max(rs, default=-1) - dg, -1, -1):
        # the quotient's part at var**d clears r's part at var**(d + dg)
        lead = rs.pop(d + dg, {})
        m = b // gcd(b, *lead.values())
        if m != 1:
            s, lead, q = s * m, _scaled(lead, m), _scaled(q, m)
            rs = {e: _scaled(part, m) for e, part in rs.items()}
        qpart = {k: c // b for k, c in lead.items() if c}
        if qpart:
            _check_degree((max(qpart) >> dsh) + d + dgt)
            q.update((k + d * unit, c) for k, c in lead.items() if c)
            for j, gpart in gs.items():
                _addmul(rs.setdefault(d + j, {}), qpart, gpart, -1)
    r = {k + e * unit: c for e, part in rs.items() for k, c in part.items()}
    return q, r, s


# -- determinants ------------------------------------------------------------

def det_fraction_free(rows: Sequence[Sequence]) -> MPoly:
    """Exact determinant of a square matrix given as a list of rows of
    numbers or MPolys; a non-square or ragged matrix raises ValueError.

    Expansion by minors, column by column, with every minor cached by its
    row set (Gentleman & Johnson, ACM TOMS 2(3), 1976).  It never divides
    polynomials: each row is put over the lcm of its entries'
    denominators, so the expansion runs on ints, and the result is over the
    product of those lcms.  The cost is O(n * 2^n)
    entry-times-minor products, which suits the matrices its callers build
    (``resultant``'s Bezout matrices are max(p, q)-square: 4x4 for the
    discriminant of a quintic, 5x5 for the quintic pipeline) but grows fast
    beyond them.

    With two or more variables, one variable v is Kronecker-packed into
    the int coefficients of the others: each entry becomes a dict from its
    key without v to sum(c * 2**(W * e_v)), so one big-int product does
    the work of a whole loop over the powers of v.  v is the variable
    with the smallest column-degree bound, sum over the columns of the
    largest degree in v there (ties go to the later variable); for the
    pipeline's resultant over Q[a1..a5, z] that is z, and the 80 kernel
    calls then multiply 729,627 pairs of packed values instead of
    4,994,319 pairs of terms.  W is one more than the bit length of
    B = prod_j max(1, sum_i |e_ij|_1), |e|_1 the sum of the absolute
    coefficients: a minor is a signed sum of products taking one entry
    from each column, so every coefficient of every minor, and of every
    partial sum of the expansion, is at most B < 2**(W - 1) in absolute
    value, and the packed result decodes uniquely into signed W-bit
    digits.  The packed ints are about W times the degree in v bits long,
    and their products cost accordingly.  A matrix over one variable or
    none keeps its terms: packing the 64-bit numeric pipeline's 5x5
    determinant over Q[z] made each packed int as wide as the final
    coefficients and the call 2.3 times slower (0.83 to 1.9 ms on a
    2-core virtual machine with Python 3.11).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square or ragged matrix")
    vs = _universe(e for row in rows for e in row)
    nv = len(vs)
    grid = []
    scale = 1
    for row in rows:
        terms, m = _int_terms(row, vs)
        scale *= m
        grid.append(terms)
    if nv < 2:
        return MPoly._make(vs, _expand_minors(grid, vs), scale)
    columns = list(zip(*grid))
    shifts = [(nv - 1 - s) * _BITS for s in range(nv)]
    bounds = [sum(max(((k >> sh) & _MASK for e in col for k in e), default=0)
                  for col in columns) for sh in shifts]
    s = min(range(nv), key=lambda s: (bounds[s], -s))
    sh = shifts[s]
    dsh = nv * _BITS
    norm = 1    # B, which bounds every coefficient of every minor
    for col in columns:
        norm *= max(1, sum(abs(c) for e in col for c in e.values()))
    width = norm.bit_length() + 1
    # the packed keys move to the universe rest: kept over vs, with v's
    # field zero, keyprop's 2,649 determinant keys hit 21 of the 4,096
    # low-12-bit hash values (117 over rest), and the call was slower in
    # each of 12 interleaved rounds
    rest = vs[:s] + vs[s + 1:]
    from_rest = _remap_table(rest, vs)

    def pack(e: dict) -> dict:
        packed = {}
        for ev, part in enumerate(_coefficient_terms(e, vs, vs[s])[1]):
            for kk, c in part.items():
                packed[kk] = packed.get(kk, 0) + (c << (width * ev))
        return packed

    grid = [[pack(e) for e in row] for row in grid]
    det = {}
    mask, half = (1 << width) - 1, 1 << (width - 1)
    for kk, packed in _expand_minors(grid, rest).items():
        base = _remap_key(kk, from_rest)
        degree = base >> dsh
        ev = 0
        # signed W-bit digits, least significant first; runs of zero
        # digits are skipped in one shift, so a sparse high power costs
        # one step and its degree check comes first
        while packed:
            skip = ((packed & -packed).bit_length() - 1) // width
            packed >>= width * skip
            ev += skip
            c = ((packed & mask) ^ half) - half
            _check_degree(degree + ev)
            det[base + (ev << sh) + (ev << dsh)] = c
            packed = (packed - c) >> width
            ev += 1
    return MPoly._make(vs, det, scale)


def _expand_minors(grid: list, vs: tuple) -> dict:
    """The determinant of a square grid of int term dicts over the
    universe vs, as a term dict."""
    n = len(grid)
    # row bitmask -> minor on those rows and the leading columns
    minors = {0: {0: 1}}
    for j in range(n):
        nxt: dict = {}
        # popping frees each minor as soon as it has been used
        while minors:
            mask, minor = minors.popitem()
            odd = False  # parity of the minor's rows below row i
            for i in range(n - 1, -1, -1):
                if mask >> i & 1:
                    odd = not odd
                    continue
                e = grid[i][j]
                if not e:
                    continue
                _addmul(nxt.setdefault(mask | 1 << i, {}), e, minor,
                        -1 if odd else 1, vs)
        minors = {}
        while nxt:
            mask, acc = nxt.popitem()
            acc = {k: c for k, c in acc.items() if c}
            if acc:
                minors[mask] = acc
    return minors.get((1 << n) - 1, {})
