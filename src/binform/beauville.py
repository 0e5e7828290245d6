"""Degree-24 quintic invariants from a quartic Tschirnhaus construction.

Removing one root lam of a monic quintic leaves a quartic; its invariant pair
(S, T) turns the j-data of that four-root configuration into the linear
polynomial  phi(lam) = (S^3 - 27 T^2) z - S^3.  Reducing phi modulo the
quintic and eliminating lam with a resultant yields a quintic in z whose
six coefficients, rehomogenized, are degree-24 invariants b0..b5 of the
original form.  This module builds that pipeline exactly over the rationals,
decomposes the results in the monomial basis of the J, K, L subring, checks
the expected closed forms and the rank of the degree-48 product matrix, and
decides scaled-GL2 equivalence and equality of five-point j-data.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import gcd, isqrt

from .forms import (BinaryForm, GroupElement, _bezout_resultant, _over,
                    _require_forms, act, generic_form, weight_of)
from .invariants import (
    InvariantVector,
    _check_graded_degree,
    _require_order,
    monomial_basis,
    _scaled_invariants,
    _scaled_quartic,
    sylvester_invariants,
    sylvester_specialize,
    SylvesterPoint,
)
from .mpoly import (_BITS, _MASK, MPoly, _Record, _addmul, _apart,
                    _as_exact, _as_fraction, _cleared, _coefficient_terms,
                    _divrem, _int_exponent, _int_terms, _mentions,
                    _monomials, _product, _rehomogenize, _remap_terms,
                    _shown, _unit, _universe, _vector_degree, format_poly)

__all__ = [
    "JKLPolynomial",
    "BeauvilleVector",
    "TschirnhausTrace",
    "KEYPROP_TABLES",
    "quartic_of_root",
    "build_phi",
    "beauville_pipeline",
    "beauville_closed_form",
    "decompose_in_JKL",
    "verify_keyprop",
    "prop48_rank",
    "thm48_decompose",
    "gl2_equivalent",
    "equivalence_witness",
    "same_j_data",
]

_COEFF_NAMES = ("a0", "a1", "a2", "a3", "a4", "a5")


# ---------------------------------------------------------------------------
# polynomials in the symbols L, K, J
# ---------------------------------------------------------------------------

def _triple_degree(triple: tuple) -> int:
    a1, a2, a3 = triple
    return 12 * a1 + 8 * a2 + 4 * a3


def _int_triple(triple) -> tuple:
    """An exponent triple as three nonnegative ints: a float or bool raises
    TypeError instead of being truncated, and a negative int ValueError."""
    a1, a2, a3 = triple
    key = _int_exponent(a1), _int_exponent(a2), _int_exponent(a3)
    for name, e in zip(("a1", "a2", "a3"), key):
        if e < 0:
            raise ValueError(
                f"exponent {name} must be nonnegative, got {_shown(e)}")
    return key


class JKLPolynomial(_Record):
    """A polynomial in the three basic invariants, stored sparsely.

    Keys are exponent triples (a1, a2, a3) for the monomial
    L**a1 * K**a2 * J**a3; values are exact rationals, stored with their
    triples descending.  The arithmetic and the text are MPoly's over L, K, J.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        if not isinstance(terms, Mapping):
            raise TypeError(
                f"terms must be a mapping, not {type(terms).__name__}")
        clean = {}
        for triple, value in terms.items():
            key = _int_triple(triple)
            _vector_degree(key, 3)      # MPoly's bound on the arithmetic
            value = _as_fraction(value)
            if value:
                clean[key] = value
        self.terms = dict(sorted(clean.items(), reverse=True))

    @property
    def degree(self):
        """12*a1 + 8*a2 + 4*a3 when every term shares it, else None."""
        degrees = {_triple_degree(t) for t in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def _poly(self) -> MPoly:
        return MPoly(("L", "K", "J"), self.terms)

    @staticmethod
    def _of(poly: MPoly) -> "JKLPolynomial":
        # the sorted universe (J, K, L) lists each exponent vector reversed
        return JKLPolynomial({e[::-1]: c for e, c in poly.terms()})

    def __add__(self, other):
        if not isinstance(other, JKLPolynomial):
            return NotImplemented
        return self._of(self._poly() + other._poly())

    def __sub__(self, other):
        if not isinstance(other, JKLPolynomial):
            return NotImplemented
        return self._of(self._poly() - other._poly())

    def __mul__(self, other):
        other = (other._poly() if isinstance(other, JKLPolynomial)
                 else _as_fraction(other))
        return self._of(self._poly() * other)

    __rmul__ = __mul__

    def evaluate(self, J, K, L):
        """The value at rationals or polynomials, a Fraction when constant;
        any other value raises TypeError, as in ``_as_fraction``."""
        return _as_exact(self._poly().substitute({"J": J, "K": K, "L": L}))

    def __repr__(self):
        return f"JKLPolynomial({format_poly(self._poly())})"


# ---------------------------------------------------------------------------
# the six expected degree-24 closed forms
# ---------------------------------------------------------------------------

# each table once, as its rational content and the int coefficients of
# table / content: the one source of KEYPROP_TABLES and _INT_TABLES
_TABLES = (
    (Fraction(5 ** 15, 2 ** 40), {
        (0, 3, 0): -2 ** 21,
        (0, 2, 2): 2 ** 14 * 3,
        (0, 1, 4): -2 ** 7 * 3,
        (0, 0, 6): 1,
    }),
    (Fraction(5 ** 16, 2 ** 35 * 3 ** 3), {
        (0, 3, 0): 2 ** 16 * 7,
        (0, 2, 2): -2 ** 10 * 23,
        (0, 1, 4): 2 ** 2 * 71,
        (0, 0, 6): -1,
    }),
    (Fraction(5 ** 16, 2 ** 30 * 3 ** 6), {
        (1, 1, 1): 2 ** 11 * 5 ** 3,
        (1, 0, 3): -2 ** 4 * 5 ** 3,
        (0, 3, 0): -2 ** 15 * 3,
        (0, 2, 2): 2 ** 7 * 11 * 13,
        (0, 1, 4): -3 * 131,
        (0, 0, 6): 2,
    }),
    (Fraction(5 ** 16, 2 ** 25 * 3 ** 9), {
        (2, 0, 0): -2 ** 11 * 5 ** 4,
        (1, 1, 1): -2 ** 9 * 3 * 5 ** 3,
        (1, 0, 3): 2 * 5 ** 3 * 11,
        (0, 3, 0): 2 ** 9 * 17,
        (0, 2, 2): -2 ** 2 * 23 * 37,
        (0, 1, 4): 3 ** 5,
        (0, 0, 6): -2,
    }),
    (Fraction(5 ** 16, 2 ** 22 * 3 ** 12), {
        (1, 1, 1): -2 ** 5 * 3 ** 2 * 5 ** 3,
        (1, 0, 3): -5 ** 3 * 29,
        (0, 3, 0): -2 ** 7 * 11,
        (0, 2, 2): -7 ** 2 * 83,
        (0, 1, 4): -2 ** 2 * 59,
        (0, 0, 6): 2 ** 2,
    }),
    (Fraction(5 ** 15, 2 ** 15 * 3 ** 15), {
        (0, 3, 0): 3 ** 3,
        (0, 2, 2): -3 ** 3,
        (0, 1, 4): 3 ** 2,
        (0, 0, 6): -1,
    }),
)
KEYPROP_TABLES = tuple(
    JKLPolynomial({t: content * c for t, c in ints.items()})
    for content, ints in _TABLES)
_BASIS_24 = tuple(monomial_basis(24))
# the tables in the form beauville_closed_form evaluates: the content and
# (index in the basis, int coefficient) pairs
_INT_TABLES = tuple((content, tuple((_BASIS_24.index(t), c)
                                    for t, c in ints.items()))
                    for content, ints in _TABLES)


# ---------------------------------------------------------------------------
# vector and trace containers
# ---------------------------------------------------------------------------

class BeauvilleVector(_Record):
    """The six degree-24 invariants of a quintic.

    Entries are exact rationals for a numeric form, or homogeneous degree-24
    polynomials in a0..a5 in symbolic mode.  The leading entry equals
    2**-40 * Disc(F)**3, so it vanishes exactly on forms with repeated roots.
    """

    __slots__ = ("b",)

    def __init__(self, entries):
        entries = tuple(entries)
        if len(entries) != 6:
            raise ValueError("a Beauville vector has six entries")
        self.b = tuple(_as_exact(e) for e in entries)

    def __repr__(self):
        return f"BeauvilleVector({list(self.b)!r})"


class TschirnhausTrace(_Record):
    """Audit record of the pipeline intermediates.

    quartic   the companion quartic that build_phi received: coefficients
              1 and polynomials in lam (and a1..a4 in symbolic mode)
    phi       (S^3 - 27 T^2) z - S^3 evaluated on that quartic
    phi_bar   phi reduced modulo the monic quintic, degree <= 4 in lam
    r_bar     the resultant in lam of the quintic and phi_bar: a quintic in z

    Each is the exact value itself, never a rescaled copy: the pipeline
    reads the six entries straight from r_bar.  When the input needed
    preparation (leading coefficient zero, cured by a determinant-one
    shear), the trace describes the prepared form.
    """

    __slots__ = ("quartic", "phi", "phi_bar", "r_bar")

    def __init__(self, quartic, phi, phi_bar, r_bar):
        self.quartic = quartic
        self.phi = phi
        self.phi_bar = phi_bar
        self.r_bar = r_bar


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------

def quartic_of_root(a, lam) -> BinaryForm:
    """Companion quartic of a monic quintic at the (generic) root lam.

    Dividing x**5 + a1 x**4 + a2 x**3 + a3 x**2 + a4 x + a5 by (x - lam)
    leaves the quartic with plain coefficients (1, b1, b2, b3, b4) where
    b_i = lam * b_{i-1} + a_i; one more step, lam * b4 + a5, is the quintic
    at lam.  Only a1..a4 enter.
    """
    a1, a2, a3, a4 = a
    b1 = lam + a1
    b2 = lam * b1 + a2
    b3 = lam * b2 + a3
    return BinaryForm([1, b1, b2, b3, lam * b3 + a4])


def build_phi(quartic: BinaryForm) -> MPoly:
    """The z-linear polynomial (S^3 - 27 T^2) z - S^3 of a quartic.

    With the companion quartic of a root plugged in, this has degree at most
    12 in lam and encodes the normalized j-invariant of the root's four-point
    configuration as its z-root: the resultant pipeline's phi.  From the
    int terms s = 12 d^2 S and t = 432 d^3 T of ``_scaled_quartic``,
    4 s^3 = 6912 d^6 S^3 and t^2 = 6912 d^6 27 T^2.  Constant S and T,
    which ``quartic_S`` and ``quartic_T`` give as numbers, leave z alone
    in phi's universe.
    """
    _require_order(quartic, 4, "build_phi")
    if _mentions(quartic.coeffs, "z"):
        raise ValueError("build_phi needs a quartic free of z: its result"
                         " is linear in z")
    (vs, d), s, t = _scaled_quartic(quartic)
    universe = tuple(sorted({*vs, "z"} if (set(s) | set(t)) - {0} else {"z"}))
    s, t = (_remap_terms(x, vs, universe) for x in (s, t))
    s3 = _addmul({}, s, _addmul({}, s, s, 1, universe), 4, universe)
    phi = _addmul({k: -c for k, c in s3.items()}, {_unit(universe, "z"): 1},
                  _addmul(dict(s3), t, t, -1, universe), 1, universe)
    return MPoly._make(universe, phi, 6912 * d ** 6)


def _core_pipeline(tail) -> TschirnhausTrace:
    """Run the resultant pipeline for a monic quintic with coefficient tail
    (a1..a5): rationals in numeric mode, coefficient symbols in symbolic
    mode; the trace's r_bar is the resultant the entries are read from.
    The tail is cleared once, to int term dicts over its symbols, lam and
    z; phi is ``build_phi`` of the companion quartic, and the reduction
    mod f and the resultant run on the kernels behind ``monic_divrem`` and
    ``resultant``.
    """
    vs = tuple(sorted({*_universe(tail), "lam", "z"}))
    n, d = _int_terms(tail, vs)
    b = [{0: d}]    # d times the quartic's plain coefficients, then d f(lam)
    for ni in n:
        b.append(_addmul(dict(ni), {_unit(vs, "lam"): 1}, b[-1], 1, vs))

    def coefficient(i):     # b[i] / d over lam and the symbols of a1..ai
        u = tuple(sorted({"lam", *_universe(tail[:i])}))
        return MPoly._make(u, _remap_terms(b[i], vs, u), d)

    quartic = BinaryForm([1, *map(coefficient, range(1, 5))])
    phi = build_phi(quartic)
    _, r, s = _divrem(_remap_terms(phi._terms, phi._vars, vs), b[5], d, vs,
                      "lam")
    phi_bar = MPoly._make(vs, r, phi._den * s)
    rest, parts = _coefficient_terms(phi_bar._terms, vs, "lam")
    r_bar = _bezout_resultant(
        [_remap_terms(c, vs, rest) for c in [{0: d}, *n]], d,
        [{}] * (5 - len(parts)) + parts[::-1], phi_bar._den, rest)
    return TschirnhausTrace(quartic, phi, phi_bar, r_bar)


def _symbol_name(poly: MPoly):
    """The variable name when the polynomial is a bare symbol, else None."""
    if isinstance(poly, MPoly) and len(poly) == 1:
        for exps, c in poly.terms():
            if c == 1 and sum(exps) == 1:
                return poly.variables[exps.index(1)]
    return None


def beauville_pipeline(quintic: BinaryForm):
    """Compute the six degree-24 invariants by the resultant route.

    Numeric quintics give a vector of exact rationals; the generic symbolic
    quintic (six distinct coefficient symbols, or a leading 1 with five
    symbols, none of the five named lam or z, which the pipeline uses)
    gives the six Cartesian polynomials, homogeneous of degree 24.  A
    leading 1 is homogenized with a0, renamed apart from the tail symbols.
    A numeric leading coefficient of zero is cured by a determinant-one
    shear, which leaves every entry unchanged.  Returns the vector together
    with the TschirnhausTrace of intermediates.
    """
    _require_order(quintic, 5, "beauville_pipeline")
    if not any(isinstance(c, MPoly) for c in quintic.coeffs):
        if quintic.is_zero():
            raise ValueError("cannot normalize the zero form")
        working = quintic.coeffs
        if working[0] == 0:
            for c in range(1, 7):
                working = act(GroupElement(1, 0, c, 1), quintic).coeffs
                if working[0] != 0:
                    break
        lead = working[0]
        tail = [v / lead for v in working[1:]]
        trace = _core_pipeline(tail)
        r_bar = trace.r_bar
        _, parts = _coefficient_terms(r_bar._terms, r_bar._vars, "z")
        ints = [part.get(0, 0) for part in parts] + [0] * (6 - len(parts))
        g = gcd(lead.numerator ** 24, r_bar._den)   # once, not per entry
        scale = lead.numerator ** 24 // g
        den = r_bar._den // g * lead.denominator ** 24
        return BeauvilleVector([Fraction(c * scale, den)
                                for c in reversed(ints)]), trace

    names = [_symbol_name(c) for c in quintic.coeffs]
    lead_name = names[0]
    tail_names = names[1:]
    if any(n is None for n in tail_names) or len(set(tail_names)) != 5:
        raise TypeError(
            "symbolic pipeline needs five distinct coefficient symbols"
            " after the leading coefficient")
    for n in ("lam", "z"):
        if n in tail_names:
            raise TypeError(f"symbolic pipeline uses the symbol {n!r} itself;"
                            " rename that coefficient")
    if lead_name in tail_names:
        raise TypeError("leading coefficient symbol reused in the tail")
    if lead_name is None:
        if quintic.coeffs[0] != 1:
            raise TypeError(
                "symbolic pipeline needs leading coefficient 1 or a symbol")
        lead_name = "a0" + _apart(["a0"], tail_names)

    tail = [MPoly.variable(n) for n in tail_names]
    trace = _core_pipeline(tail)
    entries = [_rehomogenize(c, lead_name, 24)
               for c in reversed(trace.r_bar.coefficients("z"))]
    return BeauvilleVector(entries), trace


def beauville_closed_form(quintic: BinaryForm) -> BeauvilleVector:
    """Fast numeric route: evaluate the expected closed forms at (J, K, L).

    Exactly equal to the pipeline output — the test suite pins the two
    routes against each other — but costs microseconds instead of running
    the symbolic resultant.  J, K, L, from the int chain without H, go over
    one common denominator q, found without factoring, so that j = J q,
    k = K q**2 and l = L q**3 are ints; the seven degree-24 monomials
    l**a k**b j**c are each L**a K**b J**c times q**6, and every entry is
    one int dot product S_i with its table's int coefficients, divided
    once by the table's content times q**6.
    """
    sums, q6 = _closed_form_sums(*_numeric_jkl(quintic,
                                               "beauville_closed_form"))
    return BeauvilleVector(
        [Fraction(content.numerator * s, content.denominator * q6)
         for (content, _), s in zip(_INT_TABLES, sums)])


def _closed_form_sums(J, K, L, _chain) -> tuple:
    """The six dot products S_i of ``beauville_closed_form``, and q**6,
    from a quintic's ``_numeric_jkl``."""
    q = J.denominator
    q *= K.denominator // gcd(K.denominator, q * q)
    q *= L.denominator // gcd(L.denominator, q ** 3)
    q2 = q * q
    q3 = q2 * q
    monomials = _monomials(_BASIS_24, (L.numerator * (q3 // L.denominator),
                                       K.numerator * (q2 // K.denominator),
                                       J.numerator * (q // J.denominator)))
    return ([sum(c * monomials[i] for i, c in table)
             for _, table in _INT_TABLES], q3 * q3)


def _numeric_jkl(quintic: BinaryForm, what: str) -> tuple:
    """J, K, L of a quintic as Fractions, then the rest of its
    ``_scaled_invariants`` (H's pair, when asked).  Errors begin with
    ``what``, such as "first quintic: same_j_data"; when J, K or L is not
    a number, the TypeError is "<what> needs a numeric quintic"."""
    _require_order(quintic, 5, what)
    chain = _scaled_invariants(quintic)
    jkl = [_as_exact(_over(n, d))    # a constant MPoly as a Fraction
           for n, d in islice(chain, 3)]
    if any(isinstance(x, MPoly) for x in jkl):
        raise TypeError(f"{what} needs a numeric quintic")
    return (*jkl, chain)


# ---------------------------------------------------------------------------
# decomposition in the J, K, L basis
# ---------------------------------------------------------------------------

def decompose_in_JKL(invariant_poly: MPoly, degree: int) -> JKLPolynomial:
    """Write a homogeneous invariant polynomial in a0..a5 as a JKL polynomial.

    First proves that the input is an invariant (``_require_invariant``),
    then specializes it to the canonical family and solves the exact linear
    system over the monomials of u, v, w.  Since GL2 moves the canonical
    family onto a dense set, an invariant is determined by its values
    there; an invariant of degree divisible by 4 lies in Q[J, K, L] (an odd
    power of H has degree 2 mod 4), and since J, K, L are algebraically
    independent the solution is unique.  A non-invariant input raises
    ValueError, as would a nonzero residual of the solve.
    """
    if not isinstance(invariant_poly, MPoly):
        raise TypeError("expected a polynomial in the coefficients a0..a5")
    extra = [v for v in invariant_poly.variables
             if v not in _COEFF_NAMES and _mentions((invariant_poly,), v)]
    if extra:
        raise ValueError(f"unexpected variables: {extra}")
    _check_graded_degree(degree)
    if not invariant_poly._is_homogeneous(degree):
        raise ValueError(f"input is not homogeneous of degree {degree}")
    _require_invariant(invariant_poly, degree)

    bindings, basis, columns = _canonical_family(degree)
    specialized = invariant_poly.substitute(bindings)
    # the basis columns as term dicts over u, v, w; the target is the last
    maps = [*columns, specialized.in_universe(_UVW)._terms]
    # one equation per monomial in u, v, w
    keys = sorted(set().union(*maps))
    rows, pivots = _row_reduce(
        [[m.get(key, 0) for m in maps] for key in keys], len(basis))
    if any(row[-1] for row in rows[len(pivots):]):
        raise ValueError("not in the J,K,L subring")
    return JKLPolynomial(
        {basis[col]: row[-1] / specialized._den
         for col, row in zip(pivots, rows)})


_UVW = ("u", "v", "w")


@lru_cache(maxsize=4)
def _canonical_family(degree: int) -> tuple:
    """The bindings of a0..a5 to the canonical family's coefficients in
    u, v, w, the degree's monomial basis, and its columns: the basis
    monomials in the family's J, K, L as term dicts over u, v, w.  Built
    once per degree and shared between calls, so no caller mutates them.
    The family's J, K, L have int coefficients (denominator 1), so their
    stored terms are their values."""
    point = SylvesterPoint.symbolic()
    bindings = dict(zip(_COEFF_NAMES, sylvester_specialize(point).coeffs))
    basis = tuple(monomial_basis(degree))
    closed = sylvester_invariants(point)
    bases = [p.in_universe(_UVW)._terms
             for p in (closed.L, closed.K, closed.J)]
    columns = _monomials(basis, bases, {0: 1}, _product)
    return bindings, basis, tuple(columns)


def _require_invariant(poly: MPoly, degree: int) -> None:
    """Raise ValueError unless the homogeneous degree-d polynomial poly in
    a0..a5 is an invariant of the quintic.

    Every term must have weight sum(i * e_i) equal to 5d/2, and the
    derivation D = sum_(i<5) (5 - i) a_i d/da_(i+1), the infinitesimal
    action of x1 -> x1 + t x2 on the coefficients, must send poly to zero.
    An isobaric polynomial of weight 5d/2 that D kills is killed by the
    other derivation as well, so it is SL2-invariant.  D runs on the packed
    keys, with integer coefficients: each term moves one unit of exponent
    from a_(i+1) to a_i, which leaves the total degree alone, and is scaled
    by (5 - i) e_(i+1).
    """
    poly = poly.in_universe(_COEFF_NAMES)
    weight = weight_of(degree, 5, 0)
    # per a_i, i = 1..5: its field's shift, the key change that moves one
    # unit of exponent from a_i to a_(i-1), and D's factor 6 - i
    fields = [(i, (5 - i) * _BITS,
               (1 << (6 - i) * _BITS) - (1 << (5 - i) * _BITS), 6 - i)
              for i in range(1, 6)]
    image = {}
    for key, c in poly._terms.items():
        w = 0
        for i, sh, move, factor in fields:
            e = (key >> sh) & _MASK
            if e:
                w += i * e
                target = key + move
                image[target] = image.get(target, 0) + factor * e * c
        if w != weight:
            raise ValueError(
                f"not in the J,K,L subring: a term is not of weight {weight}")
    if any(image.values()):
        raise ValueError("not in the J,K,L subring: not killed by the"
                         " derivation D of SL2")


def _row_reduce(matrix, columns):
    """Gauss-Jordan elimination over the rationals on the first ``columns``
    columns of a matrix (later columns, such as an augmented right-hand
    side, are carried along).

    Returns (rows, pivots): row r < len(pivots) has a 1 in column
    pivots[r] and every other row a 0 there; rows from len(pivots) on are
    zero in the first ``columns`` columns (their later entries are fixed
    up to a factor).  len(pivots) is the rank.  The rows are cleared to
    ints and kept divided by their gcds, and only the pivot rows are
    divided by their pivots, at the end: scaling rows leaves the reduced
    echelon form, which is unique, unchanged.
    """
    rows = [_cleared(row)[0] for row in matrix]
    pivots = []
    for col in range(columns):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        head = rows[r][col]
        for i in range(len(rows)):
            factor = rows[i][col]
            if i != r and factor:
                row = [head * x - factor * y for x, y in zip(rows[i], rows[r])]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    for r, col in enumerate(pivots):
        head = rows[r][col]
        rows[r] = [Fraction(x, head) for x in rows[r]]
    return rows, pivots


# ---------------------------------------------------------------------------
# headline verifications
# ---------------------------------------------------------------------------

def _table_json(table: JKLPolynomial) -> list:
    out = []
    for triple in _BASIS_24:
        value = table.terms.get(triple)
        if value:
            out.append({"L": triple[0], "K": triple[1], "J": triple[2],
                        "coefficient": str(value)})
    return out


def verify_keyprop() -> dict:
    """Run the symbolic pipeline and compare all six decompositions with the
    expected closed forms ``KEYPROP_TABLES``, coefficient by coefficient.

    Returns a JSON-ready report: the overall and per-entry match flags and
    coefficient tables (the command line's ``--timing`` adds the wall-clock
    seconds).  A mismatched entry also lists its expected table and the
    coefficients that differ.
    """
    vector, _ = beauville_pipeline(generic_form(5))
    entries = []
    for i, (b, expected) in enumerate(zip(vector.b, KEYPROP_TABLES)):
        computed = decompose_in_JKL(b, 24)
        entry = {"index": i, "match": computed == expected,
                 "coefficients": _table_json(computed)}
        if not entry["match"]:
            entry["expected"] = _table_json(expected)
            entry["differences"] = [
                {"L": t[0], "K": t[1], "J": t[2],
                 "computed": str(computed.terms.get(t, Fraction(0))),
                 "expected": str(expected.terms.get(t, Fraction(0)))}
                for t in _BASIS_24
                if computed.terms.get(t, Fraction(0))
                != expected.terms.get(t, Fraction(0))]
        entries.append(entry)
    return {"all_match": all(e["match"] for e in entries), "entries": entries}


def prop48_rank():
    """Matrix of the 21 pairwise products of the six invariants over the
    19 degree-48 basis monomials, plus its exact rank.

    Products are expanded in the free ring of J, K, L (legitimate since the
    three are algebraically independent).  The columns are the six squares,
    then the products b_i b_j with i < j in lexicographic order.  Full rank
    19 means the products span the whole degree-48 component.
    """
    pairs = [(i, i) for i in range(6)] + list(combinations(range(6), 2))
    products = [KEYPROP_TABLES[i] * KEYPROP_TABLES[j] for i, j in pairs]
    matrix = [[p.terms.get(triple, Fraction(0)) for p in products]
              for triple in monomial_basis(48)]
    _, pivots = _row_reduce(matrix, len(products))
    return matrix, len(pivots)


def _thm48_degree(alpha) -> int:
    """The degree of a JKL exponent triple that thm48_decompose splits;
    any triple but three nonnegative ints of degree 48k raises."""
    degree = _triple_degree(_int_triple(alpha))
    if degree % 48:
        raise ValueError(f"degree 12*a1 + 8*a2 + 4*a3 = {_shown(degree)}"
                         " is not divisible by 48")
    return degree


def thm48_decompose(alpha):
    """Split a JKL exponent triple of degree divisible by 48 into factors of
    degree exactly 48.

    Follows the Euclidean-division case analysis: whole blocks L**4, K**6,
    J**12 peel off first; the remainder has degree 0, 48, or 96, and the
    degree-96 case splits as (L**g1 J**(12-3g1)) * (K**g2 J**(12-2g2)).
    Factors sum componentwise to the input.
    """
    a1, a2, a3 = alpha = _int_triple(alpha)
    degree = _thm48_degree(alpha)
    if degree == 0:
        return []
    if degree == 48:
        return [(a1, a2, a3)]
    b1, g1 = divmod(a1, 4)
    b2, g2 = divmod(a2, 6)
    b3, g3 = divmod(a3, 12)
    remainder_degree = _triple_degree((g1, g2, g3))
    factors = []
    if remainder_degree == 48:
        factors.append((g1, g2, g3))
    elif remainder_degree == 96:
        factors.append((g1, 0, 12 - 3 * g1))
        factors.append((0, g2, 12 - 2 * g2))
    factors.extend([(4, 0, 0)] * b1)
    factors.extend([(0, 6, 0)] * b2)
    factors.extend([(0, 0, 12)] * b3)
    return factors


# ---------------------------------------------------------------------------
# equivalence and five-point data
# ---------------------------------------------------------------------------

def _exact_sqrt(value: Fraction):
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# the witness key of r = X2/X1 = s^(d/2) for a pinning invariant X of degree d
_WITNESS_KEYS = {2: "s_squared", 4: "s_fourth"}


def equivalence_witness(first: BinaryForm, second: BinaryForm) -> dict:
    """Decide scaled-GL2 equivalence of two stable quintics, with a witness.

    Equivalence holds iff some nonzero scalar s (over the complex numbers)
    satisfies X2 = s^(d/2) X1 for each of J, K, L, H, of degrees d = 4, 8,
    12, 18.  J, K, L decide it: 16 H^2 is a polynomial in them with no
    constant term, so their conditions give H2 = +-s^9 H1.  The first of
    them that is nonzero in both forms, X of degree d_X, pins
    r = X2/X1 = s^(d_X/2).  Each later Y of degree d_Y must then satisfy
    Y2^(d_X/g) = r^(d_Y/g) Y1^(d_X/g), g = gcd(d_X, d_Y): the condition
    with s eliminated, checked through powers so that s may be any root of
    r, as solvability over an algebraically closed field demands.  H fixes
    the sign of s: when J pins r with a rational square root rho, the
    witness s is the one of rho, -rho with H2 = s^9 H1.  J or K always
    pins: Disc = 3125 (J^2 - 128 K) is nonzero in a stable form, so J and
    K never both vanish.  H is computed only when it is read.
    """
    _require_forms("equivalence_witness", first, second)
    (*v1, rest1), (*v2, rest2) = (
        _numeric_jkl(form, f"{which} quintic: equivalence_witness")
        for which, form in (("first", first), ("second", second)))
    for which, (J, K, _) in (("first", v1), ("second", v2)):
        if J * J == 128 * K:
            raise ValueError(f"{which} quintic: unstable form")

    pinned = None       # name of the pinning invariant, of degree dx
    for name, x1, x2 in zip("JKL", v1, v2):
        d = InvariantVector.DEGREES[name]
        if pinned is None:
            ok = (x1 == 0) == (x2 == 0)
        else:
            g = gcd(dx, d)
            ok = x2 ** (dx // g) == r ** (d // g) * x1 ** (dx // g)
        if not ok:
            if (x1 == 0) != (x2 == 0):
                reason = f"{name} vanishing pattern differs"
            else:
                reason = f"{name}-ratio mismatch"
            return {"equivalent": False, "reason": reason}
        if pinned is None and x1:
            pinned, dx, r = name, d, x2 / x1

    witness = {"equivalent": True, "pinned_by": pinned,
               _WITNESS_KEYS[dx // 2]: str(r)}
    root = _exact_sqrt(r) if pinned == "J" else None
    if root is not None:
        h1, h2 = (_as_exact(_over(*next(rest))) for rest in (rest1, rest2))
        witness["s"] = str(root if h2 == root ** 9 * h1 else -root)
    return witness


def gl2_equivalent(first: BinaryForm, second: BinaryForm) -> bool:
    """True iff the two stable quintics lie in one scaled-GL2 orbit."""
    return equivalence_witness(first, second)["equivalent"]


def same_j_data(first: BinaryForm, second: BinaryForm) -> bool:
    """True iff the two stable quintics have proportional invariant vectors
    b0..b5 — equivalently, the same five-point j-data.

    Decided exactly on the ints of ``_closed_form_sums``: b_i = c_i S_i /
    q**6 with c_i != 0, so S2_0 S1_i = S1_0 S2_i iff b2_0 b1_i = b1_0 b2_i.
    """
    _require_forms("same_j_data", first, second)
    (s1, _), (s2, _) = (
        _closed_form_sums(*_numeric_jkl(form, f"{which} quintic: same_j_data"))
        for which, form in (("first", first), ("second", second)))
    which = "first" if s1[0] == 0 else "second" if s2[0] == 0 else None
    if which:
        raise ValueError(f"{which} quintic: repeated roots; j-data undefined")
    return all(s2[0] * s1[i] == s1[0] * s2[i] for i in range(1, 6))
