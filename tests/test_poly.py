"""Exact polynomial arithmetic, parsing and quasihomogeneity."""

import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforms.exterior import pullback
from logforms.logarithmic import apply_field
from logforms.module import FreeElement
from logforms.poly import (
    ParseError,
    Poly,
    PolyError,
    is_squarefree,
    parse_poly,
    poly_exact_div,
    poly_gcd,
    quasihomogeneous_weights,
)

from conftest import canonical, compose

NAMES = ["x", "y", "z"]


def P(text, names=NAMES):
    return parse_poly(text, names)


def test_parse_basic():
    p = P("x*y*z*(x+y+z)")
    assert p.total_degree() == 4
    assert len(p.terms) == 3
    assert p.terms[(2, 1, 1)] == 1


def test_parse_rational_coefficients():
    p = P("1/2*x + 3*y - x")
    assert p.terms[(1, 0, 0)] == Fraction(-1, 2)
    assert p.terms[(0, 1, 0)] == 3


def test_parse_power_and_unary_minus():
    p = P("-x^3 + (-y)^2")
    assert p.terms[(3, 0, 0)] == -1
    assert p.terms[(0, 2, 0)] == 1


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        P("x + w")
    assert exc.value.line == 1
    assert exc.value.col == 5
    with pytest.raises(ParseError):
        P("x ^ y")
    with pytest.raises(ParseError):
        P("x + ")


def test_parse_reads_decimal_digits_only():
    """An int is a run of decimal digits, which is what int() reads: '٣' is 3,
    while '²' and '½' are unexpected characters, never a ValueError."""
    assert P("٣*x^٢") == P("3*x^2")
    for text, col in (("x^²", 3), ("½*x", 1), ("x*²", 3), ("2²", 2)):
        with pytest.raises(ParseError) as exc:
            P(text)
        assert (exc.value.message, exc.value.col) == (f"unexpected character {text[col - 1]!r}", col)


def test_parse_nesting_is_bounded_and_unary_minus_iterative():
    assert P("-" * 1201 + "x") == -P("x")
    assert P("(" * 100 + "x" + ")" * 100) == P("x")
    with pytest.raises(ParseError) as exc:
        P("(" * 101 + "x" + ")" * 101)
    assert (exc.value.message, exc.value.col) == ("parentheses nested deeper than 100", 101)


def test_parse_power_is_bounded_by_its_term_count():
    """p^e has at most C(e + t - 1, t - 1) terms, t those of p; a power whose
    bound exceeds 1000 is rejected at its exponent before it is multiplied
    out.  (x+y+z)^100 took seconds and (x+y+z)^200 minutes before."""
    start = time.perf_counter()
    for text, col in (("(x+y)^1000", 7), ("(x+y+z)^44", 9), ("(x+y+z)^200", 9),
                      ("2*(x+y)^99999999999999999999", 9), ("(x+1)^3000", 7)):
        with pytest.raises(ParseError) as exc:
            P(text)
        assert (exc.value.message, exc.value.col) == ("power may expand to more than 1000 terms", col)
    assert time.perf_counter() - start < 0.5
    assert len(P("(x+y)^500").terms) == 501
    assert len(P("(x+y+z)^12").terms) == comb(14, 2)
    assert P("x^1500") == Poly.monomial(3, (1500, 0, 0))
    assert P("(2*x*y)^5000") == Poly.monomial(3, (5000, 5000, 0), 2 ** 5000)
    assert P("0^5000").is_zero() and P("(x+y)^0") == P("1")


def test_parse_product_is_bounded_by_its_term_count():
    """p*q has at most |p|*|q| terms, and no more than the monomials in the
    variables of p and q whose total degree lies between the sums of their
    lowest and of their highest degrees; a product whose bound exceeds 1000
    is rejected at its '*' before it is multiplied out.
    (x+y+z)^43*(x+y+z)^43 (3828 terms) took 4 s before, and each further
    factor multiplies the work."""
    start = time.perf_counter()
    for text, col in (("(x+y+z)^43*(x+y+z)^43", 11),
                      ("(x+y+z)^20*(x+y+z)^20*(x+y+z)^20", 22),
                      ("x^2*(x+y+z)^30*(x+y+z)^12", 15),
                      ("(x+y+z)^30*(1+x+y+z)^3", 11)):
        with pytest.raises(ParseError) as exc:
            P(text)
        assert (exc.value.message, exc.value.col) == ("product may expand to more than 1000 terms", col)
    assert time.perf_counter() - start < 3
    assert len(P("(x+y+z)^20*(x+y+z)^20").terms) == comb(42, 2)
    assert len(P("(x+y+z)^43*x").terms) == comb(45, 2)
    assert P("x^1500*(x+y)*y") == P("x^1501*y+x^1500*y^2")
    assert P("(x+y+z)^20*(x*y*z)^100*0").is_zero()


def test_parse_is_bounded_by_its_work():
    """Within the term bound, multiplying out can still take seconds, since
    each term pair costs a product and sum, more for long coefficients:
    (x+y)^999 took 2.4 s and (x+y)^500*(x+y)^499 2.5 s on `Fraction` terms.  The
    work of the products and powers of one polynomial is bounded too, in
    sum, and the step that passes the bound is rejected before it is
    multiplied out, at its '*' or its exponent.  A power is bounded from its
    base, so a single one is rejected at once; (x+y)^500 parses, and twice
    over it does not, after the first is multiplied out."""
    def rejected(text: str, what: str, col: int):
        with pytest.raises(ParseError) as exc:
            P(text)
        assert (exc.value.message, exc.value.col) == (f"{what} may take more work to expand "
                                                      f"than the bound of 200000", col)

    start = time.perf_counter()
    for text, col in (("(x+y)^999", 7), ("(1/3*x+1/5*y)^800", 15), ("(3*x)^" + "9" * 400, 7)):
        rejected(text, "power", col)
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    for text, what, col in (("(x+y)^500*(x+y)^499", "power", 17),
                            ("(x+y)^500+(x+y)^500", "power", 17),
                            ("(x+y)^350*(x+y)^350", "product", 10)):
        rejected(text, what, col)
    assert time.perf_counter() - start < 3
    assert len(P("(x+y)^500").terms) == 501
    assert len(P("(x+y+z)^20*(x+y+z)^20").terms) == comb(42, 2)
    assert P("x^" + "9" * 400) == Poly.monomial(3, (10 ** 400 - 1, 0, 0))


def test_arithmetic_is_exact():
    p = P("x + 1/3")
    q = p * p * p
    assert q.terms[(0, 0, 0)] == Fraction(1, 27)
    assert (q - q).is_zero()


def test_derivative_and_compose():
    h = P("x^2*y + z^3")
    assert h.derivative(0) == P("2*x*y")
    sub = [P("y"), P("x"), P("z")]
    assert compose(h, sub) == P("y^2*x + z^3")
    assert pullback([h], sub) == [P("y^2*x + z^3")]


def test_set_vars_zero():
    h = P("x*y + y*z + z^2")
    assert h.set_vars_zero([2]) == P("x*y")


def test_exact_division():
    h = P("x*y*z*(x+y+z)")
    q = poly_exact_div(h, P("x*y"))
    assert q == P("z*(x+y+z)")
    with pytest.raises(PolyError):
        poly_exact_div(P("x^2+1"), P("x"))


def test_gcd_examples():
    f = P("(x+y)^2*(x-y)")
    g = P("(x+y)*(x^2+1)")
    assert poly_gcd(f, g) == P("x+y")
    assert poly_gcd(P("x^2"), P("y^2")).is_constant()


def test_squarefree_detection():
    assert is_squarefree(P("x*y*z"))
    assert not is_squarefree(P("x^2*y"))
    assert not is_squarefree(parse_poly("x^3", ["x"]))
    assert is_squarefree(P("x*y*(x-y)*(x+z*y)"))


def test_quasihomogeneous_weights_examples():
    assert quasihomogeneous_weights(P("x*y*z")) == (1, 1, 1)
    assert quasihomogeneous_weights(parse_poly("4*a^3 + 27*b^2", ["a", "b"])) == (2, 3)
    assert quasihomogeneous_weights(parse_poly("x^2 + y^3 + x*y", ["x", "y"])) is None


def test_quasihomogeneous_weights_property():
    for text, names in [("x*y*z*(x+y+z)", NAMES), ("4*(u+x^2)^3+27*w^2", ["x", "u", "w"])]:
        h = parse_poly(text, names)
        w = quasihomogeneous_weights(h)
        assert w is not None
        degs = {sum(a * b for a, b in zip(e, w)) for e in h.terms}
        assert len(degs) == 1


def test_weights_of_several_polynomials():
    """One weight system for several polynomials, each homogeneous of its
    own degree: the stacked difference systems.  A zero polynomial sets no
    condition, and the germ (x, y^3 + x*y^4) has none (3 w_y = w_x + 4 w_y)."""
    xy = ["x", "y"]
    mond_b2 = [parse_poly(t, xy) for t in ("x", "y^2", "x^2*y+y^5")]
    assert quasihomogeneous_weights(*mond_b2) == (2, 1)
    assert quasihomogeneous_weights(mond_b2[0], Poly.zero(2), mond_b2[2]) == (2, 1)
    assert quasihomogeneous_weights(*[parse_poly(t, xy) for t in ("x", "y^3+x*y^4")]) is None
    assert quasihomogeneous_weights(parse_poly("x", xy), parse_poly("y", xy)) == (1, 1)


def test_weights_beyond_the_search_grid():
    """Positive weights exist, but none with free-column values in 1..4:
    with the free columns x, u at 1 the system needs 6 < u < 7.4."""
    h = parse_poly("y*z^11 + x^8*u + x^14*z", ["y", "z", "x", "u"])
    assert quasihomogeneous_weights(h) == (4, 1, 1, 7)


def test_semipositive_search_prefers_positive_weights():
    """allow_zero accepts a zero weight only when no positive system exists,
    even where the 1..4 grid meets a semipositive vector first."""
    assert quasihomogeneous_weights(P("x*y^2 + z^2"), allow_zero=True) == (2, 1, 2)
    h = Poly(4, {(4, 4, 0, 4): 3, (2, 0, 2, 2): -2, (3, 2, 1, 3): -2})
    assert quasihomogeneous_weights(h, allow_zero=True) == (1, 1, 4, 1)


def test_semipositive_weights_for_cross_ratio_family():
    h = P("x*y*(x-y)*(x+z*y)")
    assert quasihomogeneous_weights(h) is None
    assert quasihomogeneous_weights(h, allow_zero=True) == (1, 1, 0)


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(0, 3)) for _ in range(3))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        if c:
            terms[e] = c
    return Poly(3, terms)


def _gcd_with_partials_is_constant(h):
    """The gcd criterion: h is squarefree when gcd(h, dh/dx_1, ..., dh/dx_n)
    is constant (characteristic 0)."""
    g = h
    for i in range(h.nvars):
        d = h.derivative(i)
        if not d.is_zero():
            g = poly_gcd(g, d)
    return g.is_constant()


@st.composite
def _factor(draw, nvars):
    """One to three terms with exponents up to 4 - nvars."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 4 - nvars)) for _ in range(nvars))
        terms[e] = Fraction(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.integers(1, 2)))
    return Poly(nvars, terms)


@st.composite
def squarefree_inputs(draw):
    """Products of small factors over 1 to 3 variables, inhomogeneous in
    general, with a squared factor about half the time; and constants.  The
    sizes (fewer factors over three variables) keep the gcd oracle quick."""
    nvars = draw(st.integers(1, 3))
    h = Poly.constant(nvars, draw(st.sampled_from([-2, 1, Fraction(1, 3)])))
    for _ in range(draw(st.integers(0, 2 if nvars < 3 else 1))):
        h = h * draw(_factor(nvars))
    if draw(st.booleans()):
        p = draw(_factor(nvars))
        h = h * p * p
    return h


@given(squarefree_inputs())
@settings(max_examples=120, deadline=None)
def test_squarefree_matches_gcd_criterion(h):
    if h.is_zero():
        return
    assert is_squarefree(h) == _gcd_with_partials_is_constant(h)


def test_squarefree_edge_cases():
    assert is_squarefree(Poly.constant(2, 5))
    assert is_squarefree(parse_poly("x^2 - 2", ["x"]))
    assert not is_squarefree(parse_poly("(x^2 - 2)^2*(x + 1)", ["x"]))
    assert not is_squarefree(P("(x*y + z + 1)^2*(x - y)"))
    assert is_squarefree(P("x^2 + y^3 + z^5 + x*y*z"))
    with pytest.raises(PolyError):
        is_squarefree(Poly.zero(3))


@st.composite
def quasihomogeneous_polys(draw):
    """Two to four monomials of one weighted degree over 2 to 5 variables,
    under drawn positive weights (one of them 1, which closes each monomial),
    in a drawn variable order."""
    nvars = draw(st.integers(2, 5))
    weights = [draw(st.integers(1, 6)) for _ in range(nvars - 1)]
    degree = draw(st.integers(max(weights), 3 * max(weights) + 4))
    monos = set()
    for _ in range(draw(st.integers(2, 4))):
        e, rest = [], degree
        for w in weights:
            a = draw(st.integers(0, rest // w))
            e.append(a)
            rest -= a * w
        monos.add(tuple(e + [rest]))
    perm = draw(st.permutations(range(nvars)))
    return Poly(nvars, {tuple(e[i] for i in perm): Fraction(1) for e in monos})


@given(quasihomogeneous_polys())
@settings(max_examples=150, deadline=None)
def test_weights_found_whenever_they_exist(h):
    if h.is_constant():
        return
    w = quasihomogeneous_weights(h)
    assert w is not None and all(x > 0 for x in w)
    assert quasihomogeneous_weights(h, allow_zero=True) == w
    assert len({sum(a * b for a, b in zip(e, w)) for e in h.terms}) == 1
    g = 0
    for x in w:
        g = gcd(g, x)
    assert g == 1


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()


def _fraction_product(a: Poly, b: Poly) -> dict:
    """The schoolbook product on `Fraction` coefficients."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def product_factors(draw):
    """Up to 12 terms, with coefficients that are small ints, ratios of
    small ints or ratios of 80-bit ints."""
    big = draw(st.booleans())
    top = 2 ** 80 if big else 9
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(3))
        terms[e] = Fraction(draw(st.integers(-top, top)), draw(st.integers(1, top)))
    return Poly(3, terms)


@given(product_factors(), product_factors(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_product_matches_the_fraction_product(a, b, e):
    """`Poly.__mul__` multiplies int term dicts with the denominators
    cleared; the schoolbook `Fraction` product is the oracle, for products
    and for powers (by repeated squaring, so through the same product)."""
    ab = a * b
    assert ab.terms == _fraction_product(a, b)
    assert all(map(canonical, ab.terms.values()))
    power = Poly.constant(3, 1)
    for _ in range(e):
        power = Poly(3, _fraction_product(power, a))
    assert (a ** e).terms == power.terms


@given(small_polys(), small_polys(), st.integers(0, 3), st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_every_operation_leaves_canonical_coefficients(a, b, e, k):
    """Every coefficient that a `Poly` operation leaves is an int when it is
    integral and a `Fraction` otherwise, including sums of `Fraction`s that
    come out integral: c completes each coefficient of a to the int k."""
    c = Poly(3, {t: k - v for t, v in a.terms.items()})
    results = [a + b, a - b, -a, a * b, a ** e, a + c, b - -c, a.scale(Fraction(2, 3)),
               a.scale(6), a.scale(k), a.primitive()[0], a.set_vars_zero([0]),
               parse_poly(a.format(NAMES), NAMES), *(a.derivative(i) for i in range(3))]
    if not b.is_zero():
        results += [poly_exact_div(a * b, b), poly_exact_div(b * b, b)]
    for r in results:
        assert all(map(canonical, r.terms.values()))
    assert (a + c).terms == {t: k for t in a.terms if k}


def test_parsed_rational_literals_are_canonical():
    """a/b literals are reduced, and an integral one is an int."""
    p = P("x/2 + x/2 + 4/2*y - 3/6*z + 6/4")
    assert p.terms == {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): Fraction(-1, 2),
                       (0, 0, 0): Fraction(3, 2)}
    assert all(map(canonical, p.terms.values()))


@given(small_polys())
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(p):
    assert parse_poly(p.format(NAMES), NAMES) == p


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, syms, p: Poly):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** a for s, a in zip(syms, e)])
                       for e, c in p.terms.items()])


def _from_sympy(sympy, syms, expr) -> dict:
    return {e: Fraction(int(c.p), int(c.q))
            for e, c in sympy.Poly(expr, *syms).as_dict().items()}


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=80, deadline=None)
def test_term_dict_arithmetic_matches_sympy(sympy, a, b, c):
    """+, -, *, derivatives, a vector field applied and exact division agree
    with sympy's arithmetic, and every coefficient they leave is canonical:
    an int when integral, a `Fraction` otherwise.  f = a*b + c is a multiple
    of b exactly when sympy's division by the one polynomial b (a Groebner
    basis of (b)) leaves no remainder."""
    syms = sympy.symbols("x0:3")
    A, B, C = (_to_sympy(sympy, syms, p) for p in (a, b, c))
    field = FreeElement([a, b, c])
    pairs = [(a + b, A + B), (a - b, A - B), (a * b, A * B),
             (apply_field(field, c), sum(X * sympy.diff(C, s) for X, s in zip((A, B, C), syms)))]
    pairs += [(a.derivative(i), sympy.diff(A, s)) for i, s in enumerate(syms)]
    if not b.is_zero():
        f = a * b + c
        q, r = sympy.div(A * B + C, B, *syms)
        if r == 0:
            pairs.append((poly_exact_div(f, b), q))
        else:
            with pytest.raises(PolyError):
                poly_exact_div(f, b)
        pairs.append((poly_exact_div(a * b, b), A))
    for ours, theirs in pairs:
        assert ours.terms == _from_sympy(sympy, syms, sympy.expand(theirs))
        assert all(map(canonical, ours.terms.values()))
