"""Minors, composition and the exterior derivative against textbook definitions."""

from fractions import Fraction
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logforms import exterior
from logforms.exterior import (
    d_packed,
    d_term,
    ext_d,
    form_basis,
    form_rank,
    minor_table,
    pullback,
    wedge,
    wedge_unit,
)
from logforms.logarithmic import poly_det
from logforms.module import FreeElement
from logforms.order import MonomialOrder
from logforms.poly import Poly, _add_product

from conftest import compose, monomial_form, wedge_chain_pullback

NV = 2


@st.composite
def polys(draw, nvars=NV, max_terms=3):
    """Coefficients a / b with |a| <= 3 and b in {1, 2, 3}, so that both the
    int and the `Fraction` coefficients of the integer term dicts occur."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[e] = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))
    return Poly(nvars, terms)


def leibniz_det(sub: list) -> Poly:
    """Sum over permutations of the signed products of entries; 1 when empty."""
    n = len(sub)
    out = Poly.zero(NV)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Poly.constant(NV, sign)
        for i, j in enumerate(perm):
            term = term * sub[i][j]
        out = out + term
    return out


@st.composite
def matrices_with_minor(draw):
    """A 3 x 4 matrix and k distinct rows and columns in a drawn order."""
    matrix = [[draw(polys()) for _ in range(4)] for _ in range(3)]
    k = draw(st.integers(0, 3))
    rows = tuple(draw(st.permutations(range(3)))[:k])
    cols = tuple(draw(st.permutations(range(4)))[:k])
    return matrix, rows, cols


@given(matrices_with_minor())
@settings(max_examples=120, deadline=None)
def test_minor_table_matches_leibniz(case):
    """Every order of the same rows and columns, read from one table, so that
    memoised entries are reused across orders."""
    matrix, rows, cols = case
    minor = minor_table(matrix, NV)
    for r, c in [(tuple(sorted(rows)), tuple(sorted(cols))), (rows, cols),
                 (rows[::-1], cols), (rows, cols[::-1])]:
        assert minor(r, c) == leibniz_det([[matrix[i][j] for j in c] for i in r])


@st.composite
def sparse_matrices_with_minor(draw):
    """A matrix of up to 5 x 5, integral or rational throughout, with
    entries that are mostly zero and with some rows and columns zero
    throughout; and k distinct rows and columns in a drawn order."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    denominators = (1,) if draw(st.booleans()) else (1, 2, 3)
    matrix = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            terms = {}
            if i not in zero_rows and j not in zero_cols and draw(st.booleans()):
                for _ in range(draw(st.integers(1, 2))):
                    e = tuple(draw(st.integers(0, 2)) for _ in range(NV))
                    terms[e] = Fraction(draw(st.integers(-3, 3)),
                                        draw(st.sampled_from(denominators)))
            row.append(Poly(NV, terms))
        matrix.append(row)
    k = draw(st.integers(0, min(nrows, ncols)))
    rows = tuple(draw(st.permutations(range(nrows)))[:k])
    cols = tuple(draw(st.permutations(range(ncols)))[:k])
    return matrix, rows, cols


@given(sparse_matrices_with_minor())
@settings(max_examples=150, deadline=None)
def test_zero_support_rule_matches_leibniz(case):
    """Minors that the zero-support rule skips, and those it expands, agree
    with the Leibniz determinant, in the drawn order and sorted, from one
    table."""
    matrix, rows, cols = case
    minor = minor_table(matrix, NV)
    for r, c in [(rows, cols), (tuple(sorted(rows)), tuple(sorted(cols))), (rows[::-1], cols)]:
        assert minor(r, c) == leibniz_det([[matrix[i][j] for j in c] for i in r])


def _leibniz_terms(matrix: list, rows: tuple, cols: tuple) -> dict:
    """The determinant of matrix[rows][cols], a matrix of term dicts, as a
    term dict of `Fraction`s: the signed sum over permutations of schoolbook
    products, written out here so that it shares no code with the table."""
    k = len(rows)
    out: dict = {}
    for perm in permutations(range(k)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        product = {(0,) * NV: Fraction(sign)}
        for i, j in enumerate(perm):
            step: dict = {}
            for e1, c1 in product.items():
                for e2, c2 in matrix[rows[i]][cols[j]].items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    step[e] = step.get(e, 0) + c1 * c2
            product = step
        for e, c in product.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def sparse_term_matrices(draw):
    """A matrix of term dicts of up to 5 x 5, a quarter to three quarters of
    its entries nonzero, some rows and columns zero throughout, diagonal one
    time in four, with int or rational coefficients; and a few minors of it,
    each k distinct rows and columns in a drawn order, k mostly the least
    side."""
    nrows, ncols = (draw(st.sampled_from((5, 4, 3, 2, 1))) for _ in range(2))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    diagonal = draw(st.integers(0, 3)) == 0
    fill = draw(st.integers(1, 3))  # of four entries, how many are nonzero
    denominators = (1,) if draw(st.booleans()) else (1, 2, 3)
    matrix = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            terms = {}
            if (i not in zero_rows and j not in zero_cols and (i == j or not diagonal)
                    and draw(st.integers(0, 3)) < fill):
                for _ in range(draw(st.integers(1, 2))):
                    e = tuple(draw(st.integers(0, 2)) for _ in range(NV))
                    terms[e] = Fraction(draw(st.integers(-3, 3)),
                                        draw(st.sampled_from(denominators)))
            row.append(Poly(NV, terms).terms)
        matrix.append(row)
    minors = []
    for _ in range(draw(st.integers(1, 4))):
        k = max(0, min(nrows, ncols) - draw(st.sampled_from((0, 0, 1, 2, 3))))
        minors.append((tuple(draw(st.permutations(range(nrows)))[:k]),
                       tuple(draw(st.permutations(range(ncols)))[:k])))
    return matrix, minors


@given(sparse_term_matrices())
@example(([[{(0, 0): 1}, {(1, 0): 2}, {}], [{(0, 1): 3}, {}, {(0, 0): 4}],
           [{(0, 0): 5}, {}, {(2, 0): Fraction(1, 2)}]], [((0, 1, 2), (0, 1, 2))]))
@settings(max_examples=200, deadline=None)
def test_sparsest_line_expansion_matches_leibniz(case):
    """`_minor_terms`, whichever line it expands along, gives the Leibniz
    determinant of every minor asked of one table, in the drawn order of its
    rows and columns and reversed.  The example's sparsest line is its
    middle column."""
    matrix, minors = case
    minor = exterior._minor_terms(matrix, NV)
    for rows, cols in minors:
        for r, c in [(rows, cols), (rows[::-1], cols), (rows, cols[::-1])]:
            assert minor(r, c) == _leibniz_terms(matrix, r, c)


def test_diagonal_minor_table_expands_only_principal_minors(monkeypatch):
    """Every minor of every size of a diagonal 4 x 4 matrix, read from one
    table, multiplies out one entry per nonempty principal minor (2^4 - 1
    products): every other minor has a row that is zero on its columns."""
    products = []
    monkeypatch.setattr(exterior, "_add_product",
                        lambda *args: products.append(args) or _add_product(*args))
    n = 4
    matrix = [[Poly.variable(NV, 0) + Poly.constant(NV, i) if i == j else Poly.zero(NV)
               for j in range(n)] for i in range(n)]
    minor = minor_table(matrix, NV)
    for k in range(n + 1):
        for rows in form_basis(n, k):
            for cols in form_basis(n, k):
                expected = leibniz_det([[matrix[i][j] for j in cols] for i in rows])
                assert minor(rows, cols) == expected
                assert expected.is_zero() == (rows != cols)
    assert len(products) == 2 ** n - 1


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(polys(), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_poly_det_matches_leibniz(matrix):
    assert poly_det(matrix) == leibniz_det(matrix)


@st.composite
def pullback_inputs(draw):
    """One to three polynomials (0-forms) on C^target_n, and a map."""
    target_n = draw(st.integers(1, 3))
    source_n = draw(st.integers(1, 3))
    components = [draw(polys(source_n)) for _ in range(target_n)]
    ps = [draw(polys(target_n, 2)) for _ in range(draw(st.integers(1, 3)))]
    return ps, target_n, components, source_n


@given(pullback_inputs())
@settings(max_examples=120, deadline=None)
def test_pullback_matches_wedge_chains(case):
    """Polynomials composed together, sharing one memo of composed
    monomials, each equal their 0-form wedge chain (`compose`)."""
    ps, target_n, components, source_n = case
    assert (pullback(ps, components)
            == [wedge_chain_pullback(0, target_n, FreeElement([p]), components,
                                     source_n).entries[0] for p in ps])


def test_pullback_builds_no_minor_table(call_counter):
    """`pullback` only composes: it builds no minor table, of dF or any
    other matrix."""
    tables = call_counter("exterior", "_minor_terms")
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = Poly(2, {(1, 1): 1, (3, 0): 2})
    assert pullback([h], [x * y, x + y]) == [compose(h, [x * y, x + y])]
    assert not tables


@st.composite
def forms_and_basis_forms(draw):
    """A k-form a and a basis form dx_M on C^n, n <= 4."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    a = FreeElement([draw(polys()) for _ in range(max(form_rank(n, k), 1))])
    M = draw(st.sampled_from(form_basis(n, draw(st.integers(0, n)))))
    return n, k, a, M


@given(forms_and_basis_forms())
@settings(max_examples=120, deadline=None)
def test_wedge_unit_matches_wedge(case):
    n, k, a, M = case
    unit = monomial_form(n, len(M), NV, M, Poly.constant(NV, 1))
    assert wedge_unit(n, k, a, M) == wedge(n, k, a, len(M), unit)


@st.composite
def monomial_forms(draw):
    """x^e dx_I over n <= 4 variables, with |I| < n."""
    n = draw(st.integers(1, 4))
    I = draw(st.sampled_from(form_basis(n, draw(st.integers(0, n - 1)))))
    e = tuple(draw(st.integers(0, 3)) for _ in range(n))
    return n, I, e


def d_vec(n: int, k: int, vec: dict) -> dict:
    """d of a vec of k-forms, summed term by term with `d_term`."""
    out: dict = {}
    for (pos, e), c in vec.items():
        for t, v in d_term(n, form_basis(n, k)[pos], e).items():
            out[t] = out.get(t, 0) + c * v
    return {t: c for t, c in out.items() if c}


@given(monomial_forms())
@settings(max_examples=150, deadline=None)
def test_d_image_matches_ext_d(case):
    """The integer image of one term is `ext_d` of its monomial form, and the
    sum over v of d(x^e)/dx_v dx_v ^ dx_I through `wedge`; d of it is zero."""
    n, I, e = case
    k = len(I)
    image = d_term(n, I, e)
    x_e = Poly.monomial(n, e)
    assert image == ext_d(n, k, monomial_form(n, k, n, I, x_e)).vec()
    dx_I = monomial_form(n, k, n, I, Poly.constant(n, 1))
    leibniz = FreeElement.zero(form_rank(n, k + 1), n)
    for v in range(n):
        leibniz = leibniz + wedge(n, 1, monomial_form(n, 1, n, (v,), x_e.derivative(v)), k, dx_I)
    assert image == leibniz.vec()
    assert all(type(c) is int for c in image.values())
    assert d_vec(n, k + 1, image) == {}


@given(monomial_forms(), st.integers(0, 2), st.data())
@settings(max_examples=150, deadline=None)
def test_d_packed_is_d_term_packed(case, extra, data):
    """On the packed terms of the order with drawn weights, over a ring with
    extra undifferentiated variables, d of a packed term is the packed
    `d_term`."""
    n, I, e = case
    e = e + tuple(data.draw(st.integers(0, 3)) for _ in range(extra))
    weights = data.draw(st.tuples(*[st.integers(1, 3)] * (n + extra)))
    layout = MonomialOrder(weights).layout(n + extra)
    pos = form_basis(n, len(I)).index(I)
    image = d_packed(n, len(I), layout)(layout.pack((pos, e)))
    assert image == {layout.pack(t): c for t, c in d_term(n, I, e).items()}


def test_pullback_of_a_high_power():
    """The memo of composed monomials reaches x^1500 without deep recursion."""
    f = FreeElement([Poly(1, {(1500,): 1})])
    assert pullback([Poly(1, {(1500,): 1})], [Poly(1, {(1,): 2})]) == [Poly(1, {(1500,): 2 ** 1500})]
