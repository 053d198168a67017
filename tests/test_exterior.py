"""Minors and pullbacks of the exterior algebra against textbook definitions."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from logforms.exterior import form_basis, form_rank, minor_table, pullback, wedge
from logforms.logarithmic import poly_det
from logforms.module import FreeElement
from logforms.poly import Poly

NV = 2


@st.composite
def polys(draw, nvars=NV, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[e] = Fraction(draw(st.integers(-3, 3)))
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


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(polys(), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_poly_det_matches_leibniz(matrix):
    assert poly_det(matrix) == leibniz_det(matrix)


def wedge_chain_pullback(k: int, target_n: int, form: FreeElement, components: list,
                         source_n: int) -> FreeElement:
    """Pullback as the sum of c(f) * df_j1 ^ ... ^ df_jk over the target
    basis forms dy_J, each a chain of `wedge` calls."""
    nv = components[0].nvars
    if k == 0:
        return FreeElement([form.entries[0].compose(components)])
    dcomp = [FreeElement([f.derivative(v) for v in range(source_n)]) for f in components]
    out = FreeElement.zero(max(form_rank(source_n, k), 1), nv)
    for pos, J in enumerate(form_basis(target_n, k)):
        pulled_c = form.entries[pos].compose(components)
        if pulled_c.is_zero():
            continue
        block, deg = dcomp[J[0]], 1
        for j in J[1:]:
            block = wedge(source_n, deg, block, 1, dcomp[j])
            deg += 1
        out = out + block.scale(pulled_c)
    return out


@st.composite
def pullback_inputs(draw):
    target_n = draw(st.integers(1, 3))
    source_n = draw(st.integers(1, 3))
    k = draw(st.integers(0, target_n))
    components = [draw(polys(source_n)) for _ in range(target_n)]
    form = FreeElement([draw(polys(target_n, 2)) for _ in range(max(form_rank(target_n, k), 1))])
    return k, target_n, form, components, source_n


@given(pullback_inputs())
@settings(max_examples=120, deadline=None)
def test_pullback_matches_wedge_chains(case):
    k, target_n, form, components, source_n = case
    assert (pullback(k, target_n, form, components, source_n)
            == wedge_chain_pullback(k, target_n, form, components, source_n))
