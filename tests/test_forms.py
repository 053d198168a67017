"""Torsion-reduced forms: presentations, torsion, contraction, de Rham slices."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logforms import cli, groebner, logarithmic
from logforms.exterior import d_term, form_basis, monomial_form, pullback, wedge
from logforms.forms import (
    CheckedFormsModule,
    FormsError,
    GradedSlices,
    _linear_form,
    class_is_torsion,
    cokernel_slice_dims,
    contract_class,
    contraction_well_defined,
    de_rham_report_sliced,
    forms_free,
    forms_free_relative,
    forms_pullback,
    forms_pullback_degrees,
    forms_relative,
    pd_check,
    pullback_relations_by_degree,
    subquotient_dimension,
    torsion_length,
    torsion_saturation,
)
from logforms.groebner import (
    LinSpace,
    QuotientTable,
    groebner_basis,
    is_member,
    kernel_of_map,
    quotient_dimension,
    saturate,
)
from logforms.jobio import JobSpec
from logforms.logarithmic import Divisor, euler_field, is_free, log_form_generators, saito_check
from logforms.module import INFINITE, FreeElement, Grading, ModulePresentation
from logforms.order import MonomialOrder
from logforms.poly import Poly, parse_poly

from conftest import (
    certified,
    compose,
    generic_arrangements,
    independent,
    monomials_of_weight,
    normal_crossing_basis,
    submodules_equal,
)

ORD = MonomialOrder()


def test_degree_zero_is_structure_ring(nc3):
    d, basis = nc3
    m0 = forms_free(basis, 0)
    qt = m0.table()
    assert qt.table(4) == {0: 1, 1: 3, 2: 6, 3: 9, 4: 12}


def test_top_degree_vanishes_for_free(nc3, calderon):
    for d, basis in (nc3, calderon):
        top = forms_free(basis, d.nvars)
        assert quotient_dimension(top.presentation(), ORD) == 0


def test_smooth_divisor_degree_one():
    names = ["x", "y", "z"]
    d = Divisor(names, parse_poly("x", names), weights=(1, 1, 1))
    basis = is_free(d).basis
    m1 = forms_free(basis, 1)
    rels = groebner_basis(m1.relations, ORD)
    expected = [monomial_form(3, 1, 3, (0,), Poly.constant(3, 1)),
                monomial_form(3, 1, 3, (1,), Poly.variable(3, 0)),
                monomial_form(3, 1, 3, (2,), Poly.variable(3, 0))]
    assert submodules_equal(rels, expected, ORD)


def test_pd_check_free_cases(nc3, calderon):
    for d, basis in (nc3, calderon):
        for k in range(0, d.nvars + 1):
            assert pd_check(forms_free(basis, k))


def test_contract_coordinate_example():
    names = ["x", "y"]
    d = Divisor(names, parse_poly("x*y", names), weights=(1, 1))
    basis = is_free(d).basis
    m2 = forms_free(basis, 2)
    chi = FreeElement([Poly.variable(2, 0), Poly.zero(2)])  # x d/dx
    form = monomial_form(2, 2, 2, (0, 1), Poly.constant(2, 1))
    res = contract_class(m2, chi, form)
    assert res == monomial_form(2, 1, 2, (1,), Poly.variable(2, 0))


def test_contract_rejects_non_logarithmic_field(nc2):
    d, basis = nc2
    m1 = forms_free(basis, 1)
    bad = FreeElement([Poly.constant(2, 1), Poly.zero(2)])
    with pytest.raises(FormsError):
        contract_class(m1, bad, monomial_form(2, 1, 2, (0,), Poly.constant(2, 1)))


def test_contraction_preserves_relations(nc3, four_planes_afd):
    d, basis = nc3
    mods = [forms_free(basis, k) for k in range(0, 4)]
    for chi in basis.fields():
        for k in range(1, 4):
            assert contraction_well_defined(mods[k], mods[k - 1], chi)
    setup = four_planes_afd
    afd = [forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, k,
                          weights=setup.weights) for k in range(0, 4)]
    chi = euler_field((1, 1, 1), 3)
    for k in range(1, 4):
        assert contraction_well_defined(afd[k], afd[k - 1], chi)


def test_torsion_smooth_is_zero():
    names = ["x", "y"]
    d = Divisor(names, parse_poly("x", names), weights=(1, 1))
    basis = is_free(d).basis
    for k in (0, 1):
        assert torsion_length(forms_free(basis, k)) == 0


def test_torsion_of_codim_one_afd(four_planes_afd):
    setup = four_planes_afd
    m2 = forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, 2,
                        weights=setup.weights)
    assert torsion_length(m2) == 1
    # the radial contraction of the volume form is a nonzero torsion class
    chi = euler_field((1, 1, 1), 3)
    vol = monomial_form(3, 3, 3, (0, 1, 2), Poly.constant(3, 1))
    m3 = forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, 3,
                        weights=setup.weights)
    cls = contract_class(m3, chi, vol)
    assert not m2.class_is_zero(cls)
    assert class_is_torsion(m2, cls)


def test_torsion_matches_lips_codimension(lips_afd):
    setup = lips_afd
    m1 = forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, 1,
                        weights=(1, 3))
    assert torsion_length(m1) == 1


def test_de_rham_exact_smooth():
    names = ["x", "y"]
    d = Divisor(names, parse_poly("x", names), weights=(1, 1))
    basis = is_free(d).basis
    mods = [forms_free(basis, k) for k in range(0, 3)]
    rep = de_rham_report_sliced(mods, 5)
    assert rep["all_exact"]


def test_de_rham_exact_plane_pair(nc2):
    d, basis = nc2
    mods = [forms_free(basis, k) for k in range(0, 3)]
    rep = de_rham_report_sliced(mods, 8)
    assert rep["all_exact"]
    assert rep["per_degree"][0]["cohomology"][0] == 1


def test_de_rham_exact_four_planes_afd(four_planes_afd):
    setup = four_planes_afd
    mods = [forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, k,
                           weights=setup.weights) for k in range(0, 4)]
    rep = de_rham_report_sliced(mods, 8)
    assert rep["all_exact"]


def _four_planes_modules(setup, ks):
    return [forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, k,
                           weights=setup.weights) for k in ks]


def _sliced_to(mods, bound) -> dict:
    """Every slice of degree 0..bound of the augmented complex: the oracle
    of the report's proof, and the workload of the slice tests below."""
    slices = GradedSlices(mods)
    out = {}
    for degree in range(bound + 1):
        coh = slices.cohomology_dims(degree)
        out[degree] = {"cohomology": coh,
                       "exact": coh == [int(degree == 0)] + [0] * (len(coh) - 1)}
    return out


def _exact_to(mods, bound) -> bool:
    return all(r["exact"] for r in _sliced_to(mods, bound).values())


HOMOTOPY = "Euler-field homotopy (contraction checked)"

REFLECTION = {"A2": "x*y*(x-y)", "B2": "x*y*(x-y)*(x+y)", "A3": "x*y*z*(x-y)*(x-z)*(y-z)",
              "B3": "x*y*z*(x-y)*(x+y)*(x-z)*(x+z)*(y-z)*(y+z)"}


@st.composite
def graded_complexes(draw):
    """Levels 0..n of the forms of a reflection arrangement after a
    unitriangular integer change of coordinates (free: `forms_free`), or of
    a generic arrangement pulled back from normal crossing
    (`forms_pullback_degrees`), all with weights 1."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(REFLECTION)))
        n = int(kind[1])
        names = ["x", "y", "z"][:n]
        coords = [Poly(n, {tuple(int(c == j) for c in range(n)):
                           1 if j == i else draw(st.integers(-2, 2)) for j in range(i, n)})
                  for i in range(n)]
        h = compose(parse_poly(REFLECTION[kind], names), coords)
        basis = certified(Divisor(names, h, weights=(1,) * n))
        return [forms_free(basis, k) for k in range(n + 1)]
    n, m, rows = draw(generic_arrangements())
    names = [f"x{i + 1}" for i in range(n)]
    comps = [Poly(n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(r) if c})
             for r in rows]
    return forms_pullback_degrees(normal_crossing_basis(m), comps, names, range(n + 1),
                                  (1,) * n)


@given(graded_complexes())
@settings(max_examples=40, deadline=None)
def test_de_rham_report_agrees_with_every_slice(mods):
    """Contraction by the Euler field maps each relation level into the one
    below, so the report proves every degree; its degree 0 is the slice,
    and the slices of every positive degree are zero."""
    n = mods[0].n
    full = _sliced_to(mods, 6)
    rep = de_rham_report_sliced(mods, 6)
    chi = euler_field((1,) * n, n)
    assert all(contraction_well_defined(mods[k], mods[k - 1], chi) for k in range(1, n + 1))
    assert rep["positive_degrees"] == HOMOTOPY
    assert rep["per_degree"] == {0: full[0]}
    assert all(full[degree]["cohomology"] == [0] * (n + 1) for degree in range(1, 7))
    assert rep["all_exact"] and full[0]["exact"]


def test_de_rham_report_reads_no_slice(nc4, four_planes_afd, call_counter):
    """The report proves every degree, so it builds no `GradedSlices`, walks
    no slice basis and builds no table of the top level: the contraction
    check reads the tables of levels 0..n-1 alone."""
    _, basis = nc4
    bases = call_counter("forms", "GradedSlices.basis")
    slices = call_counter("forms", "GradedSlices")
    tables = call_counter("forms", "CheckedFormsModule.table")
    for mods in ([forms_free(basis, k) for k in range(0, 5)],
                 _four_planes_modules(four_planes_afd, range(0, 4))):
        n = mods[0].n
        rep = de_rham_report_sliced(mods, 8)
        assert rep["all_exact"] and rep["positive_degrees"] == HOMOTOPY
        assert rep["per_degree"] == {0: {"cohomology": [1] + [0] * n, "exact": True}}
        assert {m.k for m, in tables} == set(range(n))
        del tables[:]
    assert not slices and not bases


def _complex_without_contraction() -> list:
    """R_0 = 0, R_1 = (x dy) and R_2 = every 2-form on C^2, weights (1, 1):
    a complex (d(x dy) = dx^dy), but i_E(x dy) = xy is not in R_0 and
    i_E(dx^dy) = x dy - y dx is not in R_1."""
    names, h = ["x", "y"], parse_poly("x*y", ["x", "y"])
    rels = {0: [], 1: [monomial_form(2, 1, 2, (1,), Poly.variable(2, 0))],
            2: [monomial_form(2, 2, 2, (0, 1), Poly.constant(2, 1))]}
    return [CheckedFormsModule(names, 2, k, rels[k], h, weights=(1, 1)) for k in range(3)]


def test_de_rham_report_raises_where_contraction_fails(four_planes_afd):
    """On `_complex_without_contraction` the homotopy proves nothing, and
    the report names the first level contraction leaves, although every
    slice is exact.  A complex missing its top level proves nothing
    either."""
    mods = _complex_without_contraction()
    chi = euler_field((1, 1), 2)
    assert not contraction_well_defined(mods[1], mods[0], chi)
    assert not contraction_well_defined(mods[2], mods[1], chi)
    assert _exact_to(mods, 6)
    with pytest.raises(FormsError, match="^de Rham exactness is not proven: contraction "
                                         "does not preserve relations at degree 1$"):
        de_rham_report_sliced(mods, 6)
    partial = _four_planes_modules(four_planes_afd, range(0, 3))
    with pytest.raises(FormsError, match=r"^de Rham exactness is not proven: levels are not "
                                         r"0\.\.3$"):
        de_rham_report_sliced(partial, 4)


def test_de_rham_check_without_contraction_exits_3(tmp_path, capsys, monkeypatch):
    """A `de-rham-check` job whose complex is `_complex_without_contraction`
    has no proof: a failed precondition (exit 3) that names the level, not
    a record exact up to the bound."""
    mods = _complex_without_contraction()
    monkeypatch.setattr(cli, "_forms_modules", lambda job, degrees: (mods, mods[0].h, (1, 1)))
    job = tmp_path / "job.job"
    job.write_text('ring { x, y };\ncommand de-rham-check;\noption degree-bound 6;\n')
    assert cli.main(["--input", str(job)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition failure: de Rham exactness is not proven: "
                            "contraction does not preserve relations at degree 1\n")


def _xy_complex(rels: dict) -> list:
    """Levels 0..2 on C^2 (names x, y) with the given relations and no
    weights of their own."""
    h = parse_poly("x*y", ["x", "y"])
    return [CheckedFormsModule(["x", "y"], 2, k, rels[k], h) for k in range(3)]


def test_de_rham_homotopy_rejects_a_relation_of_weight_zero():
    """Under the weights (1, 0) the relation y of level 0 has weight 0 and
    x + x^2 is not homogeneous: the radial field proves nothing, and the
    report says why."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    for r in (y, x + x * x):
        mods = _xy_complex({0: [FreeElement([r])], 1: [], 2: []})
        with pytest.raises(FormsError, match="^de Rham exactness is not proven: relation "
                                             "generator not homogeneous of positive weight$"):
            de_rham_report_sliced(mods, 6, (1, 0))


def test_de_rham_homotopy_needs_every_level():
    """Without its top level the complex proves nothing under a zero weight:
    the homotopy needs dw in R_(k+1) at every level k it certifies."""
    x = Poly.variable(2, 0)
    mods = _xy_complex({0: [], 1: [monomial_form(2, 1, 2, (1,), x)], 2: []})[:2]
    with pytest.raises(FormsError,
                       match=r"^de Rham exactness is not proven: levels are not 0\.\.2$"):
        de_rham_report_sliced(mods, 6, (1, 0))


def test_de_rham_homotopy_names_the_level_contraction_leaves():
    """Under the weights (1, 0) the radial field is x d/dx.  With R_1 = (y dx)
    and R_2 = (dx^dy) it sends y dx to xy, outside R_0 = 0: the report names
    level 1.  With R_1 = (x^2 dy) it keeps R_1 in R_0 but sends dx^dy to
    x dy, outside R_1: the report names level 2.  With R_1 = (x dy) every
    level passes and every degree up to the bound is certified."""
    x, y, one = Poly.variable(2, 0), Poly.variable(2, 1), Poly.constant(2, 1)
    top = [monomial_form(2, 2, 2, (0, 1), one)]
    for form, level in ((monomial_form(2, 1, 2, (0,), y), 1),
                        (monomial_form(2, 1, 2, (1,), x * x), 2)):
        mods = _xy_complex({0: [], 1: [form], 2: top})
        with pytest.raises(FormsError, match="^de Rham exactness is not proven: contraction "
                                             f"does not preserve relations at degree {level}$"):
            de_rham_report_sliced(mods, 6, (1, 0))
    rep = de_rham_report_sliced(_xy_complex({0: [], 1: [monomial_form(2, 1, 2, (1,), x)],
                                             2: top}), 2, (1, 0))
    assert rep == {"mode": "homotopy", "all_exact": True, "per_degree": {
        0: {"exact": True,
            "certificate": "weight-zero slice is the de Rham complex of the zero-weight variables"},
        1: {"exact": True, "certificate": "radial-contraction homotopy"},
        2: {"exact": True, "certificate": "radial-contraction homotopy"}}}


def test_de_rham_check_whose_hypothesis_fails_exits_3(tmp_path, capsys, monkeypatch):
    """A failed hypothesis is a failed precondition under either kind of
    weights, never a CERTIFIED record: the positive-weight job whose
    relations are not homogeneous (x*y*(x+y+x^2) has no weights, and is
    given (1, 1)), and a zero-weight complex that contraction leaves at
    level 1."""
    job = tmp_path / "job.job"
    job.write_text('ring { x, y };\nweights ( 1, 1 );\ntarget-ring { u, v, w };\n'
                   'target-divisor "u*v*w";\nmap ( "x", "y", "x+y+x^2" );\n'
                   'command de-rham-check;\n')
    y = Poly.variable(2, 1)
    mods = _xy_complex({0: [], 1: [monomial_form(2, 1, 2, (0,), y)],
                        2: [monomial_form(2, 2, 2, (0, 1), Poly.constant(2, 1))]})

    def exits_3(reason):
        assert cli.main(["--input", str(job)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"precondition failure: de Rham exactness is not proven: {reason}\n"

    exits_3("relation generator not homogeneous of positive weight")
    monkeypatch.setattr(cli, "_forms_modules", lambda job, degrees: (mods, mods[0].h, (1, 0)))
    exits_3("contraction does not preserve relations at degree 1")


def test_slices_compute_one_basis_per_module(four_planes_afd, gb_calls):
    """A module's one Groebner basis serves both its slice bases and the
    normal forms that land in it.  The report reads the tables of levels
    0..n-1 alone, each built once."""
    mods = _four_planes_modules(four_planes_afd, range(0, 4))
    assert de_rham_report_sliced(mods, 8)["all_exact"]
    assert len(gb_calls) == 3
    del gb_calls[:]
    top = cokernel_slice_dims(_four_planes_modules(four_planes_afd, (1, 2)), 2, 12)
    assert sum(top.values()) == 1
    assert len(gb_calls) == 2


def test_torsion_saturation_computes_no_basis_twice(four_planes_afd, gb_calls):
    """Every colon step returns a reduced basis, so the chain computes one
    basis (of its input), and the length is read off the leads of that basis
    and of the saturation's with none more."""
    setup = four_planes_afd
    m = forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names, 2,
                       weights=setup.weights)
    assert torsion_length(m) == 1
    assert len(gb_calls) == 1


@lru_cache(maxsize=None)
def _normal_crossing_basis(m):
    """The Saito basis w_i d/dw_i of w1*...*wm."""
    names = [f"w{i + 1}" for i in range(m)]
    ws = [Poly.variable(m, i) for i in range(m)]
    h = Poly.constant(m, 1)
    for w in ws:
        h = h * w
    fields = [FreeElement([ws[i] if j == i else Poly.zero(m) for j in range(m)])
              for i in range(m)]
    return saito_check(Divisor(names, h, weights=(1,) * m), fields)[0]


def _pulled_back_planes(rows, k):
    """Degree-k forms on the arrangement of the planes with the given
    coefficient rows in C^3, pulled back from normal crossing."""
    names = ["x1", "x2", "x3"]
    comps = [Poly(3, {tuple(int(i == j) for j in range(3)): c for i, c in enumerate(r) if c})
             for r in rows]
    return forms_pullback(_normal_crossing_basis(len(rows)), comps, names, k, weights=(1, 1, 1))


def _maximal_ideal_chain(m):
    """The saturation by the colon chain of (x_1, ..., x_n), and its length."""
    order = m.order()
    variables = [Poly.variable(m.nvars, i) for i in range(m.nvars)]
    sat = saturate(m.relations, m.rank, variables, order)
    return sat, subquotient_dimension(sat, groebner_basis(m.relations, order), order, m.nvars)


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


@given(st.integers(4, 5).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(-3, 3)] * 3), min_size=m, max_size=m)))
@settings(max_examples=12, deadline=None)
def test_torsion_by_one_linear_form_matches_the_maximal_ideal_chain(rows):
    """On generic arrangements in C^3 the saturation by the one linear form,
    once certified, is the saturation by the maximal ideal."""
    assume(all(_det3(a, b, c) for a, b, c in combinations(rows, 3)))
    m = _pulled_back_planes(rows, 2)
    sat, length = _maximal_ideal_chain(m)
    assert length == comb(len(rows) - 1, 3)
    assert torsion_length(m) == length
    assert torsion_saturation(m) == sat


def test_torsion_falls_back_when_the_linear_form_is_a_plane(call_counter):
    """Under unit weights the linear form is 2*x1 + 3*x2 + 5*x3, here one of
    the planes: its saturation is infinite over the module, so the maximal
    ideal's chain decides."""
    m = _pulled_back_planes([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 5)], 2)
    calls = call_counter("groebner", "saturate")
    assert torsion_length(m) == 1
    x = [Poly.variable(3, i) for i in range(3)]
    assert [list(c[2]) for c in calls] == [[x[0].scale(2) + x[1].scale(3) + x[2].scale(5)], x]


def test_torsion_chains_start_from_one_basis(gb_calls):
    """When the linear form's saturation is infinite, the maximal ideal's
    chain starts from the relations' basis the first chain started from, and
    both lengths are read off leads: one basis, of the relations."""
    m = _pulled_back_planes([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 5)], 2)
    del gb_calls[:]
    assert torsion_length(m) == 1
    assert len(gb_calls) == 1


def _kernel_route(big, small, order, nvars):
    """dim <big>/<small> for nested submodules as the dimension of O^len(big)
    modulo the kernel of big -> O^rank/<small>: two more Groebner bases (the
    kernel's and its quotient's), the route the count off the leads
    replaced, kept as its oracle."""
    K = kernel_of_map(big, small, order)
    return quotient_dimension(ModulePresentation(len(big), K, nvars=nvars), order)


def _ideal(nvars, *texts):
    names = ["x", "y", "z"][:nvars]
    return [FreeElement([parse_poly(t, names)]) for t in texts]


def test_lead_gap_count_of_monomial_ideals():
    """(x^2, y^2) in (x, y^2) leaves x and x*y; (x^2) in (x) leaves x*y^j
    for every j."""
    cases = [((2, "x^2", "y^2"), (2, "x", "y^2"), 2), ((2, "x^2"), (2, "x"), INFINITE),
             ((3, "x^2", "y^2", "z"), (3, "x", "y^2", "z"), 2), ((2, "x^2", "y^3"), (2, "1"), 6)]
    for (nv, *small), (_, *big), expected in cases:
        gb_small, gb_big = groebner_basis(_ideal(nv, *small), ORD), groebner_basis(_ideal(nv, *big), ORD)
        assert subquotient_dimension(gb_big, gb_small, ORD, nv) == expected
        assert _kernel_route(gb_big, gb_small, ORD, nv) == expected
    gb = groebner_basis(_ideal(2, "x^2", "y"), ORD)
    assert subquotient_dimension(gb, gb, ORD, 2) == 0


@st.composite
def _arrangement_modules(draw):
    """(module, plane): the degree-k forms, k < n, of a generic arrangement in
    C^2..C^4 pulled back from normal crossing, and whether the linear form
    of `_linear_form` is one of its planes."""
    n, m, rows = draw(generic_arrangements())
    plane = draw(st.booleans())
    if plane:  # the coefficients of `_linear_form` under unit weights
        rows = rows + [[2, 3, 5, 7][:n]]
        assume(all(independent([rows[i] for i in s]) for s in combinations(range(len(rows)), n)))
    k = draw(st.integers(0, n - 1))
    names = [f"x{i + 1}" for i in range(n)]
    comps = [Poly(n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(r) if c})
             for r in rows]
    return forms_pullback(normal_crossing_basis(len(rows)), comps, names, k, weights=(1,) * n), plane


@given(_arrangement_modules())
@settings(max_examples=25, deadline=None)
def test_lead_gap_count_matches_the_kernel_route(case):
    """After the linear form's chain and after the maximal ideal's, the count
    off the leads of the two bases is the kernel route's dimension; with the
    linear form a plane of the arrangement, its saturation is infinite over
    the module on both routes."""
    m, plane = case
    order, n = m.order(), m.nvars
    gb = groebner_basis(m.relations, order)
    variables = [Poly.variable(n, i) for i in range(n)]
    for chain in ([_linear_form((1,) * n)], variables):
        sat = saturate(gb, m.rank, chain, order)
        length = subquotient_dimension(sat, gb, order, n)
        assert length == _kernel_route(sat, m.relations, order, n)
        if plane and len(chain) == 1:
            assert length == INFINITE


def test_ungraded_torsion_takes_the_maximal_ideal_chain(calderon, call_counter):
    _, basis = calderon
    m = forms_free(basis, 1)
    assert m.grading() is None
    calls = call_counter("groebner", "saturate")
    assert torsion_length(m) == 0
    assert [list(c[2]) for c in calls] == [[Poly.variable(3, i) for i in range(3)]]


def test_slices_enumerate_each_slice_once(four_planes_afd, call_counter):
    """One staircase enumeration per (module, degree) pair."""
    calls = call_counter("groebner", "QuotientTable.standard_monomials")
    mods = _four_planes_modules(four_planes_afd, range(0, 4))
    assert _exact_to(mods, 8)
    assert len(calls) == 4 * 9


def test_slices_walk_each_level_once(four_planes_afd, monkeypatch):
    """Each table walks the staircase of each component once, and builds
    each degree of it once, however many slices ask for it: the slices read
    the degrees they need from the walk the table keeps."""
    started, built = [], []
    walk = groebner._staircase

    def counting(comp, weights, leads, layout):
        started.append((id(leads), comp))
        for degree, level in enumerate(walk(comp, weights, leads, layout)):
            built.append((id(leads), comp, degree))
            yield level

    monkeypatch.setattr(groebner, "_staircase", counting)
    mods = _four_planes_modules(four_planes_afd, range(0, 4))
    assert _exact_to(mods, 8)
    assert len(started) == len(set(started)) == sum(m.rank for m in mods)
    assert len(built) == len(set(built))
    # each walk built its degrees in turn from 0, and no further than the
    # slices of degree up to 8 needed
    shifts = {(id(m.table()._lead_terms), c): s
              for m in mods for c, s in enumerate(m.table().pres.grading.shifts)}
    for key in started:
        degrees = [d for t, c, d in built if (t, c) == key]
        assert degrees == list(range(len(degrees)))
        assert len(degrees) <= 8 - shifts[key] + 1
    # rebuilding each slice's degrees from 0 would repeat work
    rebuilt = sum(max(0, degree - s + 1) for s in shifts.values() for degree in range(0, 9))
    assert len(built) < rebuilt


def test_slices_build_one_reducer_table_per_module(nc4, call_counter):
    """Every slice coordinate of a module reduces through the one reducer
    table its `QuotientTable` keeps."""
    _, basis = nc4
    calls = call_counter("groebner", "_reducers_of")
    mods = [forms_free(basis, k) for k in range(0, 5)]
    assert _exact_to(mods, 6)
    # d leaves level 0 into level 1 and so on: levels 1..3 are reduced into;
    # every slice of level 4 is zero, so no column into it is computed
    assert all(mods[4].table().dim(degree) == 0 for degree in range(0, 7))
    assert len(calls) == 3


def _built_tables(mods):
    """Each module's table with its reducer table, built before counting: the
    Groebner bases divide and clear denominators too."""
    tables = [m.table() for m in mods]
    for qt in tables:
        qt.reduce({})
    return tables


def test_slices_reduce_each_term_once(four_planes_afd, call_counter, monkeypatch):
    """Once the tables are built, reducing the slice images pseudo-divides
    nothing: each distinct term a table's memo holds took exactly one reducer
    step, which found a reducer exactly when the term is not standard."""
    mods = _four_planes_modules(four_planes_afd, range(0, 4))
    tables = _built_tables(mods)
    divisions = call_counter("groebner", "_reduce_full")
    reduced = call_counter("groebner", "QuotientTable.reduce_integral")
    steps = []
    find = groebner._Reducers.find

    def stepping(reducers, term):
        hit = find(reducers, term)
        steps.append(((reducers, term), hit is not None))
        return hit

    monkeypatch.setattr(groebner._Reducers, "find", stepping)
    assert _exact_to(mods, 8)
    assert not divisions
    memo = {(qt._reducers, t): nf is not None for qt in tables for t, nf in qt._term_nfs.items()}
    assert len(steps) == len(memo)
    assert dict(steps) == memo
    assert any(memo.values()) and not all(memo.values())
    # the images of d share terms, so reducing them whole would repeat work
    named = {(table, t) for table, vec in reduced for t in vec}
    assert len(named) < sum(len(vec) for _, vec in reduced)


def test_slices_make_no_fraction_round_trip(nc4, four_planes_afd, call_counter):
    """The slice echelon takes the integer normal forms as they are: no
    value becomes a `Fraction` and is cleared again."""
    _, basis = nc4
    free = [forms_free(basis, k) for k in range(0, 5)]
    pulled = _four_planes_modules(four_planes_afd, range(0, 4))
    _built_tables(free + pulled)
    rational = call_counter("groebner", "_rational")
    integral = call_counter("groebner", "_integral")
    assert _exact_to(free, 6)
    assert _exact_to(pulled, 8)
    assert not rational and not integral


def test_redundant_relations_join_no_basis(four_planes_afd, call_counter):
    """The 18 level-2 relations of the four planes enter the Buchberger loop
    from its heap, each reduced against the basis so far: only the 6 that
    do not reduce to zero join the basis, and interreduction keeps all 6.
    Added unreduced, every relation would join it."""
    m = _four_planes_modules(four_planes_afd, (2,))[0]
    call_counter("groebner", "_buchberger_vecs")
    call_counter("groebner", "_Reducers.add")
    call_counter("groebner", "_interreduce")
    gb = groebner_basis(m.relations, m.order())
    names = [name for name, _ in call_counter.log]
    assert names.count("_buchberger_vecs") == 1
    added = names.index("_interreduce") - names.index("_buchberger_vecs") - 1
    assert len(m.relations) == 18
    assert added == len(gb) == 6


def test_slice_rank_reads_columns_until_the_target_dimension(call_counter):
    """On five planes in C^4, pulled back from normal crossing in C^5 (top
    level 3, bound 12), `cokernel_slice_dims` computes the columns of d in
    each degree only until their rank is the dimension of the target slice:
    one `_slice_coordinates` call per column of the shortest full-rank
    prefix, or per column where no prefix has full rank."""
    names = ["x1", "x2", "x3", "x4"]
    comps = [parse_poly(t, names) for t in ("x1", "x2", "x3", "x4", "x1+x2+x3+x4")]
    mods = forms_pullback_degrees(_normal_crossing_basis(5), comps, names, (2, 3), (1,) * 4)
    slices = GradedSlices(mods)
    needed = total = 0
    for degree in range(0, 13):
        columns = slices.d_matrix(2, degree)
        space = LinSpace()
        ranks = [0]
        for col in columns:
            space.add(col)
            ranks.append(space.dim)
        target = slices.dim(3, degree)
        needed += ranks.index(target) if target in ranks else len(columns)
        total += len(columns)
    calls = call_counter("forms", "_slice_coordinates")
    assert sum(cokernel_slice_dims(mods, 3, 12).values()) == 1
    assert len(calls) == needed < total


def test_pullback_makes_no_poly_arithmetic(four_planes_afd, call_counter):
    """The pulled-back relations and h o F come from integer term dicts: no
    `Poly` product is formed while the modules are built."""
    setup = four_planes_afd
    comps, names = setup.map.components, setup.map.source_names
    products = call_counter("poly", "Poly.__mul__")
    mods = forms_pullback_degrees(setup.e_basis, comps, names, (1, 2), setup.weights)
    assert not products
    assert [len(m.relations) for m in mods] == [7, 18]
    assert all(m.h == compose(setup.e_basis.divisor.h, comps) for m in mods)


def _relations_one_by_one(e_basis, components, source_n, ks):
    """The relations built generator by generator: each pulled back on its
    own, then wedged with the basis forms through `wedge`."""
    m = e_basis.n
    nv = components[0].nvars
    out = {k: [] for k in ks}
    for j in range(0, min(max(ks), m) + 1):
        wanted = [k for k in out if j <= k and k - j <= source_n]
        if not wanted:
            continue
        pulled = [p for p in (pullback([(j, g)], components, source_n)[0]
                              for g in log_form_generators(e_basis, j)) if not p.is_zero()]
        for k in wanted:
            for p in pulled:
                if j == k:
                    out[k].append(p)
                    continue
                for M in form_basis(source_n, k - j):
                    unit = monomial_form(source_n, k - j, nv, M, Poly.constant(nv, 1))
                    w = wedge(source_n, j, p, k - j, unit)
                    if not w.is_zero():
                        out[k].append(w)
    return out


@st.composite
def _maps_into_normal_crossing(draw):
    """A map from C^n (n <= 3) into normal crossing in C^m (2 <= m <= 4),
    with small integer or rational coefficients, and some form degrees."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
    comps = []
    for _ in range(m):
        terms = {tuple(draw(st.integers(0, 2)) for _ in range(n)): draw(coeffs)
                 for _ in range(draw(st.integers(0, 3)))}
        comps.append(Poly(n, terms))
    ks = draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True))
    return m, comps, n, ks


@given(_maps_into_normal_crossing())
@settings(max_examples=40, deadline=None)
def test_pulled_back_relations_match_one_by_one(case):
    m, comps, n, ks = case
    e_basis = _normal_crossing_basis(m)
    assert (pullback_relations_by_degree(e_basis, comps, n, ks)[1]
            == _relations_one_by_one(e_basis, comps, n, ks))


def test_pulled_back_relations_build_one_saito_minor_table(monkeypatch):
    """One `pullback_relations_by_degree` call, here over every degree a map
    C^3 -> C^4 reaches, takes the log-form generators of all its degrees
    from one minor table of the target's Saito matrix; the Jacobian minors
    of `pullback` are another module's table and are not counted here."""
    tables = []

    def counting(*args):
        tables.append(args)
        return original(*args)

    original = logarithmic._minor_terms
    monkeypatch.setattr(logarithmic, "_minor_terms", counting)
    names = ["x", "y", "z"]
    comps = [parse_poly(c, names) for c in ("x", "y", "z", "x+2*y+3*z")]
    rels = pullback_relations_by_degree(_normal_crossing_basis(4), comps, 3, (0, 1, 2, 3))[1]
    assert len(tables) == 1
    assert rels == _relations_one_by_one(_normal_crossing_basis(4), comps, 3, (0, 1, 2, 3))


@st.composite
def _graded_modules(draw):
    """Forms modules over n <= 3 variables with positive weights, each level
    presented by a few random homogeneous relations."""
    n = draw(st.integers(2, 3))
    weights = tuple(draw(st.integers(1, 2)) for _ in range(n))
    coeffs = st.integers(-3, 3)
    mods = []
    for k in range(0, n + 1):
        shifts = [sum(weights[i] for i in I) for I in form_basis(n, k)] or [0]
        rels = []
        for _ in range(draw(st.integers(0, 3))):
            degree = draw(st.integers(max(shifts), max(shifts) + 3))
            entries = []
            for shift in shifts:
                monos = monomials_of_weight(n, weights, degree - shift)
                entries.append(Poly(n, {e: Fraction(draw(coeffs)) for e in monos
                                        if draw(st.booleans())}))
            rels.append(FreeElement(entries))
        mods.append(CheckedFormsModule(["x", "y", "z"][:n], n, k, rels, Poly.zero(n),
                                       weights=weights))
    return mods


@given(_graded_modules())
@settings(max_examples=40, deadline=None)
def test_slice_rank_matches_rational_columns(mods):
    """The rank of the integer slice columns is that of the exact rational
    normal forms of the same images of d."""
    n = mods[0].n
    slices = GradedSlices(mods)
    for degree in range(0, 5):
        for k in range(0, n):
            space = LinSpace()
            for comp, e in map(mods[k].table().layout.unpack, slices.basis(k, degree)):
                col = mods[k + 1].table().reduce(d_term(n, form_basis(n, k)[comp], e))
                assert all(type(c) is Fraction for c in col.values())
                space.add(col)
            assert slices.d_rank(k, degree) == space.dim


def test_de_rham_homotopy_mode(calderon):
    d, basis = calderon
    mods = [forms_free(basis, k) for k in range(0, 4)]
    rep = de_rham_report_sliced(mods, 10, d.semipositive_weights())
    assert rep["all_exact"]


def test_kahler_comparison_strict_inclusion(nc2, nc3):
    """At least one log-form generator escapes h*forms + dh^forms (singular case)."""
    for d, basis in (nc2, nc3):
        n = d.nvars
        dh = FreeElement([d.h.derivative(i) for i in range(n)])
        for k in range(1, n + 1):
            gens = log_form_generators(basis, k)
            kahler = [monomial_form(n, k, n, I, d.h) for I in form_basis(n, k)]
            for M in form_basis(n, k - 1):
                unit = monomial_form(n, k - 1, n, M, Poly.constant(n, 1))
                w = wedge(n, 1, dh, k - 1, unit)
                if not w.is_zero():
                    kahler.append(w)
            gb = groebner_basis(kahler, ORD)
            assert any(not is_member(g, gb, ORD) for g in gens)


def test_restriction_compatibility(four_planes_family_map, four_planes_afd):
    """Building the relative module and setting the parameter to zero gives the
    same graded dimension table as building the central-fibre module directly."""
    fam = four_planes_family_map
    germ = four_planes_afd
    fn = fam.map.source_names
    for k in range(0, 4):
        rel = forms_relative(fam.e_basis, fam.map.components, fn, [3], k,
                             weights=(1, 1, 1, 1))
        gens = list(rel.relations)
        for pos in range(rel.rank):
            gens.append(FreeElement.unit(rel.rank, 4, pos).scale(Poly.variable(4, 3)))
        restricted = rel.__class__(fn, 4, k, gens, rel.h, weights=(1, 1, 1, 1),
                                   kind="restricted")
        direct = forms_pullback(germ.e_basis, germ.map.components,
                                germ.map.source_names, k, weights=germ.weights)
        assert restricted.dimension_table(8) == direct.dimension_table(8)


def test_transverse_relation_equality(four_planes_family_map, four_planes_family):
    """For an algebraically transverse family the pulled-back relation set and
    the free-divisor relation set generate the same submodule."""
    fam = four_planes_family_map
    d, basis = four_planes_family
    for k in range(0, 4):
        rel_a = forms_relative(fam.e_basis, fam.map.components, fam.map.source_names,
                               [3], k, weights=(1, 1, 1, 1))
        rel_b = forms_free_relative(basis, [3], k)
        assert submodules_equal(rel_a.relations, rel_b.relations, ORD)


def test_pairing_presentation_tables(nc3, four_planes_family):
    """Evaluation against the basis fields embeds the degree-one module onto the
    row span of the coefficient matrix inside O_D^n, degree by degree."""
    for d, basis in (nc3, four_planes_family):
        n = d.nvars
        m1 = forms_free(basis, 1)
        degs = basis.field_degrees()
        mat = basis.matrix()
        rows = [FreeElement([mat[i][j] for j in range(n)]) for i in range(n)]
        hcols = [FreeElement.unit(n, n, j).scale(d.h) for j in range(n)]
        shifts = [-dg for dg in degs]
        pres_h = ModulePresentation(n, hcols, grading=Grading(d.weights, shifts), nvars=n)
        pres_all = ModulePresentation(n, rows + hcols, grading=Grading(d.weights, shifts),
                                      nvars=n)
        qt_h = QuotientTable(pres_h, d.order())
        qt_all = QuotientTable(pres_all, d.order())
        t_forms = m1.dimension_table(8)
        t_image = {deg: qt_h.dim(deg) - qt_all.dim(deg) for deg in range(0, 9)}
        assert t_forms == t_image


def _wedge_map_kernel_dims(source, target, wedge_form, wedge_deg: int, bound: int) -> dict:
    """Per-degree kernel dimensions of (wedge with a fixed homogeneous form)
    on slice bases."""
    n, nv = target.n, target.nvars
    shifts = [sum(target.weights[i] for i in I) for I in form_basis(n, wedge_deg)]
    shift = min(wedge_form.weighted_degree(target.weights, shifts))
    unpack, pack = source.table().layout.unpack, target.table().layout.pack
    out = {}
    for degree in range(0, bound + 1):
        terms = set(target.table().standard_monomials(degree + shift))
        sp = LinSpace()
        kernel = 0
        for comp, e in map(unpack, source.table().standard_monomials(degree)):
            f = monomial_form(source.n, source.k, nv, form_basis(source.n, source.k)[comp],
                              Poly.monomial(nv, e))
            image = wedge(n, wedge_deg, wedge_form, source.k, f).vec()
            row = target.table().reduce_integral({pack(t): c for t, c in image.items()})[0]
            assert row.keys() <= terms
            if not sp.add(row):
                kernel += 1
        out[degree] = kernel
    return out


def test_wedge_injectivity_below_critical_codimension(four_planes_family_map,
                                                      four_planes_family):
    fam = four_planes_family_map
    d, basis = four_planes_family
    ds = monomial_form(4, 1, 4, (3,), Poly.constant(4, 1))
    for k in (0, 1):
        src = forms_relative(fam.e_basis, fam.map.components, fam.map.source_names,
                             [3], k, weights=(1, 1, 1, 1))
        tgt = forms_free(basis, k + 1)
        kd = _wedge_map_kernel_dims(src, tgt, ds, 1, 8)
        assert all(v == 0 for v in kd.values())


def test_graded_dimension_table_flag():
    from logforms.forms import GradedDimensionTable

    stable = GradedDimensionTable({0: 1, 1: 2, 2: 0, 3: 0, 4: 0, 5: 0})
    assert stable.stabilized and stable.total() == 3
    moving = GradedDimensionTable({0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6})
    assert not moving.stabilized
    short = GradedDimensionTable({0: 1})
    assert not short.stabilized
