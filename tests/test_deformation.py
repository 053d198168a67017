"""Normal spaces, relative T1, singular Milnor number routes, map germs."""

import re
from math import comb
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforms.cli import run_job
from logforms.deformation import (
    DeformationError,
    DeformationSetup,
    InducingMap,
    ae_codim_damon,
    ae_normal_space_direct,
    check_euler_homotopy,
    good_equation_witness,
    ke_discriminant_reduced,
    kev_normal_space,
    mu_e_alternating,
    mu_e_derham,
    mu_e_good_equation,
    t1_log,
    theta_prime_minors,
)
from logforms.forms import (GradedSlices, cokernel_slice_dims, contraction_well_defined,
                            forms_pullback_degrees, pullback_relations_by_degree,
                            pulled_back_matrix)
from logforms.groebner import (
    groebner_basis,
    is_member,
    kernel_of_map,
    quotient_dimension,
)
from logforms.jobio import parse_job
from logforms.logarithmic import (
    Divisor,
    derlog_fields,
    euler_field,
    is_free,
    poly_det,
)
from logforms.module import INFINITE, FreeElement, ModulePresentation
from logforms.order import MonomialOrder, StabilizationError
from logforms.poly import Poly, parse_poly, quasihomogeneous_weights

from conftest import (arrangement_setup, certified, compose, generic_arrangements,
                      monomials_of_weight, submodules_equal)

ORD = MonomialOrder()
JOBS = Path(__file__).resolve().parent.parent / "jobs"


def test_kev_transverse_map_gives_zero(nc2):
    """A submersive inducing map is transverse everywhere: normal space 0."""
    _, basis = nc2
    sn = ["a", "b", "c"]
    comps = [parse_poly("a", sn), parse_poly("b", sn)]
    setup = DeformationSetup(basis, InducingMap(sn, ["x", "y"], comps), weights=(1, 1, 1))
    _, dim = kev_normal_space(setup)
    assert dim == 0


def test_kev_four_planes(four_planes_afd):
    _, dim = kev_normal_space(four_planes_afd)
    assert dim == 1


def test_kev_four_lines(four_lines_afd):
    _, dim = kev_normal_space(four_lines_afd)
    assert dim == 3


def test_kev_orders_a_family_by_the_weights_of_its_germ(call_counter):
    """A family's weights cover its parameter too: the normal space of the
    central germ (x, y) -> (x^2, y, x^2 + y) is read in the weighted order of
    the germ's weights (1, 2), and its dimension is the one under unit weights."""
    calls = call_counter("groebner", "quotient_dimension")
    family = ('ring {{ x, y, s }};\nweights ( {} );\nparams {{ s }};\n'
              'target-ring {{ u, v, w }};\ntarget-divisor "u*v*w";\n'
              'map ( "x^2", "y", "x^2+y-s^2" );\ncommand kev-codim;\n')
    dim = run_job(parse_job(family.format("1, 2, 1")))["dimensions"]["kev_codimension"]
    assert calls[0][1].weights == (1, 2)
    unit_dim = run_job(parse_job(family.format("1, 1, 1")))["dimensions"]["kev_codimension"]
    assert calls[1][1].weights == (1, 1) and dim["value"] == unit_dim["value"]


def test_pulled_back_matrix_composes_the_nonzero_entries(four_planes_afd, lips_disc,
                                                         lips_inclusion, call_counter):
    """A's columns are the target fields composed with the map, their zero
    entries kept as zeros, then the Jacobian columns; only the nonzero
    entries go through `pullback`, in one call.  The one minor table that
    the pulled-back relations read is this A, and neither A nor the
    relations nor the KEV normal space take a logarithmic form generator."""
    calls = call_counter("exterior", "pullback")
    tables = call_counter("exterior", "_minor_terms")
    generators = call_counter("logarithmic", "log_form_generators")
    _, lips_basis = lips_disc
    for e_basis, comps in ((four_planes_afd.e_basis, four_planes_afd.map.components),
                           (lips_basis, lips_inclusion.components)):
        del calls[:], tables[:]
        m, n = e_basis.n, comps[0].nvars
        cols, composed = pulled_back_matrix(e_basis, comps, n)
        assert cols == ([FreeElement([compose(a, comps) for a in field]) for field in e_basis.theta]
                        + [FreeElement([f.derivative(v) for f in comps]) for v in range(n)])
        assert composed == [] and not tables
        entries = [a for field in e_basis.theta for a in field]
        nonzero = [a for a in entries if not a.is_zero()]
        assert len(calls) == 1 and len(nonzero) < len(entries)
        assert calls[0][0] == nonzero
        pullback_relations_by_degree(e_basis, comps, n, (n,))
        assert len(tables) == 1
        assert tables[0][0] == [[col.entries[c].terms for col in cols]
                                for c in range(m)]
        names = [f"x{v}" for v in range(n)]
        kev_normal_space(DeformationSetup(e_basis, InducingMap(names, e_basis.divisor.names,
                                                                comps)))
    assert not generators


def test_t1_trivial_product_family():
    names = ["x", "y", "s"]
    d = Divisor(names, parse_poly("x*y", names), weights=(1, 1, 1))
    basis = is_free(d).basis
    _, dim = t1_log(basis, [2])
    assert dim == 0


def test_t1_four_planes(four_planes_family):
    _, basis = four_planes_family
    _, dim_rel = t1_log(basis, [3])
    _, dim_fib = t1_log(basis, [3], [3])
    assert dim_rel == 1
    assert dim_fib == 1


def test_t1_fibre_matches_kev(four_planes_family, four_planes_afd):
    """The relative T1 mod the base ideal computes the germ's normal space."""
    _, basis = four_planes_family
    _, dim_fib = t1_log(basis, [3], [3])
    _, kev = kev_normal_space(four_planes_afd)
    assert dim_fib == kev


def test_critical_ideal_unit_for_trivial_family():
    names = ["x", "y", "s"]
    d = Divisor(names, parse_poly("x*y", names), weights=(1, 1, 1))
    basis = is_free(d).basis
    minors = theta_prime_minors(basis, [2])
    assert any(m.is_constant() and not m.is_zero() for m in minors)


def test_critical_ideal_calderon_vanishes_on_axis(calderon):
    d, basis = calderon
    minors = theta_prime_minors(basis, [2])
    gb = groebner_basis([FreeElement([parse_poly("x", d.names)]),
                         FreeElement([parse_poly("y", d.names)])], ORD)
    assert minors
    assert all(is_member(FreeElement([m]), gb, ORD) for m in minors)


def test_critical_ideal_four_planes_supported_at_origin(four_planes_family):
    d, basis = four_planes_family
    minors = theta_prime_minors(basis, [3])
    gb = groebner_basis([FreeElement([m]) for m in minors], ORD)
    for name in d.names:
        v = FreeElement([parse_poly(name, d.names)])
        assert is_member(v, gb, ORD)


def test_critical_ideal_with_an_ext_param(four_lines_total):
    """Rows come as params then ext-params (here out of index order), and the
    ext-param is set to zero in each minor; duplicates are dropped."""
    d, basis = four_lines_total
    s1, s2 = 2, 3
    expected = []
    for cols in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        sub = [[basis.theta[j][i] for j in cols] for i in (s2, s1)]
        m = poly_det(sub).set_vars_zero([s1])
        if not m.is_zero() and m.primitive()[0] not in expected:
            expected.append(m.primitive()[0])
    minors = theta_prime_minors(basis, [s2], [s1])
    assert minors == expected
    assert all(e[s1] == 0 for m in minors for e in m.terms)


def test_mu_routes_four_planes(four_planes_family, four_planes_afd):
    d, basis = four_planes_family
    assert mu_e_alternating(basis, [3]) == 1
    w = good_equation_witness(d.h, d.weights)
    assert mu_e_good_equation(d, [3], w) == 1
    assert mu_e_derham(four_planes_afd, bound=12) == 1


def test_mu_routes_four_lines(four_lines_total, four_lines_afd):
    d, basis = four_lines_total
    assert mu_e_alternating(basis, [2, 3]) == 3
    w = good_equation_witness(d.h, d.weights)
    assert mu_e_good_equation(d, [2, 3], w) == 3
    assert mu_e_derham(four_lines_afd, bound=10) == 3


def test_count_identity(four_planes_family, four_planes_afd,
                        four_lines_total, four_lines_middle_afd, four_lines_afd):
    """mu(central fibre) + mu(total space) equals the relative T1 dimension."""
    d, basis = four_planes_family
    _, t1 = t1_log(basis, [3])
    assert mu_e_derham(four_planes_afd, bound=12) + 0 == t1  # total space free
    d2, basis2 = four_lines_total
    # relative T1 of the s1-family through its free extension over (s1, s2)
    _, t1b = t1_log(basis2, [2, 3], [3])
    mu0 = mu_e_derham(four_lines_afd, bound=10)
    mu1 = mu_e_derham(four_lines_middle_afd, bound=10)
    assert mu0 + mu1 == t1b
    assert (mu0, mu1) == (3, 1)


def test_good_equation_witness_euler_and_absence():
    h = parse_poly("x*y*(x+y)", ["x", "y"])
    w = good_equation_witness(h, (1, 1))
    assert w is not None
    # an isolated singularity with no weighted homogeneous structure has none
    h2 = parse_poly("x^5 + y^5 + x^3*y^3", ["x", "y"])
    assert good_equation_witness(h2) is None


def test_ae_direct_examples():
    mn = ["x", "y"]
    fold = [parse_poly("x", mn), parse_poly("y^2", mn)]
    assert ae_normal_space_direct(fold) == 0
    lips = [parse_poly("x", mn), parse_poly("y^3 + x^2*y", mn)]
    assert ae_normal_space_direct(lips) == 1
    assert ae_normal_space_direct([parse_poly("0", mn)] * 2) == INFINITE  # T K_e f = 0
    unstable = [parse_poly("x", mn), parse_poly("y^3", mn)]
    with pytest.raises(StabilizationError, match="jet-cap 12"):
        ae_normal_space_direct(unstable, cap=12)


def test_ae_direct_rejects_nonvanishing_germ():
    with pytest.raises(DeformationError):
        ae_normal_space_direct([parse_poly("x + 1", ["x"])])


# Map germs with their A_e-codimension: fold, lips, (x, xy+y^5), Rieger's
# C^2 -> C^2 germs (k - 1) and Mond's C^2 -> C^3 germs S_k, B_k, H_k (k).
KNOWN_GERMS = (
    [("fold", ("x", "y^2"), 0), ("lips", ("x", "y^3+x^2*y"), 1),
     ("xy+y5", ("x", "x*y+y^5"), 3)]
    + [(f"rieger-{k}", ("x", f"y^3+x^{k}*y"), k - 1) for k in range(2, 9)]
    + [(f"mond-S{k}", ("x", "y^2", f"y^3+x^{k + 1}*y"), k) for k in range(2, 9)]
    + [(f"mond-B{k}", ("x", "y^2", f"x^2*y+y^{2 * k + 1}"), k) for k in range(2, 9)]
    + [(f"mond-H{k}", ("x", "y^3", f"x*y+y^{3 * k - 1}"), k) for k in range(2, 9)]
)


def _germ(texts) -> list:
    return [parse_poly(t, ["x", "y"]) for t in texts]


@pytest.mark.parametrize("texts, codim", [g[1:] for g in KNOWN_GERMS],
                         ids=[g[0] for g in KNOWN_GERMS])
def test_ae_direct_gives_the_known_codimension(texts, codim):
    """The slice count with its proven stop gives every known answer, among
    them Mond B2-B8 and H3-H8, and 3 on (x, xy+y^5)."""
    assert ae_normal_space_direct(_germ(texts)) == codim


@st.composite
def germs_in_new_coordinates(draw):
    """A germ of KNOWN_GERMS with its codimension, in coordinates changed by
    weight-preserving maps of source and target.  Each map sends the i-th
    coordinate u_i to a u_i + b m(u), a != 0 and m a monomial of weight
    w_i in the coordinates before u_i in order of weight: triangular with
    an invertible diagonal, so invertible."""
    _, texts, codim = draw(st.sampled_from(KNOWN_GERMS))
    comps = _germ(texts)
    weights = quasihomogeneous_weights(*comps)

    def change(w, coords: list) -> list:
        order = sorted(range(len(w)), key=lambda i: w[i])
        out = list(coords)
        for pos, i in enumerate(order):
            earlier = order[:pos]
            out[i] = coords[i].scale(draw(st.sampled_from([1, -1, 2, 3])))
            choices = monomials_of_weight(len(earlier), [w[j] for j in earlier], w[i])
            if choices:
                term = Poly.constant(2, draw(st.integers(-2, 2)))
                for j, k in zip(earlier, draw(st.sampled_from(choices))):
                    term = term * coords[j] ** k
                out[i] = out[i] + term
        return out

    source = change(weights, [Poly.variable(2, 0), Poly.variable(2, 1)])
    moved = [compose(c, source) for c in comps]
    return change([c.weighted_degree(weights) for c in comps], moved), codim


@given(germs_in_new_coordinates())
@settings(max_examples=30, deadline=None)
def test_ae_direct_is_invariant_under_weighted_coordinate_changes(germ):
    comps, codim = germ
    assert ae_normal_space_direct(comps) == codim


def _milnor_number(h: Poly) -> int:
    jacobian = [FreeElement([h.derivative(i)]) for i in range(h.nvars)]
    return quotient_dimension(ModulePresentation(1, jacobian))


@given(st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=20, deadline=None)
def test_ae_direct_of_a_function_is_its_milnor_number_minus_one(a, b):
    """For a weighted homogeneous function germ with an isolated critical
    point, T A_e f = J(f) + C[f] = J(f) + C, since f lies in J(f) by Euler's
    relation: the A_e-codimension is mu - 1.  (Every slice above D0 is f
    times a lower one, so zero, and no germ here needs a `cap`.)"""
    h = parse_poly(f"x^{a}+y^{b}", ["x", "y"])
    assert ae_normal_space_direct([h]) == _milnor_number(h) - 1 == (a - 1) * (b - 1) - 1


@pytest.mark.parametrize("text, mu", [("x^2+y^2+z^2", 1), ("x*y+z^3", 2), ("x^2*y+y^4+z^2", 5),
                                      ("x^3+y^3+z^3", 8), ("x^3+y^4+z^5", 24)])
def test_ae_direct_of_a_function_in_three_variables(text, mu):
    h = parse_poly(text, ["x", "y", "z"])
    assert ae_normal_space_direct([h]) == _milnor_number(h) - 1 == mu - 1


def test_ae_damon_matches_direct(lips_disc, lips_inclusion):
    _, basis = lips_disc
    assert ae_codim_damon(basis, lips_inclusion, weights=(1, 3)) == 1
    # fold: smooth discriminant, identity inclusion
    fn = ["A", "B"]
    DF = Divisor(fn, parse_poly("B", fn), weights=(1, 1))
    vb = is_free(DF).basis
    incl = InducingMap(fn, fn, [parse_poly("A", fn), parse_poly("B", fn)])
    assert ae_codim_damon(vb, incl, weights=(1, 1)) == 0


def test_fitting_reduced_four_planes(four_planes_family):
    _, basis = four_planes_family
    reduced, chi, dim = ke_discriminant_reduced(basis, 3)
    assert reduced and dim == 1
    assert chi == Poly.variable(1, 0)


def test_fitting_reduced_computes_one_basis(gb_calls):
    """The T1 dimension, its standard basis and the normal forms of the
    multiplication by s all come from one Groebner basis."""
    job = parse_job((JOBS / "fitting_four_planes.job").read_text())
    basis = is_free(Divisor(job.ring, job.polys["divisor"], weights=job.weights)).basis
    del gb_calls[:]
    reduced, _, dim = ke_discriminant_reduced(basis, job.param_indices()[0])
    assert reduced and dim == 1
    assert len(gb_calls) == 1


def test_fitting_not_applicable_for_trivial_family():
    names = ["x", "y", "s"]
    d = Divisor(names, parse_poly("x*y", names), weights=(1, 1, 1))
    basis = is_free(d).basis
    with pytest.raises(DeformationError):
        ke_discriminant_reduced(basis, 2)


def test_t1_log_finite_and_infinite(four_planes_family, four_lines_total):
    _, basis = four_planes_family
    _, dim = t1_log(basis, [3])
    assert dim == 1
    _, basis2 = four_lines_total
    _, dim2 = t1_log(basis2, [2, 3])
    assert dim2 == INFINITE


def test_normal_space_sequence_exactness(nc4, four_planes_divisor, four_planes_afd):
    """The kernel of the map from ambient fields into the normal direction
    quotient is exactly the tangent-field module of the pulled-back divisor."""
    setup = four_planes_afd
    imap = setup.map
    columns = pulled_back_matrix(setup.e_basis, imap.components, 3)[0]
    pulled, jac = columns[:4], columns[4:]
    K = kernel_of_map(jac, pulled, ORD)
    assert submodules_equal(K, derlog_fields(four_planes_divisor), ORD)
    pres = ModulePresentation(4, jac + pulled, nvars=3)
    assert quotient_dimension(pres, ORD) == 1


def test_pip_equals_pop(four_planes_family, lips_disc, four_lines_total):
    """One-parameter free+freeing families: the relative T1 route and the
    annihilator route agree on weighted homogeneous data."""
    cases = [
        (four_planes_family, 3),
        (lips_disc, 1),
        (four_lines_total, 3),  # the s2-direction chain position
    ]
    for (d, basis), s_idx in cases:
        _, pip = t1_log(basis, [s_idx])
        w = good_equation_witness(d.h, d.weights)
        pop = mu_e_good_equation(d, [s_idx], w)
        assert pip == pop


def _levels(setup: DeformationSetup, ks) -> list:
    """The pulled-back forms modules of a set-up's germ in the form degrees
    ks, as `mu_e_derham` builds its level n."""
    return forms_pullback_degrees(setup.e_basis, setup.map.components, setup.map.source_names,
                                  ks, setup.weights)


def _assert_count(setup: DeformationSetup, mu: int):
    """The cokernel of d from level p - 1 into level p (p = n - 1), sliced
    by `cokernel_slice_dims`, equals M_n = Omega^n / R_n degree by degree,
    read up to max(12, top standard degree of M_n + 3), so Cartan's formula
    stops it where M_n stops; M_n has mu standard terms, as `mu_e_derham`
    counts; and contraction by the Euler field maps R_n into R_p and R_p
    into R_(p-1), the lemma the count rests on."""
    weights = setup.weights
    n = len(weights)
    mods = _levels(setup, (n - 2, n - 1, n))
    terms = mods[2].table().standard_terms()
    top = max((sum(map(mul, e, weights)) for _, e in terms), default=0) + sum(weights)
    bound = max(12, top + 3)
    assert cokernel_slice_dims(mods, n - 1, bound) == mods[2].dimension_table(bound)
    assert len(terms) == mu == mu_e_derham(setup)
    euler = euler_field(weights, n)
    assert contraction_well_defined(mods[2], mods[1], euler)
    assert contraction_well_defined(mods[1], mods[0], euler)


def test_mu_derham_vanishes_on_free_pullback(nc2):
    """A transverse pullback is free and its top cokernel vanishes: the
    level-3 relations hold da ^ db ^ dc, so Omega^3 / R_3 has no standard
    term."""
    _, basis = nc2
    sn = ["a", "b", "c"]
    comps = [parse_poly("a", sn), parse_poly("b", sn)]
    setup = DeformationSetup(basis, InducingMap(sn, ["x", "y"], comps),
                             weights=(1, 1, 1))
    assert _levels(setup, (3,))[0].table().standard_terms() == []
    assert mu_e_derham(setup) == 0


def test_mu_derham_builds_one_table_and_slices_nothing(four_planes_afd, call_counter):
    """Four generic planes in C^3: `mu_e_derham` builds the level-3 forms
    module alone and one `QuotientTable`, of its relations, and counts the
    table's standard terms; no `GradedSlices` method runs, and no
    logarithmic form generator is taken (the relations are A's minors)."""
    modules = call_counter("forms", "forms_pullback_degrees")
    call_counter("groebner", "QuotientTable.__init__")
    call_counter("logarithmic", "log_form_generators")
    for name, method in vars(GradedSlices).items():
        if callable(method):
            call_counter("forms", f"GradedSlices.{name}")
    assert mu_e_derham(four_planes_afd) == 1
    assert [ks for *_, ks, _ in modules] == [(3,)]
    assert [name for name, _ in call_counter.log] == ["forms_pullback_degrees",
                                                      "QuotientTable.__init__"]


@given(generic_arrangements())
@settings(max_examples=60, deadline=None)
def test_mu_e_derham_counts_generic_arrangements(arrangement):
    """On a generic arrangement of m hyperplanes in C^n pulled back from
    normal crossing, the de Rham cokernel is Omega^n / R_n, and
    mu_e_derham = C(m-1, n) (`_assert_count`)."""
    n, m, rows = arrangement
    _assert_count(arrangement_setup(rows), comb(m - 1, n))


def test_mu_derham_stops_once_the_staircase_closes(call_counter):
    """Seven generic planes in C^3: R_3 is given by all 96 maximal minors of
    A, and its 15 minors of degree 4 already span all of degree 4.  The
    table of `mu_e_derham` stops its Buchberger loop there, so it makes far
    fewer divisions than `groebner_basis` of the same relations makes before
    interreduction, and it reduces no tail."""
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1)]
    setup = arrangement_setup(rows)
    top = _levels(setup, (3,))[0]
    divisions = call_counter("groebner", "_reduce_full")
    call_counter("groebner", "_interreduce")
    assert mu_e_derham(setup) == comb(6, 3)
    stopped = len(divisions)
    assert [name for name, _ in call_counter.log] == ["_reduce_full"] * stopped
    groebner_basis(top.relations, top.order())
    names = [name for name, _ in call_counter.log][stopped:]
    assert len(top.relations) == 96
    assert 2 * stopped < names.index("_interreduce")


def _zero_component_setup(target, source: str, comps: str, weights) -> DeformationSetup:
    """The set-up of a map, its components written in the source variables
    (comma-separated, like `source`), into a certified target."""
    sn = source.split(",")
    imap = InducingMap(sn, list(target.divisor.names),
                       [parse_poly(c, sn) for c in comps.split(",")])
    return DeformationSetup(target, imap, weights=weights)


@pytest.mark.parametrize("target, source, comps, weights, mu", [
    ("lips_disc", "X,W", "X,0,W", (1, 3), 1),
    ("four_lines_total", "x,y", "x,y,0,0", (1, 1), comb(3, 2)),
    ("four_lines_total", "x,y,z", "x,y,z,0", (1, 1, 1), comb(3, 3)),
], ids=["lips-inclusion", "four-lines", "four-planes"])
def test_mu_e_derham_counts_maps_with_zero_components(request, target, source, comps, weights, mu):
    """Maps with zero components into two free targets: the lips
    discriminant by (X, 0, W), and x*y*(x-y-s1)*(x+y-2*s1-s2) by
    (x, y, 0, 0), four generic lines, and by (x, y, z, 0), four generic
    planes.  A zero component takes its degree from the target's weights,
    so the Euler-field homotopy applies: the de Rham cokernel is
    Omega^n / R_n (`_assert_count`), C(m - 1, n) for m generic hyperplanes
    in C^n, and 1 for the lips inclusion."""
    _, basis = request.getfixturevalue(target)
    _assert_count(_zero_component_setup(basis, source, comps, weights), mu)


def _assert_no_count(setup: DeformationSetup, why: str, hypotheses_hold: bool = False):
    """`mu_e_derham` gives no number: it raises `DeformationError` naming
    why.  `check_euler_homotopy`, on the top level, raises the same error,
    or passes when the hypotheses hold and Omega^n / R_n is infinite."""
    match = "^" + re.escape(why) + "$"
    top = _levels(setup, (setup.map.source_dim,))[0]

    def check():
        check_euler_homotopy(setup.map.components, setup.weights, setup.e_basis.divisor, top)

    if hypotheses_hold:
        check()
    else:
        with pytest.raises(DeformationError, match=match):
            check()
    with pytest.raises(DeformationError, match=match):
        mu_e_derham(setup)


def test_zero_components_without_a_common_ratio_have_no_stop(lips_disc, nc3):
    """No Euler-field homotopy, and a route error rather than a number: the
    lips inclusion (X, 0, W^2), where degree over target weight is 1 for X
    and 2 for W; the same discriminant without weights; and (x, 0, y) into
    normal crossing in C^3, where h o F = 0, so R_2 = 0 and Omega^2 / R_2
    is infinite."""
    d, basis = lips_disc
    unweighted = certified(Divisor(d.names, d.h))
    _, nc = nc3
    _assert_no_count(_zero_component_setup(basis, "X,W", "X,0,W^2", (1, 1)),
                     "the components have no common ratio to the target weights")
    _assert_no_count(_zero_component_setup(unweighted, "X,W", "X,0,W", (1, 3)),
                     "a component is zero and the target has no weights")
    _assert_no_count(_zero_component_setup(nc, "x,y", "x,0,y", (1, 1)),
                     "Omega^n/R_n is infinite", hypotheses_hold=True)


@pytest.mark.parametrize("comps", [("x", "y", "x+y", "z"), ("x", "y", "x+2*y", "x+y+z")])
def test_mu_derham_falls_back_on_an_infinite_coefficient_quotient(nc4, comps):
    """Two non-generic maps C^3 -> C^4: the hypotheses of the homotopy hold,
    but Omega^3 / R_3 is infinite, so the route raises `DeformationError`
    and gives no number."""
    _, e_basis = nc4
    sn = ["x", "y", "z"]
    imap = InducingMap(sn, list(e_basis.divisor.names), [parse_poly(c, sn) for c in comps])
    _assert_no_count(DeformationSetup(e_basis, imap, weights=(1, 1, 1)),
                     "Omega^n/R_n is infinite", hypotheses_hold=True)


def test_check_euler_homotopy_needs_homogeneous_components(nc4, lips_disc):
    """No Euler-field homotopy for a component that is not weighted
    homogeneous, or an h that is not homogeneous for the degrees of the
    components."""
    _, e_basis = nc4
    sn = ["x", "y", "z"]
    imap = InducingMap(sn, list(e_basis.divisor.names),
                       [parse_poly(c, sn) for c in ("x", "y", "z", "x+y+z^2")])
    _assert_no_count(DeformationSetup(e_basis, imap, weights=(1, 1, 1)),
                     "a component is not weighted homogeneous of positive degree")
    _, lips = lips_disc
    identity = InducingMap(sn, list(lips.divisor.names), [parse_poly(c, sn) for c in sn])
    _assert_no_count(DeformationSetup(lips, identity, weights=(1, 1, 1)),
                     "the target equation is not homogeneous for the degrees of the components")


def test_mu_trivial_family_is_zero():
    names = ["x", "y", "s"]
    d = Divisor(names, parse_poly("x*y", names), weights=(1, 1, 1))
    basis = is_free(d).basis
    assert mu_e_alternating(basis, [2]) == 0
    w = good_equation_witness(d.h, d.weights)
    assert mu_e_good_equation(d, [2], w) == 0


def test_good_equation_route_cross_ratio_family(calderon):
    """The weight-zero parameter family: both routes report an infinite value."""
    d, basis = calderon
    w = good_equation_witness(d.h)
    assert w is not None
    assert mu_e_good_equation(d, [2], w) == INFINITE
    _, pip = t1_log(basis, [2])
    assert pip == INFINITE
