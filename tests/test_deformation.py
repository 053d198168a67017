"""Normal spaces, relative T1, singular Milnor number routes, map germs."""

from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings

from logforms.deformation import (
    DeformationError,
    DeformationSetup,
    InducingMap,
    ae_codim_damon,
    ae_normal_space_direct,
    cartan_stop_degree,
    good_equation_witness,
    jacobian_columns,
    ke_discriminant_reduced,
    kev_normal_space,
    mu_e_alternating,
    mu_e_derham,
    mu_e_good_equation,
    pulled_field_columns,
    t1_log,
    theta_prime_minors,
)
from logforms.forms import cokernel_slice_dims, contraction_well_defined, forms_pullback_degrees
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
from logforms.poly import Poly, parse_poly

from conftest import (certified, compose, generic_arrangements, normal_crossing_basis,
                      submodules_equal)

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


def test_kev_orders_a_family_by_the_germ_weights(nc3, call_counter):
    """A family's weights cover its parameter too: the normal space of the
    central germ (x, y) -> (x^2, y, x^2 + y) is read in the weighted order of
    the germ's weights (1, 2), and its dimension is the one under unit weights."""
    calls = call_counter("groebner", "quotient_dimension")
    _, e_basis = nc3
    sn = ["x", "y", "s"]
    comps = [parse_poly(c, sn) for c in ["x^2", "y", "x^2+y-s^2"]]
    imap = InducingMap(sn, ["u", "v", "w"], comps, s_indices=(2,))
    _, dim = kev_normal_space(DeformationSetup(e_basis, imap, weights=(1, 2, 1)))
    assert calls[0][1].weights == (1, 2)
    _, unit_dim = kev_normal_space(DeformationSetup(e_basis, imap))
    assert calls[1][1].weights == (1, 1) and dim == unit_dim


def test_pulled_field_columns_pull_back_the_nonzero_entries(four_planes_afd, lips_disc,
                                                           lips_inclusion, call_counter):
    """Each column is a target field composed with the map, its zero entries
    kept as zeros, and only the nonzero entries go through `pullback`."""
    calls = call_counter("exterior", "pullback")
    _, lips_basis = lips_disc
    for e_basis, comps in ((four_planes_afd.e_basis, four_planes_afd.map.components),
                           (lips_basis, lips_inclusion.components)):
        del calls[:]
        cols = pulled_field_columns(e_basis, comps)
        assert cols == [FreeElement([compose(a, comps) for a in field]) for field in e_basis.theta]
        entries = [a for field in e_basis.theta for a in field]
        nonzero = [a for a in entries if not a.is_zero()]
        assert len(calls) == 1 and len(nonzero) < len(entries)
        assert [f.entries[0] for _, f in calls[0][0]] == nonzero


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


def test_mu_routes_four_planes(four_planes_family, four_planes_family_map):
    d, basis = four_planes_family
    assert mu_e_alternating(basis, [3]) == 1
    w = good_equation_witness(d.h, d.weights)
    assert mu_e_good_equation(d, [3], w) == 1
    assert mu_e_derham(four_planes_family_map, bound=12) == 1


def test_mu_routes_four_lines(four_lines_total, four_lines_afd):
    d, basis = four_lines_total
    assert mu_e_alternating(basis, [2, 3]) == 3
    w = good_equation_witness(d.h, d.weights)
    assert mu_e_good_equation(d, [2, 3], w) == 3
    assert mu_e_derham(four_lines_afd, bound=10) == 3


def test_count_identity(four_planes_family, four_planes_family_map,
                        four_lines_total, four_lines_middle_afd, four_lines_afd):
    """mu(central fibre) + mu(total space) equals the relative T1 dimension."""
    d, basis = four_planes_family
    _, t1 = t1_log(basis, [3])
    assert mu_e_derham(four_planes_family_map, bound=12) + 0 == t1  # total space free
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
    unstable = [parse_poly("x", mn), parse_poly("y^3", mn)]
    with pytest.raises(StabilizationError, match="jet-cap 12"):
        ae_normal_space_direct(unstable, cap=12)


def test_ae_direct_rejects_nonvanishing_germ():
    with pytest.raises(DeformationError):
        ae_normal_space_direct([parse_poly("x + 1", ["x"])])


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
    jac = jacobian_columns(imap.components, 3)
    pulled = pulled_field_columns(setup.e_basis, imap.components)
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


def _stop_degree_and_levels(setup: DeformationSetup):
    """(`cartan_stop_degree`, [level p - 1, level p]) of a set-up, p the
    source dimension minus one, as `mu_e_derham` computes them."""
    imap = setup.map.germ()
    weights = setup.map.germ_weights(setup.weights)
    p = imap.source_dim - 1
    mods = forms_pullback_degrees(setup.e_basis, imap.components, imap.source_names,
                                  (p - 1, p), weights)
    return cartan_stop_degree(imap.components, weights, setup.e_basis.divisor, mods[1]), mods


def test_mu_derham_vanishes_on_free_pullback(nc2, call_counter):
    """A transverse pullback is free and its top cokernel vanishes.  The
    coefficients of its level-p relations generate the unit ideal, so the
    stopping degree is 0 and no slice above degree 0 is read."""
    _, basis = nc2
    sn = ["a", "b", "c"]
    comps = [parse_poly("a", sn), parse_poly("b", sn)]
    setup = DeformationSetup(basis, InducingMap(sn, ["x", "y"], comps),
                             weights=(1, 1, 1))
    assert _stop_degree_and_levels(setup)[0] == 0
    calls = call_counter("forms", "GradedSlices.basis")
    assert mu_e_derham(setup, bound=8) == 0
    assert {degree for _, _, degree in calls} == {0}


def test_mu_derham_slices_no_degree_above_the_stopping_degree(four_planes_afd, call_counter):
    """Four generic planes in C^3: J = (coefficients of the level-2
    relations) has standard terms up to degree 1, so D = 1 + 3 = 4, and
    the slices of degrees 5..12 are never read."""
    assert _stop_degree_and_levels(four_planes_afd)[0] == 4
    calls = call_counter("forms", "GradedSlices.basis")
    assert mu_e_derham(four_planes_afd, bound=12) == 1
    assert max(degree for _, _, degree in calls) == 4


@given(generic_arrangements())
@settings(max_examples=60, deadline=None)
def test_cartan_stop_degree_on_generic_arrangements(arrangement):
    """On a generic arrangement of m hyperplanes in C^n pulled back from
    normal crossing, every cokernel slice above the stopping degree D is
    zero (read up to max(12, D + 3)), the slices sum to C(m-1, n) as
    `mu_e_derham` does, and contraction by the Euler field maps the level-p
    relations into the level-(p-1) ones, the lemma D rests on."""
    n, m, rows = arrangement
    names = [f"x{i + 1}" for i in range(n)]
    comps = [Poly(n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(r) if c})
             for r in rows]
    basis = normal_crossing_basis(m)
    setup = DeformationSetup(basis, InducingMap(names, basis.divisor.names, comps),
                             weights=(1,) * n)
    stop, mods = _stop_degree_and_levels(setup)
    assert stop is not None
    table = cokernel_slice_dims(mods, n - 1, max(12, stop + 3))
    assert all(v == 0 for degree, v in table.items() if degree > stop)
    assert sum(table.values()) == comb(m - 1, n) == mu_e_derham(setup, bound=12)
    assert contraction_well_defined(mods[1], mods[0], euler_field((1,) * n, n))


def _zero_component_setup(target, source: str, comps: str, weights) -> DeformationSetup:
    """The set-up of a map, its components written in the source variables
    (comma-separated, like `source`), into a certified target."""
    sn = source.split(",")
    imap = InducingMap(sn, list(target.divisor.names),
                       [parse_poly(c, sn) for c in comps.split(",")])
    return DeformationSetup(target, imap, weights=weights)


@pytest.mark.parametrize("target, source, comps, weights, stop, mu", [
    ("lips_disc", "X,W", "X,0,W", (1, 3), 5, 1),
    ("four_lines_total", "x,y", "x,y,0,0", (1, 1), 4, comb(3, 2)),
    ("four_lines_total", "x,y,z", "x,y,z,0", (1, 1, 1), 4, comb(3, 3)),
], ids=["lips-inclusion", "four-lines", "four-planes"])
def test_cartan_stop_degree_covers_zero_components(request, target, source, comps, weights,
                                                   stop, mu):
    """Maps with zero components into two free targets: the lips
    discriminant by (X, 0, W), and x*y*(x-y-s1)*(x+y-2*s1-s2) by
    (x, y, 0, 0), four generic lines, and by (x, y, z, 0), four generic
    planes.  A zero component takes its degree from the target's weights,
    so D exists; every slice above it is zero (read up to max(12, D + 3)),
    and the slices sum to `mu_e_derham`, C(m - 1, n) for m generic
    hyperplanes in C^n, and 1 for the lips inclusion."""
    _, basis = request.getfixturevalue(target)
    setup = _zero_component_setup(basis, source, comps, weights)
    found, mods = _stop_degree_and_levels(setup)
    assert found == stop
    table = cokernel_slice_dims(mods, len(weights) - 1, max(12, stop + 3))
    assert all(v == 0 for degree, v in table.items() if degree > stop)
    assert sum(table.values()) == mu == mu_e_derham(setup, bound=12)


def test_zero_components_without_a_common_ratio_have_no_stop(lips_disc, nc3):
    """No stop degree, and a route error rather than a number: the lips
    inclusion (X, 0, W^2), where degree over target weight is 1 for X and 2
    for W; the same discriminant without weights; and (x, 0, y) into normal
    crossing in C^3, where h o F = 0 and J is infinite."""
    d, basis = lips_disc
    unweighted = certified(Divisor(d.names, d.h))
    _, nc = nc3
    for setup in (_zero_component_setup(basis, "X,W", "X,0,W^2", (1, 1)),
                  _zero_component_setup(unweighted, "X,W", "X,0,W", (1, 3)),
                  _zero_component_setup(nc, "x,y", "x,0,y", (1, 1))):
        assert _stop_degree_and_levels(setup)[0] is None
        with pytest.raises(DeformationError, match="^no stop degree is proven"):
            mu_e_derham(setup, bound=12)


@pytest.mark.parametrize("comps", [("x", "y", "x+y", "z"), ("x", "y", "x+2*y", "x+y+z")])
def test_mu_derham_falls_back_on_an_infinite_coefficient_quotient(nc4, comps):
    """Two non-generic maps C^3 -> C^4: O/J is infinite, so no stopping
    degree is proven, and the route raises `DeformationError`: no degree
    bound would give a proven sum."""
    _, e_basis = nc4
    sn = ["x", "y", "z"]
    imap = InducingMap(sn, list(e_basis.divisor.names), [parse_poly(c, sn) for c in comps])
    setup = DeformationSetup(e_basis, imap, weights=(1, 1, 1))
    assert _stop_degree_and_levels(setup)[0] is None
    with pytest.raises(DeformationError, match="^no stop degree is proven"):
        mu_e_derham(setup, bound=12)


def test_cartan_stop_degree_needs_homogeneous_components(nc4, lips_disc):
    """No stopping degree for a component that is not weighted homogeneous,
    or an h that is not homogeneous for the degrees of the components."""
    _, e_basis = nc4
    sn = ["x", "y", "z"]
    imap = InducingMap(sn, list(e_basis.divisor.names),
                       [parse_poly(c, sn) for c in ("x", "y", "z", "x+y+z^2")])
    assert _stop_degree_and_levels(DeformationSetup(e_basis, imap, weights=(1, 1, 1)))[0] is None
    _, lips = lips_disc
    identity = InducingMap(sn, list(lips.divisor.names), [parse_poly(c, sn) for c in sn])
    assert _stop_degree_and_levels(DeformationSetup(lips, identity, weights=(1, 1, 1)))[0] is None


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
