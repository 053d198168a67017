"""Tangent-field modules, Saito certificates and logarithmic form generators."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logforms import logarithmic
from logforms.cli import main
from logforms.exterior import contract, ext_d, form_basis, minor_table, wedge
from logforms.groebner import (
    groebner_basis,
    is_member,
    syzygy_module,
)
from logforms.logarithmic import (
    Divisor,
    DivisorError,
    FreenessVerdict,
    InternalInvariantError,
    apply_field,
    derlog,
    derlog_fields,
    derlog_h,
    euler_field,
    is_free,
    log_form_generators,
    saito_check,
)
from logforms.module import FreeElement
from logforms.order import MonomialOrder
from logforms.poly import Poly, is_squarefree, parse_poly, poly_exact_div

from conftest import (monomial_form, monomials_of_weight, normal_crossing_basis,
                      submodules_equal, term_key)

ORD = MonomialOrder()


def member_of(fields, candidate, order=ORD):
    gb = groebner_basis(fields, order)
    return is_member(candidate, gb, order)


def test_reducedness_rejected():
    with pytest.raises(DivisorError):
        Divisor(["x", "y"], parse_poly("x^2*y", ["x", "y"]))


@st.composite
def _form(draw, nvars, degree):
    """A nonzero homogeneous form of the given degree, coefficients -2..2."""
    monos = monomials_of_weight(nvars, (1,) * nvars, degree)
    coeffs = [draw(st.sampled_from([-2, -1, 1, 2]))]
    coeffs += draw(st.lists(st.integers(-2, 2), min_size=len(monos) - 1, max_size=len(monos) - 1))
    return Poly(nvars, {e: c for e, c in zip(draw(st.permutations(monos)), coeffs) if c})


@st.composite
def homogeneous_products(draw):
    """Products of linear and quadratic forms in 2 to 4 variables, with one
    factor squared half the time; of degree at most 6, or 4 over four
    variables, where a non-reduced sextic's tagged basis can take minutes."""
    nvars = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    square = draw(st.sampled_from([0, 0, 1, 2]))  # degree of the squared factor
    assume(sum(degrees) + 2 * square <= (6 if nvars < 4 else 4))
    h = Poly.constant(nvars, 1)
    for degree in degrees:
        h = h * draw(_form(nvars, degree))
    if square:
        p = draw(_form(nvars, square))
        h = h * p * p
    return h


def _fresh_derlog(h, order):
    """The (field, witness) pairs of a syzygy basis of (dh/dx_1, ..., dh/dx_n,
    h) computed from scratch."""
    n = h.nvars
    cols = [FreeElement([h.derivative(i)]) for i in range(n)] + [FreeElement([h])]
    pairs = [(FreeElement(s.entries[:n]), -s.entries[n]) for s in syzygy_module(cols, order)]
    return [(f, w) for f, w in pairs if not f.is_zero()]


@given(homogeneous_products())
@settings(max_examples=60, deadline=None)
def test_divisor_reducedness_matches_is_squarefree(h):
    """A homogeneous divisor reads reducedness from the heads of its tagged
    basis of (dh, h); it must agree with `is_squarefree`, and the syzygies of
    that basis are what a fresh `syzygy_module` gives."""
    names = [f"x{i}" for i in range(h.nvars)]
    if not is_squarefree(h):
        with pytest.raises(DivisorError, match="not reduced"):
            Divisor(names, h)
        return
    assert derlog(Divisor(names, h)) == _fresh_derlog(h, MonomialOrder())


def test_derlog_reuses_the_divisor_basis_or_computes_the_syzygies(call_counter):
    """A homogeneous divisor's `derlog` reads the basis `Divisor` built; an
    inhomogeneous one's computes its syzygies under the divisor's order."""
    names = ["x", "y", "z"]
    d = Divisor(names, parse_poly("x*y*z*(x+y+z)*(x-2*y+3*z)", names))
    calls = call_counter("groebner", "syzygy_module")
    assert derlog(d) == _fresh_derlog(d.h, d.order())
    assert calls == []
    d = Divisor(names, parse_poly("x*y*z + x^4 + y^5", names))
    assert derlog(d) == _fresh_derlog(d.h, d.order())
    assert len(calls) == 1


def test_inhomogeneous_divisor_builds_no_tagged_basis(call_counter):
    """An inhomogeneous equation takes the homogenised squarefree test: on
    this dense bivariate sextic the tagged basis of (dh, h) takes about a
    hundred times as long."""
    rng = random.Random(5)
    h = Poly(2, {(i, j): rng.randint(-5, 5) or 1 for i in range(7) for j in range(7 - i)})
    tagged = call_counter("groebner", "_tagged_basis")
    squarefree = call_counter("poly", "is_squarefree")
    Divisor(["x", "y"], h)
    assert tagged == []
    assert len(squarefree) == 1


def test_derlog_witnesses_are_exact(nc3, calderon, four_planes_divisor):
    for d in (nc3[0], calderon[0], four_planes_divisor):
        for field, witness in derlog(d):
            assert apply_field(field, d.h) == witness * d.h


def test_derlog_normal_crossing_contains_diagonal_fields(nc3):
    d, _ = nc3
    fields = derlog_fields(d)
    for i in range(3):
        diag = FreeElement([Poly.variable(3, j) if j == i else Poly.zero(3) for j in range(3)])
        assert member_of(fields, diag)


def test_derlog_contains_trivial_and_hamiltonian_fields(four_planes_divisor, calderon):
    for d in (four_planes_divisor, calderon[0]):
        n = d.nvars
        fields = derlog_fields(d)
        partials = d.partials()
        for i in range(n):
            hdi = FreeElement([d.h if j == i else Poly.zero(n) for j in range(n)])
            assert member_of(fields, hdi)
        for i in range(n):
            for j in range(i + 1, n):
                entries = [Poly.zero(n)] * n
                entries = list(entries)
                entries[i] = partials[j]
                entries[j] = -partials[i]
                assert member_of(fields, FreeElement(entries))


def test_derlog_four_planes_needs_more_than_three_generators(four_planes_divisor):
    v = is_free(four_planes_divisor)
    assert v.kind == FreenessVerdict.NOT_FREE
    assert v.generator_count >= 4


def test_derlog_h_smooth_contains_transverse_coordinate_field():
    names = ["x", "y"]
    d = Divisor(names, parse_poly("x", names))
    gens = derlog_h(d)
    dy = FreeElement([Poly.zero(2), Poly.constant(2, 1)])
    assert member_of(gens, dy)


def test_derlog_h_of_xy_is_hamiltonian(nc2):
    d, _ = nc2
    gens = derlog_h(d)
    expected = [FreeElement([parse_poly("x", d.names), parse_poly("-y", d.names)])]
    assert submodules_equal(gens, expected, ORD)


def test_weighted_homogeneous_splitting(nc3, lips_disc):
    """Tangent fields = annihilating fields + the radial field, as modules."""
    for d, _ in (nc3, lips_disc):
        n = d.nvars
        full = derlog_fields(d)
        ann = derlog_h(d)
        eul = euler_field(d.weights, n)
        combined = ann + [eul]
        assert submodules_equal(full, combined, d.order())


def test_euler_field_examples():
    e = euler_field((1, 1, 1), 3)
    assert e == FreeElement([Poly.variable(3, i) for i in range(3)])
    h = parse_poly("4*a^3 + 27*b^2", ["a", "b"])
    chi = euler_field((2, 3), 2)
    assert apply_field(chi, h) == h.scale(6)
    with pytest.raises(DivisorError):
        euler_field((1, 1, 0), 3)


def test_saito_check_diagonal(nc3):
    d, _ = nc3
    diag = [FreeElement([Poly.variable(3, j) if j == i else Poly.zero(3) for j in range(3)])
            for i in range(3)]
    basis, reason = saito_check(d, diag)
    assert basis is not None
    assert basis.unit == 1


def test_saito_check_fails_on_nonfree(four_planes_divisor):
    from itertools import combinations

    fields = derlog_fields(four_planes_divisor)
    tried = 0
    for subset in combinations(range(len(fields)), 3):
        basis, reason = saito_check(four_planes_divisor, [fields[i] for i in subset])
        assert basis is None
        tried += 1
        if tried > 30:
            break


def test_saito_check_rejects_nonlogarithmic(nc2):
    d, _ = nc2
    bad = [FreeElement([Poly.constant(2, 1), Poly.zero(2)]),
           FreeElement([Poly.zero(2), Poly.variable(2, 1)])]
    basis, reason = saito_check(d, bad)
    assert basis is None
    assert "logarithmic" in reason


def test_is_free_paper_examples(nc3, four_planes_divisor, calderon):
    assert is_free(nc3[0]).kind == FreenessVerdict.FREE
    assert is_free(four_planes_divisor).kind == FreenessVerdict.NOT_FREE
    assert is_free(calderon[0]).kind == FreenessVerdict.FREE


def test_saito_idempotence(nc3, calderon, lips_disc):
    for d, basis in (nc3, calderon, lips_disc):
        again, reason = saito_check(d, basis.fields())
        assert again is not None
        assert again.unit == basis.unit


@pytest.mark.parametrize("c", [Fraction(-3, 2), 5])
def test_saito_unit_scales_with_one_field(nc3, calderon, lips_disc, c):
    """Scaling one certified field by a constant c multiplies the unit by c;
    scaling it by a variable leaves a determinant that is a multiple of h
    but not a constant one."""
    for d, basis in (nc3, calderon, lips_disc):
        for j in range(basis.n):
            fields = basis.fields()
            scaled, reason = saito_check(d, fields[:j] + [fields[j].scale(c)] + fields[j + 1:])
            assert reason is None and scaled.unit == c * basis.unit
            x = Poly.variable(d.nvars, j)
            none, reason = saito_check(d, fields[:j] + [fields[j].scale(x)] + fields[j + 1:])
            assert none is None
            assert reason == "determinant is not a nonzero constant times h"


def test_negative_unit_is_negated_in_place(nc3, calderon, lips_disc, call_counter):
    """A certificate whose unit comes out negative is the Saito check of the
    fields with the first negated, field by field, after one check only."""
    checks = call_counter("logarithmic", "saito_check")
    for d, basis in (nc3, calderon, lips_disc):
        fields = basis.fields()
        fields[0] = -fields[0]
        assert saito_check(d, fields)[0].unit < 0
        before = len(checks)
        got, reason = logarithmic._positive_certificate(d, fields)
        assert reason is None and len(checks) == before + 1
        want, _ = saito_check(d, [-fields[0]] + fields[1:])
        assert got.unit == want.unit > 0
        assert got.theta == want.theta
        assert got.witnesses == want.witnesses


def test_log_forms_top_and_bottom(nc3):
    d, basis = nc3
    g0 = log_form_generators(basis, 0)
    assert len(g0) == 1
    assert poly_exact_div(g0[0].entries[0], d.h).is_constant()
    gtop = log_form_generators(basis, 3)
    assert len(gtop) == 1
    assert gtop[0].entries[0].is_constant() and not gtop[0].entries[0].is_zero()


def minor_loop_generators(basis, k: int) -> list:
    """`log_form_generators` by the per-(I, J) loop it replaced: one `Poly`
    minor table, with each pair's complements and sign taken afresh."""
    n = basis.n
    minor = minor_table(basis.matrix(), basis.divisor.h.nvars)
    full = tuple(range(n))
    gens = []
    for I in form_basis(n, k):
        Ic = tuple(i for i in full if i not in I)
        entries = []
        for J in form_basis(n, k):
            Jc = tuple(j for j in full if j not in J)
            m = minor(Jc, Ic)
            entries.append(-m if (sum(i + 1 for i in I) + sum(j + 1 for j in J)) % 2 else m)
        gens.append(FreeElement(entries))
    return gens


REFLECTION = {"A3": "x*y*z*(x-y)*(x-z)*(y-z)", "B3": "x*y*z*(x-y)*(x+y)*(x-z)*(x+z)*(y-z)*(y+z)"}


@pytest.mark.parametrize("kind", ["NC2", "NC3", "NC4", "NC5", "A3", "B3"])
def test_log_form_generators_match_the_minor_loop(kind):
    """Normal crossing in C^2..C^5, whose diagonal Saito matrix leaves most
    minors to the zero-support rule, and the A3 and B3 reflection
    arrangements, whose Saito matrices are dense: every degree, entry by
    entry."""
    if kind.startswith("NC"):
        basis = normal_crossing_basis(int(kind[2]))
    else:
        names = ["x", "y", "z"]
        basis = is_free(Divisor(names, parse_poly(REFLECTION[kind], names), (1, 1, 1))).basis
    for k in range(basis.n + 1):
        assert log_form_generators(basis, k) == minor_loop_generators(basis, k)


def test_log_forms_normal_crossing_equality(nc2, nc3):
    for d, basis in (nc2, nc3):
        n = d.nvars
        for k in range(0, n + 1):
            gens = log_form_generators(basis, k)
            expected = []
            for I in form_basis(n, k):
                coeff = Poly.constant(n, 1)
                for j in range(n):
                    if j not in I:
                        coeff = coeff * Poly.variable(n, j)
                expected.append(monomial_form(n, k, n, I, coeff))
            assert submodules_equal(gens, expected, ORD)


def test_pairing_matrix_invariant(nc3, calderon, lips_disc):
    for d, basis in (nc3, calderon, lips_disc):
        n = d.nvars
        gens = log_form_generators(basis, 1)
        uh = d.h.scale(basis.unit)
        for i, g in enumerate(gens):
            for j, f in enumerate(basis.fields()):
                val = Poly.zero(n)
                for l in range(n):
                    val = val + g.entries[l] * f.entries[l]
                assert val == (uh if i == j else Poly.zero(n))


def test_derivative_closure_invariant(nc3, calderon):
    """h*dg - dh^g lies in h times the next level of log form generators."""
    for d, basis in (nc3, calderon):
        n = d.nvars
        dh = FreeElement([d.h.derivative(i) for i in range(n)])
        for k in range(0, n):
            gk = log_form_generators(basis, k)
            target = [g.scale(d.h) for g in log_form_generators(basis, k + 1)]
            gb = groebner_basis(target, ORD)
            for g in gk:
                lhs = ext_d(n, k, g).scale(d.h) - wedge(n, 1, dh, k, g)
                assert is_member(lhs, gb, ORD)


def test_contraction_closure_invariant(nc3, calderon):
    for d, basis in (nc3, calderon):
        n = d.nvars
        for k in range(1, n + 1):
            gk = log_form_generators(basis, k)
            gb = groebner_basis(log_form_generators(basis, k - 1), ORD)
            for f in basis.fields():
                for g in gk:
                    assert is_member(contract(n, k, f, g), gb, ORD)


def _failing_saito(monkeypatch):
    """Make every Saito check inside `is_free` fail; returns the call list."""
    calls = []

    def fail(d, candidates):
        calls.append(candidates)
        return None, "forced failure"

    monkeypatch.setattr(logarithmic, "saito_check", fail)
    return calls


@pytest.mark.parametrize("text, weights", [
    ("x*y*z", (1, 1, 1)),
    ("x*y*(x-y)", None),                  # positive weights found by detection
    ("4*x^3 + 27*y^2", (2, 3)),
], ids=["given-weights", "detected-weights", "cusp"])
def test_graded_saito_failure_is_an_invariant_violation(monkeypatch, text, weights):
    names = ["x", "y", "z"][:3 if "z" in text else 2]
    d = Divisor(names, parse_poly(text, names), weights=weights)
    calls = _failing_saito(monkeypatch)
    with pytest.raises(InternalInvariantError, match="Saito"):
        is_free(d)
    assert len(calls) == 1  # the minimal generators only: no subset search


def test_ungraded_saito_failure_keeps_the_subset_search(monkeypatch, calderon):
    d, _ = calderon   # x*y*(x-y)*(x+l*y): its only weights give l weight 0
    assert 0 in d.semipositive_weights()
    calls = _failing_saito(monkeypatch)
    v = is_free(d)
    assert v.kind == FreenessVerdict.INCONCLUSIVE
    assert len(calls) > 1


def test_graded_saito_failure_exits_5(monkeypatch, capsys):
    _failing_saito(monkeypatch)
    job = Path(__file__).resolve().parent.parent / "jobs" / "is_free_normal_crossing.job"
    assert main(["--input", str(job)]) == 5
    assert "internal invariant violation" in capsys.readouterr().err


@st.composite
def _fields(draw):
    """Two to five fields in O^2 over 2 variables, drawn from few terms so
    that leads repeat, the first also scaled by 2 (the same lead), and the
    order with drawn weights."""
    def entry(min_size):
        exps = draw(st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
                             min_size=min_size, max_size=2))
        return Poly(2, {e: draw(st.sampled_from([-1, 1, 2])) for e in exps})

    fields = [FreeElement([entry(0), entry(1)]) for _ in range(draw(st.integers(2, 5)))]
    fields.append(fields[0].scale(2))
    weights = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    return fields, MonomialOrder(weights)


@given(_fields())
@settings(max_examples=100, deadline=None)
def test_canonical_field_order_matches_the_reference_sort(case):
    """Fields sort by descending lead under the reference key, and fields
    with one lead keep their order."""
    fields, order = case
    key = lambda t: term_key(order.with_nvars(2), t)
    want = sorted(fields, key=lambda f: key(max(f.vec(), key=key)), reverse=True)
    got = logarithmic._canonical_field_order(fields, order)
    assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)
