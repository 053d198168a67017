"""Groebner engine: bases, normal forms, syzygies, dimensions, minimal generator indices."""

from fractions import Fraction
from functools import partial
from itertools import product
from operator import add, le, mul, sub

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from logforms.groebner import (
    LinSpace,
    QuotientTable,
    StabilizationError,
    colon_ideal,
    colon_single,
    groebner_basis,
    intersect,
    is_member,
    lift_over_generators,
    minimal_generator_indices,
    normal_form,
    normal_form_with_cofactors,
    quotient_dimension,
    syzygies_and_head_leads,
    syzygy_module,
)
from logforms.module import INFINITE, FreeElement, Grading, ModulePresentation, ModuleError
from logforms.order import FIELD_MAX, MonomialOrder
from logforms.poly import Poly, parse_poly

from conftest import canonical, mono_key, monomials_of_weight, submodules_equal, term_key

N2 = ["x", "y"]
N3 = ["x", "y", "z"]
ORD = MonomialOrder()


def F(*texts, names=N2):
    return FreeElement([parse_poly(t, names) for t in texts])


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def test_gb_single_generator_is_itself():
    gb = groebner_basis([F("x")], ORD)
    assert gb == [F("x")]


def test_gb_contains_hand_run_spolynomial():
    gb = groebner_basis([F("x^2"), F("x*y + y^2")], ORD)
    assert F("y^3") in gb
    # still generates the same ideal
    assert is_member(F("x^2"), gb, ORD) and is_member(F("x*y+y^2"), gb, ORD)


def test_gb_rank2_vector_is_its_own_basis():
    v = F("y", "-x")
    assert groebner_basis([v], ORD) == [v]


def test_gb_empty_input():
    assert groebner_basis([], ORD) == []


def test_normal_form_membership():
    h = F("x*y*(x+y)")
    gb = groebner_basis([h], ORD)
    assert normal_form(h, gb, ORD).is_zero()


def test_normal_form_examples():
    gb = groebner_basis([F("x")], ORD)
    assert normal_form(F("x^2+1"), gb, ORD) == F("1")
    gb2 = groebner_basis([F("x^2 - y"), F("y^2")], ORD)
    assert normal_form(F("x^3"), gb2, ORD) == F("x*y")


def test_normal_form_rank_mismatch():
    with pytest.raises(ModuleError):
        normal_form(F("x", "y"), [F("x")], ORD)


def test_syzygy_koszul():
    syz = syzygy_module([F("x"), F("y")])
    assert submodules_equal(syz, [F("y", "-x")], ORD)


def test_syzygy_of_unit_is_zero():
    assert syzygy_module([F("1")]) == []


def test_syzygy_jacobian_with_equation():
    # the tangent-field engine input for h = xy
    cols = [F("y"), F("x"), F("x*y")]
    syz = syzygy_module(cols)
    expected = [F("x", "0", "-1"), F("0", "y", "-1")]
    assert submodules_equal(syz, expected, ORD)


def test_syzygies_annihilate_exactly():
    cols = [F("x^2+y"), F("x*y"), F("y^3-x")]
    for s in syzygy_module(cols):
        acc = Poly.zero(2)
        for a, c in zip(s.entries, cols):
            acc = acc + a * c.entries[0]
        assert acc.is_zero()


def test_generators_reduce_to_zero_property():
    gens = [F("x^3 - y"), F("x*y^2 + x"), F("y^4")]
    gb = groebner_basis(gens, ORD)
    for g in gens:
        assert normal_form(g, gb, ORD).is_zero()


def test_quotient_dimension_examples():
    assert quotient_dimension(ModulePresentation(1, [F("x"), F("y")])) == 1
    assert quotient_dimension(ModulePresentation(1, [F("x^2"), F("y^3")])) == 6
    p = ModulePresentation(2, [F("x", "0"), F("0", "x"), F("y", "0"), F("0", "y^3")])
    assert quotient_dimension(p) == 4


def test_quotient_dimension_infinite():
    assert quotient_dimension(ModulePresentation(1, [F("x")])) == INFINITE


def test_quotient_dimension_order_independence():
    for rels in ([F("x^2"), F("y^3")], [F("x^2", "0"), F("0", "y"), F("y^4", "0"), F("0", "x")],
                 [F("x^2 - y^3"), F("x*y")]):
        rank = rels[0].rank
        p = ModulePresentation(rank, rels)
        d1 = quotient_dimension(p, MonomialOrder())
        d2 = quotient_dimension(p, MonomialOrder((5, 1)))
        assert d1 == d2


@pytest.mark.parametrize("rank, rels, grading", [
    (1, [F("x^2"), F("y^3")], Grading((1, 1), (0,))),
    (2, [F("x^2", "0"), F("y", "x"), F("0", "y^2"), F("0", "x^3")], Grading((1, 2), (0, 1))),
    (2, [F("x^2", "y"), F("x*y", "0"), F("y^2", "0"), F("0", "x^2"), F("0", "x*y"), F("0", "y^2")],
     Grading((1, 1), (0, 1))),
])
def test_staircase_finite_count_matches_graded_slices(rank, rels, grading):
    p = ModulePresentation(rank, rels, grading=grading)
    for order in (MonomialOrder(), MonomialOrder((3, 1))):
        qt = QuotientTable(p, order)
        slices = [qt.layout.unpack(t) for d in range(0, 21) for t in qt.standard_monomials(d)]
        assert sorted(slices) == sorted(qt.standard_terms())
        assert quotient_dimension(p, order) == sum(qt.table(20).values())


def _monomials_of_degree(n, d):
    out = []

    def rec(i, rem, pre):
        if i == n:
            if rem == 0:
                out.append(tuple(pre))
            return
        for a in range(rem + 1):
            pre.append(a)
            rec(i + 1, rem - a, pre)
            pre.pop()

    rec(0, d, [])
    return out


def _dense_rank(rows):
    """Rank of dense rows of Fractions by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_minimal_generator_count_matches_dense_oracle():
    """Nakayama count equals sum over degrees of dim M_d - dim (mM)_d
    computed by dense linear algebra (homogeneous generators)."""
    names = ["x", "y", "z"]
    gens = [FreeElement([parse_poly(t, names)]) for t in
            ["x*y", "y*z", "x*y + z^2", "x^2*y", "z^3 - x*y*z"]]
    count = len(minimal_generator_indices(gens, ORD))

    def span_dim(polys, degree):
        monos = _monomials_of_degree(3, degree)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for p in polys:
            row = [Fraction(0)] * len(monos)
            for mono, c in p.terms.items():
                row[index[mono]] = c
            rows.append(row)
        return _dense_rank(rows)

    maxdeg = max(g.entries[0].total_degree() for g in gens)
    total = 0
    for d in range(0, maxdeg + 1):
        full, inside = [], []
        for g in gens:
            gd = g.entries[0].total_degree()
            if gd > d:
                continue
            for m in _monomials_of_degree(3, d - gd):
                mult = g.entries[0] * Poly.monomial(3, m)
                full.append(mult)
                if sum(m) >= 1:
                    inside.append(mult)
        total += span_dim(full, d) - span_dim(inside, d)
    assert count == total


def test_lift_over_generators():
    gens = [F("x^2 - y"), F("y^2")]
    target = F("x^2*y^2 - y^3")
    coeffs = lift_over_generators(target, gens, ORD)
    assert coeffs is not None
    acc = Poly.zero(2)
    for c, g in zip(coeffs, gens):
        acc = acc + c * g.entries[0]
    assert acc == target.entries[0]
    assert lift_over_generators(F("x"), gens, ORD) is None


def test_quotient_table_hilbert():
    names = ["x", "y", "z"]
    p = ModulePresentation(1, [FreeElement([parse_poly("x*y*z", names)])],
                           grading=Grading((1, 1, 1), (0,)))
    qt = QuotientTable(p)
    assert qt.table(5) == {0: 1, 1: 3, 2: 6, 3: 9, 4: 12, 5: 15}


def test_gb_canonical_under_input_shuffle():
    gens = [F("x^2 - y"), F("y^2"), F("x*y + y^2"), F("x^3")]
    gb1 = groebner_basis(gens, ORD)
    gb2 = groebner_basis(list(reversed(gens)), ORD)
    assert gb1 == gb2
    module = [F("x^2", "y"), F("x*y", "0"), F("y^2", "x"), F("0", "x^2 - y^2")]
    shuffles = [module, list(reversed(module)), module[2:] + module[:2]]
    bases = [groebner_basis(gens, ORD) for gens in shuffles]
    assert bases[0] == bases[1] == bases[2]


def test_saturation_nonstabilization_raises(monkeypatch):
    from logforms import groebner

    monkeypatch.setattr(groebner, "SATURATION_STEPS", 0)
    with pytest.raises(StabilizationError):
        groebner.saturate([F("x^2")], 1, [parse_poly("x", N2), parse_poly("y", N2)], ORD)


def test_gb_spolynomials_reduce_to_zero():
    from logforms.order import mono_lcm

    gens = [F("x^2 - y"), F("x*y + y^2")]
    gb = groebner_basis(gens, ORD)
    key = partial(term_key, ORD.with_nvars(2))
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            vi, vj = gb[i].vec(), gb[j].vec()
            ti = max(vi, key=key)
            tj = max(vj, key=key)
            if ti[0] != tj[0]:
                continue
            L = mono_lcm(ti[1], tj[1])
            a = gb[i].scale(Poly.monomial(2, mono_div(L, ti[1]), Fraction(1, vi[ti])))
            b = gb[j].scale(Poly.monomial(2, mono_div(L, tj[1]), Fraction(1, vj[tj])))
            s = a - b
            assert normal_form(s, gb, ORD).is_zero()


def test_normal_form_fully_reduced():
    gb = groebner_basis([F("x^2 - y"), F("y^2")], ORD)
    key = partial(term_key, ORD.with_nvars(2))
    leads = [max(g.vec(), key=key) for g in gb]
    nf = normal_form(F("x^5 + x^3*y + y^4 + x"), gb, ORD)
    for comp, p in enumerate(nf.entries):
        for e in p.terms:
            assert not any(lc == comp and mono_divides(le, e) for lc, le in leads)


def _orders(nvars):
    """The order under unit weights, or under drawn weights from 1 to 3."""
    return st.builds(MonomialOrder, st.none() | st.tuples(*[st.integers(1, 3)] * nvars))


@st.composite
def _polys(draw, nvars, max_terms, max_exp):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[e] = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                            draw(st.integers(1, 2)))
    return Poly(nvars, terms)


@st.composite
def _division_inputs(draw):
    """Generators and a dividend in O^rank, rank 1 or 2, over 1 to 3
    variables, and an order."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 3 if rank == 1 else 2))

    def element(max_terms):
        return FreeElement([draw(_polys(nvars, max_terms, 2)) for _ in range(rank)])

    gens = [element(2) for _ in range(draw(st.integers(1, 3)))]
    return gens, element(5), draw(_orders(nvars))


@st.composite
def _quotients(draw):
    """A presentation in O^rank, rank 1 or 2, over 1 to 3 variables, and
    an order."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 3 if rank == 1 else 2))
    relations = [FreeElement([draw(_polys(nvars, 2, 2)) for _ in range(rank)])
                 for _ in range(draw(st.integers(1, 3)))]
    return ModulePresentation(rank, relations, nvars=nvars), draw(_orders(nvars))


@given(_quotients())
@settings(max_examples=80, deadline=None)
def test_quotient_leads_are_the_minimal_reference_leads(case):
    """Component by component, a quotient table's leads are the minimal
    leads of its basis by the reference key, each once."""
    p, order = case
    qt = QuotientTable(p, order)
    key = partial(term_key, order.with_nvars(p.nvars))
    leads: list = [[] for _ in range(p.rank)]
    for g in qt.gb:
        c, e = max(g.vec(), key=key)
        leads[c].append(e)
    minimal = [sorted({e for e in lst if not any(f != e and mono_divides(f, e) for f in lst)})
               for lst in leads]
    assert [sorted(lst) for lst in qt.leads] == minimal


@st.composite
def _graded_quotients(draw):
    """A graded presentation in O^rank, rank 1 to 3 over 1 to 4 variables,
    with drawn weights and shifts and a few homogeneous relations of one or
    two terms per component (half the time with a pure power of every
    variable in every component, so the quotient is finite), and an order
    with weights of its own."""
    rank = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 4))
    weights = draw(st.tuples(*[st.integers(1, 3)] * nvars))
    shifts = draw(st.tuples(*[st.integers(0, 2)] * rank))
    relations = []
    for _ in range(draw(st.integers(0, 5))):
        degree = draw(st.integers(max(shifts), max(shifts) + 4))
        entries = []
        for shift in shifts:
            monos = monomials_of_weight(nvars, weights, degree - shift)
            chosen = draw(st.lists(st.sampled_from(monos), max_size=2)) if monos else []
            entries.append(Poly(nvars, {e: Fraction(draw(st.integers(1, 3))) for e in chosen}))
        relations.append(FreeElement(entries))
    if draw(st.booleans()):  # a pure power of every variable in every component
        for c in range(rank):
            for i in range(nvars):
                power = tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(nvars))
                relations.append(FreeElement([Poly(nvars, {power: Fraction(1)}) if j == c
                                              else Poly.zero(nvars) for j in range(rank)]))
    order = draw(_orders(nvars))
    return ModulePresentation(rank, relations, Grading(weights, shifts), nvars), order


@given(_graded_quotients())
@settings(max_examples=80, deadline=None)
def test_staircase_walk_matches_the_enumeration(case):
    """The walked slices are the monomials of each degree that no lead
    divides, in the order of the enumeration; `standard_terms` lists the
    standard terms of a finite quotient sorted.  A finite staircase has no
    terms of degree 40000; an infinite one raises there, above the packed
    fields' limit."""
    p, order = case
    qt = QuotientTable(p, order)
    g = p.grading

    def standard(comp, monos):
        return [(comp, e) for e in monos if not any(mono_divides(l, e) for l in qt.leads[comp])]

    for degree in range(0, 13):
        want = [t for c, s in enumerate(g.shifts)
                for t in standard(c, monomials_of_weight(p.nvars, g.weights, degree - s))]
        assert [qt.layout.unpack(t) for t in qt.standard_monomials(degree)] == want
    terms = qt.standard_terms()
    event("infinite" if terms is None else "finite")
    if terms is None:
        with pytest.raises(StabilizationError):
            qt.dim(40000)
    else:
        box = range(1 + max((max(e, default=0) for ls in qt.leads for e in ls), default=0))
        assert terms == [t for c in range(p.rank)
                         for t in standard(c, product(box, repeat=p.nvars))]
        assert qt.dim(40000) == 0


@st.composite
def _closable_quotients(draw):
    """A graded presentation whose table may stop its Buchberger loop: rank
    1 to 3 over 1 to 3 variables, weights 1 or 2, one shift for every
    component and the order of its grading, with homogeneous relations of
    up to three terms per component, and half the time one relation per
    variable and component holding a pure power of that variable, now and
    then beside one more term of its degree, so that many quotients are
    finite."""
    rank = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    weights = draw(st.tuples(*[st.integers(1, 2)] * nvars))
    shift = draw(st.integers(0, 2))
    coeff = st.sampled_from([-2, -1, 1, 2, 3])

    def poly(monos, size):
        chosen = draw(st.lists(st.sampled_from(monos), max_size=size)) if monos else []
        return Poly(nvars, {e: draw(coeff) for e in chosen})

    relations = []
    for _ in range(draw(st.integers(1, 6))):
        monos = monomials_of_weight(nvars, weights, draw(st.integers(0, 4)))
        relations.append(FreeElement([poly(monos, 3) for _ in range(rank)]))
    if draw(st.booleans()):
        for c in range(rank):
            for i in range(nvars):
                power = tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(nvars))
                monos = monomials_of_weight(nvars, weights, power[i] * weights[i])
                entry = poly(monos, 1) + Poly(nvars, {power: 1})
                if entry.is_zero():
                    continue
                relations.append(FreeElement([entry if j == c else Poly.zero(nvars)
                                              for j in range(rank)]))
    grading = Grading(weights, (shift,) * rank)
    return ModulePresentation(rank, relations, grading, nvars), MonomialOrder(weights)


@given(_closable_quotients())
@example((ModulePresentation(1, [F("x^2"), F("y^3"), F("x*y^2")], Grading((1, 1), (0,))),
          MonomialOrder((1, 1))))
@settings(max_examples=150, deadline=None)
def test_a_closed_staircase_stops_at_the_full_basis(case):
    """A table that may stop its Buchberger loop once its staircase closes
    has the reduced basis that `groebner_basis` computes to the end, and
    the standard terms of that basis: those no lead of it divides.  In the
    example the leads x^2 and y^3 cover every term of degree 4 and up, but
    the input x*y^2 of degree 3 still comes: the loop goes on."""
    p, order = case
    qt = QuotientTable(p, order)
    gb = groebner_basis(p.relations, order)
    assert qt.gb == gb
    key = partial(term_key, order)
    leads: list = [[] for _ in range(p.rank)]
    for g in gb:
        c, e = max(g.vec(), key=key)
        leads[c].append(e)
    finite = all(any(sum(map(bool, e)) == 0 for e in ls)
                 or {e.index(max(e)) for e in ls if sum(map(bool, e)) == 1} == set(range(p.nvars))
                 for ls in leads)
    terms = qt.standard_terms()
    event("finite" if finite else "infinite")
    if not finite:
        assert terms is None
    else:
        box = range(1 + max((max(e, default=0) for ls in leads for e in ls), default=0))
        assert terms == [(c, e) for c in range(p.rank) for e in product(box, repeat=p.nvars)
                         if not any(mono_divides(lead, e) for lead in leads[c])]


def test_unequal_shifts_never_stop(call_counter):
    """With one shift for both components the table stops once x and y
    lead in each: it never divides the four redundant relations.  With
    shifts 0 and 1 the heap's degree is not the grading's, so the table
    divides every input and pair, as `groebner_basis` does before
    interreduction."""
    rels = [F("x", "0"), F("y", "0"), F("0", "x"), F("0", "y"),
            F("x^2", "0"), F("0", "x^2"), F("0", "x*y"), F("y^3", "0")]
    divisions = call_counter("groebner", "_reduce_full")
    call_counter("groebner", "_interreduce")
    groebner_basis(rels, ORD)
    names = [name for name, _ in call_counter.log]
    full = names.index("_interreduce")
    for shifts, count in (((1, 1), 4), ((0, 1), full)):
        del divisions[:]
        QuotientTable(ModulePresentation(2, rels, Grading((1, 1), shifts)), ORD)
        assert len(divisions) == count


def test_counts_reduce_no_tail(call_counter):
    """A count reads leads alone: `quotient_dimension` and
    `minimal_generator_indices` reduce no tail, and a table reduces its
    tails once, on the first reduction against it."""
    reduced = call_counter("groebner", "_interreduce")
    rels = [F("x^2 - y^3"), F("x*y"), F("y^4")]
    assert quotient_dimension(ModulePresentation(1, rels)) == 5
    assert minimal_generator_indices([F("x"), F("y"), F("x+y"), F("x^2")]) == [0, 1]
    assert not reduced
    qt = QuotientTable(ModulePresentation(1, rels))
    assert qt.reduce(F("x^3").vec()) == {} and qt.reduce(F("y^3").vec()) == F("x^2").vec()
    gb = qt.gb
    assert len(reduced) == 1
    assert gb == groebner_basis(rels, ORD)


def _naive_normal_form(f, basis, order):
    """Remainder of f by full division: reduce the greatest remaining term by
    the first basis element whose lead divides it, found by scanning for the
    maximum afresh on every step."""
    key = partial(term_key, order.with_nvars(f.nvars))
    leads = [(max(v, key=key), v) for v in (b.vec() for b in basis)]
    work, rem = f.vec(), {}
    while work:
        t = max(work, key=key)
        hit = next(((lt, v) for lt, v in leads
                    if lt[0] == t[0] and mono_divides(lt[1], t[1])), None)
        if hit is None:
            rem[t] = work.pop(t)
            continue
        lt, v = hit
        shift, factor = mono_div(t[1], lt[1]), Fraction(work[t], v[lt])
        for (c, e), a in v.items():
            u = (c, mono_mul(e, shift))
            work[u] = work.get(u, 0) - factor * a
            if not work[u]:
                del work[u]
    return FreeElement.from_vec(f.rank, f.nvars, rem)


@given(_division_inputs())
@settings(max_examples=80, deadline=None)
def test_normal_form_matches_naive_division(inputs):
    gens, f, order = inputs
    gb = groebner_basis(gens, order)
    assert normal_form(f, gb, order) == _naive_normal_form(f, gb, order)


@st.composite
def _table_inputs(draw):
    """Generators, several dividends of their rank and ring, and an order."""
    gens, f, order = draw(_division_inputs())
    more = [FreeElement([draw(_polys(f.nvars, 5, 2)) for _ in range(f.rank)])
            for _ in range(draw(st.integers(1, 4)))]
    return gens, [f] + more, order


@given(_table_inputs())
@settings(max_examples=80, deadline=None)
def test_table_reduce_matches_normal_form(inputs):
    gens, fs, order = inputs
    qt = QuotientTable(ModulePresentation(fs[0].rank, gens, nvars=fs[0].nvars), order)
    for f in fs:
        # every dividend goes through the same kept reducer table
        r = FreeElement.from_vec(f.rank, f.nvars, qt.reduce(f.vec()))
        assert r == normal_form(f, qt.gb, order) == _naive_normal_form(f, qt.gb, order)
        assert r.is_zero() == is_member(f, qt.gb, order)
    for g in gens:
        assert not qt.reduce(g.vec())


@st.composite
def _shared_term_inputs(draw):
    """`_table_inputs` plus sums and rational multiples of the dividends, so
    that later dividends share terms with earlier ones."""
    gens, fs, order = draw(_table_inputs())
    k = len(fs)
    shared = [fs[i] + fs[(i + 1) % k] for i in range(k)]
    shared += [f.scale(Fraction(draw(st.sampled_from([-3, -1, 2])), draw(st.integers(1, 3))))
               for f in fs]
    return gens, fs + shared, order


@given(_shared_term_inputs())
@settings(max_examples=60, deadline=None)
def test_table_reduce_is_order_free(inputs):
    """Reducing through one table in either order, or through a fresh table
    per dividend, gives the same normal forms as full division."""
    gens, fs, order = inputs
    pres = ModulePresentation(fs[0].rank, gens, nvars=fs[0].nvars)
    forward, backward = QuotientTable(pres, order), QuotientTable(pres, order)
    ahead = [forward.reduce(f.vec()) for f in fs]
    behind = [backward.reduce(f.vec()) for f in reversed(fs)][::-1]
    gb = forward.gb
    for f, a, b in zip(fs, ahead, behind):
        assert a == b == QuotientTable(pres, order).reduce(f.vec())
        assert (FreeElement.from_vec(f.rank, f.nvars, a) == normal_form(f, gb, order)
                == _naive_normal_form(f, gb, order))


def test_table_reduce_rejects_a_term_beyond_the_rank():
    """A term whose component is not one of the presentation's raises, also
    once the table has reduced other terms."""
    qt = QuotientTable(ModulePresentation(2, [F("x", "y")], nvars=2), ORD)
    with pytest.raises(ModuleError):
        qt.reduce({(2, (0, 0)): Fraction(1)})
    assert qt.reduce({(0, (1, 0)): Fraction(1)}) == {(1, (0, 1)): Fraction(-1)}
    with pytest.raises(ModuleError):
        qt.reduce({(0, (1, 0)): Fraction(1), (3, (1, 0)): Fraction(1)})


def test_table_reduce_follows_a_deep_chain():
    """Modulo x - y, x^1500 reduces through 1500 terms in a row, each the
    one tail term of the one before, deeper than Python's recursion limit."""
    qt = QuotientTable(ModulePresentation(1, [F("x - y")], nvars=2), ORD)
    assert qt.reduce({(0, (1500, 0)): Fraction(1)}) == {(0, (0, 1500)): Fraction(1)}


def test_table_reduce_of_the_empty_vec_is_empty():
    qt = QuotientTable(ModulePresentation(1, [F("x^2")], nvars=2), ORD)
    assert qt.reduce({}) == {}


def _combination(coeffs, elems):
    acc = FreeElement.zero(elems[0].rank, elems[0].nvars)
    for c, g in zip(coeffs, elems):
        acc = acc + g.scale(c)
    return acc


@given(_division_inputs())
@settings(max_examples=80, deadline=None)
def test_normal_form_with_cofactors_recombines(inputs):
    gens, f, order = inputs
    gb = groebner_basis(gens, order)
    # against the reduced basis, and against the fractional generators as given
    for basis in (gb, gens):
        r, cofactors = normal_form_with_cofactors(f, basis, order)
        assert len(cofactors) == len(basis)
        assert _combination(cofactors, basis) + r == f
        assert r == normal_form(f, basis, order) == _naive_normal_form(f, basis, order)


@given(_division_inputs(), st.data())
@settings(max_examples=80, deadline=None)
def test_lift_over_fractional_generators_round_trips(inputs, data):
    gens, f, order = inputs
    nvars = f.nvars
    multipliers = [data.draw(_polys(nvars, 3, 2)) for _ in gens]
    member = _combination(multipliers, gens)
    coeffs = lift_over_generators(member, gens, order)
    assert coeffs is not None
    assert _combination(coeffs, gens) == member
    lifted = lift_over_generators(f, gens, order)
    if lifted is None:
        assert not is_member(f, groebner_basis(gens, order), order)
    else:
        assert _combination(lifted, gens) == f


_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _dependent_rows(draw):
    """Fractional rows of length 5: a few drawn rows, then fractional
    combinations of them, shuffled, so the rank is often short."""
    rows = draw(st.lists(st.lists(_FRACTIONS, min_size=5, max_size=5), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        mult = [draw(_FRACTIONS) for _ in rows]
        rows.append([sum((m * r[i] for m, r in zip(mult, rows)), Fraction(0)) for i in range(5)])
    return draw(st.permutations(rows))


@given(_dependent_rows())
@settings(max_examples=100, deadline=None)
def test_linspace_dim_matches_dense_rank(rows):
    space = LinSpace()
    for row in rows:
        space.add(dict(enumerate(row)))
    assert space.dim == _dense_rank(rows)


def _coefficients(x):
    if isinstance(x, FreeElement):
        return [c for p in x.entries for c in p.terms.values()]
    if isinstance(x, Poly):
        return list(x.terms.values())
    if isinstance(x, dict):
        return list(x.values())
    return [c for y in x for c in _coefficients(y)]


@given(_division_inputs())
@settings(max_examples=60, deadline=None)
def test_kernel_results_are_canonical_rationals(inputs):
    """Values leave the integer kernel as canonical exact rationals: an int
    when integral, a `Fraction` otherwise, never a float."""
    gens, f, order = inputs
    gb = groebner_basis(gens, order)
    qt = QuotientTable(ModulePresentation(f.rank, gens, nvars=f.nvars), order)
    lifted = lift_over_generators(gens[0].scale(Poly.constant(f.nvars, Fraction(1, 3))),
                                  gens, order)
    results = [gb, normal_form(f, gb, order), qt.reduce(f.vec()), syzygy_module(gens, order),
               lifted, normal_form_with_cofactors(f, gens, order)[1]]
    for c in _coefficients(results):
        assert canonical(c)


@st.composite
def _homogeneous(draw, nvars, degree, max_terms):
    """A polynomial of total degree `degree` with up to max_terms terms
    (zero when it draws none)."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e, rest = [], degree
        for _ in range(nvars - 1):
            a = draw(st.integers(0, rest))
            e.append(a)
            rest -= a
        terms[tuple(e + [rest])] = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                                            draw(st.integers(1, 2)))
    return Poly(nvars, terms)


@st.composite
def _colon_inputs(draw):
    """Relations of a submodule N of O^rank, ideal generators and an order,
    rank 1 or 2 over 1 to 3 variables.  Graded inputs have every relation
    and generator homogeneous for unit weights (the components of a relation
    share its degree).  Ungraded ones have at most two relations and
    squarefree-exponent ideal generators: larger inhomogeneous inputs now
    and then keep Buchberger's algorithm busy for more than ten seconds, on
    every route to the colon."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 3 if rank == 1 else 2))
    graded = draw(st.booleans())

    def poly(degree, max_exp):
        if graded:
            return draw(_homogeneous(nvars, degree, 2))
        return draw(_polys(nvars, 2, max_exp))

    relations = []
    for _ in range(draw(st.integers(1, 3 if graded else 2))):
        degree = draw(st.integers(1, 3))
        relations.append(FreeElement([poly(degree, 2) for _ in range(rank)]))
    ideal = [poly(draw(st.integers(1, 2)), 1) for _ in range(draw(st.integers(1, 3)))]
    ideal = [f for f in ideal if not f.is_zero()] or [Poly.variable(nvars, 0)]
    return relations, rank, ideal, draw(_orders(nvars))


@given(_colon_inputs())
@settings(max_examples=80, deadline=None)
def test_colon_ideal_is_the_intersection_of_single_colons(inputs):
    """N : (f_1, ..., f_k) as one kernel is the reduced basis of the
    intersection of the colons N : f_i, lies in the colon and contains N."""
    relations, rank, ideal, order = inputs
    colon = colon_ideal(relations, rank, ideal, order)
    meet = colon_single(relations, rank, ideal[0], order)
    for f in ideal[1:]:
        meet = intersect(meet, colon_single(relations, rank, f, order), order)
    assert colon == groebner_basis(meet, order)
    gb = groebner_basis(relations, order)
    for v in colon:
        assert all(is_member(v.scale(f), gb, order) for f in ideal)
    assert all(is_member(g, colon, order) for g in relations)


@st.composite
def _intersect_inputs(draw):
    """Two families of elements of O^rank and an order, rank 1 or 2 over 1 to
    3 variables: homogeneous for unit weights (one to three elements each),
    or arbitrary (one or two, and one; larger inhomogeneous families now and
    then keep Buchberger's algorithm busy for more than ten seconds, on
    either route)."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 3 if rank == 1 else 2))
    graded = draw(st.booleans())

    def element():
        if graded:
            degree = draw(st.integers(1, 3))
            return FreeElement([draw(_homogeneous(nvars, degree, 2)) for _ in range(rank)])
        return FreeElement([draw(_polys(nvars, 2, 2)) for _ in range(rank)])

    gens_a = [element() for _ in range(draw(st.integers(1, 3 if graded else 2)))]
    gens_b = [element() for _ in range(draw(st.integers(1, 3 if graded else 1)))]
    return gens_a, gens_b, draw(_orders(nvars))


@given(_intersect_inputs())
@settings(max_examples=60, deadline=None)
def test_intersect_matches_syzygy_construction(inputs):
    """A meet B read from one stacked basis equals the span of
    sum(s_i * a_i) over the syzygies s of (a, b), as a reduced basis."""
    gens_a, gens_b, order = inputs
    a = len(gens_a)
    spans = [_combination(s.entries[:a], gens_a)
             for s in syzygy_module(gens_a + gens_b, order)]
    expected = groebner_basis([v for v in spans if not v.is_zero()], order)
    assert intersect(gens_a, gens_b, order) == expected


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def _ideals(draw):
    nvars = draw(st.integers(2, 3))
    return [draw(_polys(nvars, 3, 3)) for _ in range(draw(st.integers(1, 3)))]


def _monic(terms: dict, order: MonomialOrder) -> frozenset:
    lc = terms[max(terms, key=partial(mono_key, order))]
    return frozenset((e, Fraction(c, lc)) for e, c in terms.items())


@given(_ideals())
@settings(max_examples=40, deadline=None)
def test_reduced_basis_matches_sympy(sympy, polys):
    """Our reduced basis is sympy's under grevlex (our order with unit
    weights), x0 > x1 > x2."""
    nvars = polys[0].nvars
    order = MonomialOrder().with_nvars(nvars)
    syms = sympy.symbols(f"x0:{nvars}")
    exprs = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                   for e, c in p.terms.items()}, *syms).as_expr() for p in polys]
    theirs = sympy.groebner(exprs, *syms, order="grevlex")
    ours = groebner_basis([FreeElement([p]) for p in polys], order)
    assert {_monic(g.entries[0].terms, order) for g in ours} == {
        _monic({e: Fraction(int(c.p), int(c.q)) for e, c in q.as_dict().items()}, order)
        for q in theirs.polys}
    assert len(ours) == len(theirs.polys)


@st.composite
def _families(draw):
    """A family of elements of O^rank, rank 1 or 2 over 1 to 3 variables, and
    the same module presented four other ways: shuffled, with one element
    repeated, with one element scaled, and with an O-combination of the
    family appended.  Graded families are homogeneous for unit weights (one
    to three elements, and the combination homogeneous too); ungraded ones
    are as small as in the colon tests (one or two elements of two terms,
    exponents up to 2, and monomial multipliers of exponent at most 1)."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 3 if rank == 1 else 2))
    graded = draw(st.booleans())
    coeff = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 2))
    degrees, gens = [], []
    for _ in range(draw(st.integers(1, 3 if graded else 2))):
        degrees.append(draw(st.integers(1, 3)))
        if graded:
            gens.append(FreeElement([draw(_homogeneous(nvars, degrees[-1], 2))
                                     for _ in range(rank)]))
        else:
            gens.append(FreeElement([draw(_polys(nvars, 2, 2)) for _ in range(rank)]))
    m = len(gens)
    perm = draw(st.permutations(range(m)))
    i = draw(st.integers(0, m - 1))
    scale = draw(coeff)
    top = max(degrees)
    multipliers = []
    for d in degrees:
        if graded:
            e = [0] * nvars
            for _ in range(top - d):
                e[draw(st.integers(0, nvars - 1))] += 1
        else:
            e = [draw(st.integers(0, 1)) for _ in range(nvars)]
        multipliers.append(Poly.monomial(nvars, tuple(e), draw(coeff))
                           if draw(st.booleans()) else Poly.zero(nvars))
    return gens, perm, i, scale, multipliers, draw(_orders(nvars))


def _put(seq, k, v):
    """A list copy of seq with v at position k."""
    out = list(seq)
    out[k] = v
    return out


@given(_families())
@settings(max_examples=80, deadline=None)
def test_bases_do_not_depend_on_the_presentation(family):
    """`groebner_basis` gives one output for every presentation of a module,
    and `syzygy_module` gives the reduced basis of the syzygies the
    presentation changes to: permuted with the columns; with e_i - e_m added
    for a repeated column; with entry i divided by c when column i is scaled
    by c; with (a, -1) added for an appended column sum(a_j * column_j).
    Each input reaches the Buchberger loop in another order, and some reduce
    to zero there."""
    gens, perm, i, c, a, order = family
    m, nvars = len(gens), gens[0].nvars
    gb = groebner_basis(gens, order)
    syz = syzygy_module(gens, order)
    padded = [FreeElement([*s.entries, Poly.zero(nvars)]) for s in syz]
    presentations = [
        ([gens[k] for k in perm], [FreeElement([s.entries[k] for k in perm]) for s in syz]),
        (gens + [gens[i]],
         padded + [FreeElement.unit(m + 1, nvars, i) - FreeElement.unit(m + 1, nvars, m)]),
        (_put(gens, i, gens[i].scale(c)),
         [FreeElement(_put(s.entries, i, s.entries[i].scale(1 / c))) for s in syz]),
        (gens + [_combination(a, gens)], padded + [FreeElement([*a, Poly.constant(nvars, -1)])]),
    ]
    for columns, syzygies in presentations:
        assert groebner_basis(columns, order) == gb
        assert syzygy_module(columns, order) == groebner_basis(syzygies, order)


@st.composite
def _packing_orders(draw):
    """An order over 1 to 5 variables, a rank from 1 to 6,
    the reference term key of the order and its packed layout: unit or
    drawn positive weights, plain or the elimination order, with 1 to rank
    head components and the rest tags."""
    nvars = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 6))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 7)] * nvars))
    order = MonomialOrder(weights).with_nvars(nvars)
    heads = draw(st.none() | st.integers(1, rank))
    return partial(term_key, order, rank=heads), order.layout(nvars, heads), rank, nvars


@st.composite
def _exponents(draw, nvars):
    """An exponent each of whose entries is small, or at most FIELD_MAX /
    (7 * nvars) (so that every weighted degree fits), or up to half of
    FIELD_MAX or FIELD_MAX, or within 2 of FIELD_MAX: near the bound, and
    often beyond it in a degree field or once multiplied."""
    entries = [st.integers(0, 1), st.integers(0, FIELD_MAX // (7 * nvars)),
               st.integers(0, FIELD_MAX // 2), st.integers(0, FIELD_MAX),
               st.integers(FIELD_MAX - 2, FIELD_MAX)]
    return tuple(draw(st.one_of(entries)) for _ in range(nvars))


def _packed_or_none(layout, term):
    try:
        return layout.pack(term)
    except StabilizationError:
        return None


@given(_packing_orders(), st.data())
@settings(max_examples=500, deadline=None)
def test_packed_terms_follow_the_term_key(setting, data):
    """A term packs exactly when every entry of its reference `term_key`
    fits a field; packing round-trips; a smaller int is a greater term under
    `term_key`; within a component the packed divisibility test is
    `mono_divides`; and adding the shift of two terms that differ by x^s
    multiplies any term of the right kind by x^s, or sets a guard bit when
    the product does not fit."""
    key, layout, rank, nvars = setting
    terms = [(data.draw(st.integers(0, rank - 1)), data.draw(_exponents(nvars)))
             for _ in range(3)]
    packed = [_packed_or_none(layout, t) for t in terms]
    for t, p in zip(terms, packed):
        assert (p is not None) == all(abs(k) <= FIELD_MAX for k in key(t))
        if p is not None:
            assert layout.unpack(p) == t
            assert not p & layout.guards
    (a, b, u), (pa, pb, pu) = terms, packed
    if pa is not None and pb is not None:
        assert (pa < pb) == (key(a) > key(b))
        assert (pa == pb) == (a == b)
        if a[0] == b[0]:
            assert layout.divides(pa, pb) == mono_divides(a[1], b[1])
    s = data.draw(_exponents(nvars))
    lead = _packed_or_none(layout, (a[0], mono_mul(a[1], s)))
    if pa is None or pu is None or lead is None:
        return
    head_shift, tag_shift = layout.shifts(lead, pa)
    if pa >= layout.tag_start and pu < layout.tag_start:
        return  # a tag lead has no head terms behind it
    shifted = pu + (head_shift if pu < layout.tag_start else tag_shift)
    want = _packed_or_none(layout, (u[0], mono_mul(u[1], s)))
    if want is None:
        assert shifted & layout.guards
    else:
        assert shifted == want


def test_exponent_beyond_the_field_raises():
    big = FIELD_MAX + 1
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        groebner_basis([F(f"x^{big} + y"), F("x*y")], ORD)
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        syzygy_module([F(f"x^{big}"), F("y")])
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        normal_form(F(f"y^{big}"), [F("x")], ORD)


def test_s_polynomials_beyond_the_field_raise():
    """The inputs fit the packed fields but their S-polynomials do not: the
    lcm of x^a*y and x*y^a has degree 2a.  Below the lcm a term may still
    leave the fields, from a later component or from the tags: modulo
    x e_0 - y^K e_1 and y^b e_0 the S-polynomial is y^(K+b) e_1, and the
    syzygies of x, x*y^K + 1 and z^c include x*y^K*z^c e_1, of degree
    1 + K + c."""
    a = FIELD_MAX // 2 + 1
    groebner_basis([F(f"x^{a}*y + 1")], ORD)
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        groebner_basis([F(f"x^{a}*y"), F(f"x*y^{a}")], ORD)
    K = 20000
    b = FIELD_MAX - K
    groebner_basis([F("x", f"-y^{K}"), F(f"y^{b}", "0")], ORD)
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        groebner_basis([F("x", f"-y^{K}"), F(f"y^{b + 1}", "0")], ORD)
    columns = [F("x", names=N3), F(f"x*y^{K} + 1", names=N3)]
    syzygy_module(columns + [F(f"z^{b - 1}", names=N3)])
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        syzygy_module(columns + [F(f"z^{b}", names=N3)])


def test_reductions_beyond_the_field_raise():
    """Within one component a reduction step never raises the weighted
    degree, but a term can leave the fields through a later component or a
    tag.  Modulo x e_0 - y^K e_1, x^k e_0 reduces to x^(k-1)*y^K e_1: in
    plain division and through a quotient table.  Lifting x^k
    over x and x*y^K + 1 reduces it by the basis element 1 + e_2 - y^K e_1
    (1 = (x*y^K + 1) - y^K * x), whose tag x^k*y^K e_1 has degree k + K."""
    K = 20000
    k = FIELD_MAX - K + 1
    basis = groebner_basis([F("x", f"-y^{K}")], ORD)
    assert normal_form(F(f"x^{k}", "0"), basis, ORD) == F("0", f"x^{k - 1}*y^{K}")
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        normal_form(F(f"x^{k + 1}", "0"), basis, ORD)
    qt = QuotientTable(ModulePresentation(2, [F("x", f"-y^{K}")], nvars=2), ORD)
    assert qt.reduce({(0, (k, 0)): Fraction(1)}) == {(1, (k - 1, K)): Fraction(1)}
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        qt.reduce({(0, (k + 1, 0)): Fraction(1)})
    gens = [F("x"), F(f"x*y^{K} + 1")]
    assert lift_over_generators(F(f"x^{k - 1}"), gens) is not None
    with pytest.raises(StabilizationError, match=str(FIELD_MAX)):
        lift_over_generators(F(f"x^{k}"), gens)


def top_key(weights, shifts, term: tuple):
    """Sort key of a module term (component, exponent) under term over
    position: weighted degree plus the component's shift, then reverse
    lexicographic, then position; a larger key is a greater term."""
    comp, e = term
    return (sum(map(mul, e, weights)) + shifts[comp], *[-x for x in reversed(e)], -comp)


@st.composite
def _top_layouts(draw):
    """(weights, shifts, the term-over-position layout) over 1 to 4
    variables and 1 to 5 components."""
    nvars = draw(st.integers(1, 4))
    weights = draw(st.tuples(*[st.integers(1, 3)] * nvars))
    shifts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    return weights, shifts, MonomialOrder(weights).layout(nvars, shifts=shifts)


@given(_top_layouts(), st.data())
@settings(max_examples=300, deadline=None)
def test_term_over_position_terms_follow_the_reference_order(setting, data):
    """Packing round-trips and a smaller int is a greater term under
    `top_key`; multiplying by x^s adds one int, the same in every component;
    within a component the packed divisibility test is `mono_divides`."""
    weights, shifts, layout = setting
    nvars, rank = len(weights), len(shifts)
    exponents = st.tuples(*[st.integers(0, 6)] * nvars)
    terms = [(data.draw(st.integers(0, rank - 1)), data.draw(exponents)) for _ in range(3)]
    packed = [layout.pack(t) for t in terms]
    for t, p in zip(terms, packed):
        assert layout.unpack(p) == t and layout.component(p) == t[0]
        assert [layout.exponent(p, v) for v in range(nvars)] == list(t[1])
        assert not p & layout.guards and p < layout.tag_start
    (a, b, _), (pa, pb, _) = terms, packed
    assert (pa < pb) == (top_key(weights, shifts, a) > top_key(weights, shifts, b))
    assert (pa == pb) == (a == b)
    if a[0] == b[0]:
        assert layout.divides(pa, pb) == mono_divides(a[1], b[1])
    s = data.draw(exponents)
    moves = {layout.pack((c, mono_mul(e, s))) - layout.pack((c, e)) for c, e in terms}
    assert len(moves) == 1
    head_shift, tag_shift = layout.shifts(layout.pack((a[0], mono_mul(a[1], s))), pa)
    assert moves == {head_shift} == {tag_shift}


@given(_top_layouts(), st.data())
@settings(max_examples=200, deadline=None)
def test_term_over_position_lead_has_the_least_last_exponent(setting, data):
    """The lead (least packed int) of a homogeneous vec has the least
    exponent of the last variable among all its terms, in every component:
    so the last variable divides the vec when it divides its lead."""
    weights, shifts, layout = setting
    nvars, last = len(weights), len(weights) - 1
    degree = max(shifts) + data.draw(st.integers(0, 6))
    terms = [(c, e) for c, shift in enumerate(shifts)
             for e in monomials_of_weight(nvars, weights, degree - shift)]
    chosen = data.draw(st.lists(st.sampled_from(terms), min_size=1, unique=True)
                       if terms else st.just([]))
    packed = [layout.pack(t) for t in chosen]
    if packed:
        lowest = min(layout.exponent(p, last) for p in packed)
        assert layout.exponent(min(packed), last) == lowest


def test_a_tagged_basis_reduces_only_its_tag_leads(call_counter):
    """`syzygy_module` of the derlog columns of A3 tail-reduces exactly the
    basis elements with a tag lead, one `_reduce_full` each: the elements
    with a head lead are read only for their leads."""
    h = parse_poly("x*y*z*(x-y)*(x-z)*(y-z)", N3)
    columns = [FreeElement([h.derivative(i)]) for i in range(3)] + [FreeElement([h])]
    _, head_leads = syzygies_and_head_leads(columns)
    call_counter("groebner", "_interreduce")
    call_counter("groebner", "_reduce_full")
    syz = syzygy_module(columns)
    names = [name for name, _ in call_counter.log]
    assert names.count("_interreduce") == 1 and head_leads
    assert names[names.index("_interreduce") + 1:] == ["_reduce_full"] * len(syz)
