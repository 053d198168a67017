"""Groebner bases, syzygies and dimension counts for submodules of free modules.

The engine works on flattened elements ("vecs"): dictionaries mapping module
terms to nonzero coefficients.  Outside the kernel and a `QuotientTable` a
term is a pair (component, exponent); inside them, from the entry of a value
to its exit, a term is one int packed by the `TermLayout` of the order, so
comparing terms, multiplying them by a monomial and testing divisibility are
a few int operations, and a smaller int is a greater term.  All arithmetic
is exact.
Inside the kernel the coefficients are Python ints: a dividend's denominators
are cleared on entry (an integral one enters as it is), basis elements are
kept primitive with a positive lead, and division is fraction-free
(pseudo-division).  One division routine, `_reduce_full`, serves Buchberger,
interreduction, `normal_form`, `lift_over_generators` and the normal forms
of a `QuotientTable`.  A value leaves the kernel divided by its denominator
(`_rational`), in the canonical form of a `Poly` coefficient: an int when
integral, a `Fraction` otherwise.
Bases are normalised and sorted so every computation is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from functools import cached_property
from itertools import islice
from math import gcd as int_gcd
from typing import Optional, Sequence

from .module import INFINITE, FreeElement, ModulePresentation, ModuleError
from .order import (FIELD_MAX, MonomialOrder, StabilizationError, TermLayout, field_overflow,
                    mono_lcm)
from .poly import Poly, _integral, _normalize, _rational


# ---------------------------------------------------------------------------
# vec primitives


def _packed(vec: dict, layout: TermLayout) -> dict:
    """A vec with its terms packed: how a value enters the kernel."""
    pack = layout.pack
    return {pack(t): c for t, c in vec.items()}


def _unpacked(vec: dict, layout: TermLayout) -> dict:
    """A packed vec with its terms as (component, exponent) pairs: how a
    value leaves the kernel."""
    unpack = layout.unpack
    return {unpack(t): c for t, c in vec.items()}


class _Reducers:
    """Basis elements bucketed by leading component for division, on packed
    terms.  Each entry is (lead term, lead coefficient, head tail, tag tail,
    position added); every element is a primitive integer vec with a
    positive lead.  The tail, the other terms, is split by the shift it
    takes (`TermLayout.shifts`): under a plain order every term is a head
    term.  `find` tests each lead of the term's component by one
    subtraction and mask (`TermLayout.divides`)."""

    def __init__(self, layout: TermLayout):
        self.layout = layout
        self.by_comp: dict = {}
        self.count = 0
        self._comp_shift = layout.comp_shift
        self._guards = layout.guards
        self._mask = layout.exponent_guards

    def add(self, lt: int, lc: int, vec: dict):
        """Enter the element vec with lead lt and lead coefficient lc, and
        return its entry."""
        layout = self.layout
        tag_start = layout.tag_start
        heads = [(t, c) for t, c in vec.items() if t < tag_start and t != lt]
        tags = [(t, c) for t, c in vec.items() if t >= tag_start and t != lt]
        entry = (lt, lc, heads, tags, self.count)
        self.by_comp.setdefault(layout.component(lt), []).append(entry)
        self.count += 1
        return entry

    def find(self, term: int):
        entries = self.by_comp.get((term >> self._comp_shift) & FIELD_MAX)
        if entries is None:
            return None
        probe = term | self._guards
        mask = self._mask
        for entry in entries:
            if (probe - entry[0]) & mask == mask:
                return entry
        return None


def _primitive(vec: dict) -> dict:
    """The primitive integer multiple, positive lead, of a packed rational vec."""
    v = _integral(vec)[0]
    return _normalize(v, v[min(v)])


def _reducers_of(vecs: Sequence[dict], layout: TermLayout) -> _Reducers:
    """The reducer table of packed primitive integer vecs with a positive
    lead (`_primitive`, or a basis from `_buchberger_vecs`)."""
    reducers = _Reducers(layout)
    for v in vecs:
        lt = min(v)
        reducers.add(lt, v[lt], v)
    return reducers


def _reduce_full(f: dict, reducers: _Reducers, cofactors: Optional[list] = None):
    """Pseudo-division of a packed integer vec f by the reducers: returns
    (remainder, scale) with scale a positive integer and scale * f equal to
    sum(cofactor_i * reducer_i) + remainder.  Dividing the remainder by scale
    gives the full normal form of f over the rationals.  Its terms come in
    decreasing order, so the first one is its lead.

    To cancel a term c * x^t by a reducer with lead lc * x^lt, with
    g = gcd(c, lc), everything met so far (pending terms, remainder and
    cofactors) is multiplied by lc/g, and (c/g) * x^(t-lt) * reducer is
    subtracted.  The division runs through the same terms as over the
    rationals, each coefficient the rational one times the current scale.

    The pending terms sit in a heap of packed terms, the greatest the
    smallest int, with lazy deletion: a popped term that is no longer pending
    was cancelled.  A reduction step pushes only the terms it brings in, and
    every term it touches is smaller than the one reduced.  A term it brings
    in that leaves the packed fields raises `StabilizationError`.

    When `cofactors` is given it holds one dict per reducer (by position
    added), which accumulates the division coefficients by head shift: the
    int that multiplies a term by the monomial of the coefficient.
    """
    work = dict(f)
    heap = list(work)
    heapify(heap)
    result: dict = {}
    scale = 1
    find = reducers.find
    shifts = reducers.layout.shifts
    guards = reducers.layout.guards
    while heap:
        t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        hit = find(t)
        if hit is None:
            result[t] = c
            continue
        lt, lc, heads, tags, pos = hit
        if lc != 1:
            g = int_gcd(c, lc)
            c //= g
            m = lc // g
            if m != 1:
                scale *= m
                for u in work:
                    work[u] *= m
                for u in result:
                    result[u] *= m
                if cofactors is not None:
                    for cof in cofactors:
                        for u in cof:
                            cof[u] *= m
        head_shift, tag_shift = shifts(t, lt)
        for tail, shift in ((heads, head_shift), (tags, tag_shift)):
            for u, v in tail:
                u += shift
                old = work.get(u)
                if old is None:
                    if u & guards:
                        raise field_overflow()
                    work[u] = -c * v
                    heappush(heap, u)
                else:
                    s = old - c * v
                    if s:
                        work[u] = s
                    else:
                        del work[u]
        if cofactors is not None:
            cof = cofactors[pos]
            s = cof.get(head_shift, 0) + c
            if s:
                cof[head_shift] = s
            else:
                cof.pop(head_shift, None)
    return result, scale


# ---------------------------------------------------------------------------
# Buchberger


def _buchberger_vecs(inputs: Sequence[dict], layout: TermLayout, is_ideal: bool) -> list:
    """A minimal Groebner basis of packed rational vecs, as packed primitive
    integer vecs with a positive lead, each its lead first, sorted by
    increasing lead.  Its tails are as the loop left them: each reader
    reduces those of the elements it reads (`_interreduce`).

    The inputs wait in the heap of S-pairs, keyed like a pair by (monomial
    key, component) of their lead, and each is reduced against the basis so
    far when it comes off, just like an S-polynomial; only a nonzero
    remainder joins the basis, so an input that the basis already reduces to
    zero makes no pairs.  The answer does not change: an input is its
    remainder plus a combination of elements already kept, so the kept
    elements generate the module of the inputs, and the loop ends only once
    every pair of them has been reduced to zero or passed over by a
    criterion, so they are a Groebner basis of it.  Of those, the elements
    whose lead no other lead divides are a minimal one: its leads, and so
    the module's reduced basis (`_interreduce`), are determined."""
    reducers = _Reducers(layout)
    G: list = []  # the reducer entry of each basis element
    exps: list = []  # the exponent of each lead, for the lcms of pairs
    pack, unpack, shifts = layout.pack, layout.unpack, layout.shifts
    guards, mono_mask, mask = layout.guards, layout.mono_mask, layout.exponent_guards
    one = pack((0, (0,) * layout.nvars)) if is_ideal else None
    # Pending pairs: the set answers the chain criterion's membership test,
    # the heap hands them out by (lcm key, component, i, j), each lcm packed
    # and keyed once when the pair is pushed.  The key of a packed lcm is its
    # negated monomial fields, greater for a greater monomial.  An input waits
    # in the same heap as (lead key, component, -1, its position, the vec).
    pairs = set()
    queue: list = []

    def add(vec: dict, lt: int):
        j = len(G)
        G.append(reducers.add(lt, vec[lt], vec))
        comp, e = unpack(lt)
        exps.append(e)
        for entry in reducers.by_comp[comp][:-1]:
            i = entry[4]
            L = pack((comp, mono_lcm(exps[i], e)))
            pairs.add((i, j))
            heappush(queue, (-(L & mono_mask), comp, i, j, L))

    def shifted_into(s: dict, entry: tuple, coeff: int, L: int):
        """s += coeff * x^(L - lead) * (the tail of the entry), in place."""
        head_shift, tag_shift = shifts(L, entry[0])
        for tail, shift in ((entry[2], head_shift), (entry[3], tag_shift)):
            for u, v in tail:
                u += shift
                if u & guards:
                    raise field_overflow()
                x = s.get(u, 0) + coeff * v
                if x:
                    s[u] = x
                else:
                    s.pop(u, None)

    def s_polynomial(comp: int, i: int, j: int, L: int):
        """The S-polynomial of G[i] and G[j], whose leads have lcm L in
        component comp, or None when a criterion passes the pair over."""
        pairs.discard((i, j))
        gi, gj = G[i], G[j]
        if is_ideal and gi[0] + gj[0] - one == L:
            return None  # product criterion: coprime leads (valid for ideals)
        probe = L | guards
        for entry in reducers.by_comp[comp]:
            k = entry[4]
            if k != i and k != j and (probe - entry[0]) & mask == mask:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    return None  # chain criterion
        # (lcj/g) x^(L-lti) G[i] - (lci/g) x^(L-ltj) G[j]: a positive multiple
        # of the monic S-polynomial, in integers; the leads cancel
        lci, lcj = gi[1], gj[1]
        g = int_gcd(lci, lcj)
        s: dict = {}
        shifted_into(s, gi, lcj // g, L)
        shifted_into(s, gj, -(lci // g), L)
        return s

    for pos, v in enumerate(inputs):
        if v:
            v = _integral(v)[0]
            lt = min(v)
            queue.append((-(lt & mono_mask), layout.component(lt), -1, pos, v))
    heapify(queue)

    while queue:
        _, comp, i, j, item = heappop(queue)
        s = item if i < 0 else s_polynomial(comp, i, j, item)
        if s is None:
            continue
        s = _reduce_full(s, reducers)[0]
        if s:
            lt = next(iter(s))
            add(_normalize(s, s[lt]), lt)
    # A lead is divided only by a lead no greater, met before it here.
    minimal: list = []
    leads: dict = {}  # component -> the leads kept there
    divides = layout.divides
    for lt, lc, heads, tags, _ in sorted(G, key=lambda entry: entry[0], reverse=True):
        own = leads.setdefault(layout.component(lt), [])
        if not any(divides(a, lt) for a in own):
            own.append(lt)
            v = {lt: lc}
            v.update(heads)
            v.update(tags)
            minimal.append(v)
    return minimal


def _interreduce(basis: Sequence[dict], layout: TermLayout) -> list:
    """The elements of a minimal Groebner basis (`_buchberger_vecs`) with
    their tails reduced against each other: the reduced basis of the module
    they generate, as packed vecs in the same order, each primitive with a
    positive lead, its lead first.

    No lead of a minimal basis divides another, and an element's own lead
    divides none of the smaller terms met while reducing its tail.  So the
    tail reduced against all the elements is the element reduced against
    the others, less its lead."""
    reducers = _Reducers(layout)
    entries = []
    for v in basis:
        lt = next(iter(v))
        entries.append(reducers.add(lt, v[lt], v))
    out = []
    for lt, lc, heads, tags, _ in entries:
        tail, scale = _reduce_full(dict(heads + tags), reducers)
        r = {lt: lc * scale}
        r.update(tail)
        out.append(_normalize(r, lc))
    return out


# ---------------------------------------------------------------------------
# public operations on FreeElements


def _check_family(elems: Sequence[FreeElement]):
    if not elems:
        return
    r, nv = elems[0].rank, elems[0].nvars
    for e in elems:
        if e.rank != r or e.nvars != nv:
            raise ModuleError("elements must share one rank and variable list")


def _reduced_basis(generators: Sequence[FreeElement], layout: TermLayout, rank: int) -> list:
    """The packed reduced basis (`_interreduce`, each vec its lead first) of
    the generated submodule, for `groebner_basis` and `QuotientTable`."""
    packed = [_packed(g.vec(), layout) for g in generators]
    return _interreduce(_buchberger_vecs(packed, layout, rank == 1), layout)


def groebner_basis(generators: Sequence[FreeElement], order: MonomialOrder) -> list:
    """Reduced, canonically sorted Groebner basis of the generated submodule."""
    _check_family(generators)
    if not generators:
        return []
    rank, nvars = generators[0].rank, generators[0].nvars
    layout = order.layout(nvars)
    basis = _reduced_basis(generators, layout, rank)
    return [FreeElement.from_vec(rank, nvars, _unpacked(v, layout)) for v in basis]


def _divide(f: FreeElement, reducers: _Reducers, cofactors: Optional[list] = None):
    """Pseudo-division of f with its denominators cleared: (packed remainder,
    d) where the rational remainder of f is the integer remainder divided by
    d (and so are the cofactors)."""
    ints, denom = _integral(_packed(f.vec(), reducers.layout))
    r, scale = _reduce_full(ints, reducers, cofactors)
    return r, denom * scale


def normal_form(f: FreeElement, basis: Sequence[FreeElement], order: MonomialOrder) -> FreeElement:
    """Remainder of f under division by a Groebner basis: that of
    `normal_form_with_cofactors`."""
    return normal_form_with_cofactors(f, basis, order)[0]


def normal_form_with_cofactors(f: FreeElement, basis: Sequence[FreeElement],
                               order: MonomialOrder):
    """Return (remainder, cofactors) with f = sum(cofactor_i * basis_i) + remainder."""
    if basis:
        if f.rank != basis[0].rank:
            raise ModuleError("rank mismatch between element and basis")
        _check_family(basis)
    layout = order.layout(f.nvars)
    live = [i for i, b in enumerate(basis) if not b.is_zero()]
    vecs = [_packed(basis[i].vec(), layout) for i in live]
    reducers = _reducers_of(list(map(_primitive, vecs)), layout)
    cof: list = [dict() for _ in live]
    r, denom = _divide(f, reducers, cof)
    # a cofactor's keys are head shifts, each x^e less x^0 in component 0
    one = layout.pack((0, (0,) * f.nvars))
    cof_polys = [Poly.zero(f.nvars) for _ in basis]
    for entries in reducers.by_comp.values():
        for lt, lc, _, _, pos in entries:
            # the reducer is lc / (lead coefficient of the element) times it
            k = Fraction(lc, vecs[pos][lt])
            cof_polys[live[pos]] = Poly(f.nvars, {layout.unpack(one + e)[1]: k * Fraction(c, denom)
                                                  for e, c in cof[pos].items()})
    return (FreeElement.from_vec(f.rank, f.nvars, _rational(_unpacked(r, layout), denom)),
            cof_polys)


def is_member(f: FreeElement, gb: Sequence[FreeElement], order: MonomialOrder) -> bool:
    return normal_form(f, gb, order).is_zero()


def submodule_contains(gb_big: Sequence[FreeElement], elems: Sequence[FreeElement],
                       order: MonomialOrder) -> bool:
    return all(is_member(e, gb_big, order) for e in elems)


def _tagged_basis(gens: Sequence[FreeElement], order: MonomialOrder,
                  tags: Optional[Sequence[FreeElement]] = None,
                  plain: Sequence[FreeElement] = ()) -> tuple:
    """Minimal Groebner basis (`_buchberger_vecs`, tails unreduced) of the
    stacked vecs g_i + t_i and p_j + 0 in O^rank + O^s, where the generators
    g_i and the plain elements p_j live in O^rank and the tag t_i of g_i (by
    default the unit vector e_i) sits in the components from rank on, under
    the elimination order of `MonomialOrder.layout`: (packed basis, the
    layout of its terms).

    Every tag term is smaller than every head term, so the basis elements
    that lie wholly in the tags are a minimal Groebner basis of the tags of
    the combinations sum(a_i * (g_i + t_i)) + sum(b_j * p_j) whose heads
    cancel, in the order that O^s has (`_tag_part` reduces and reads them).
    The other elements are read for their leads, or divide in
    `lift_over_generators`, where any Groebner basis leaves the one normal
    form; their tails are never reduced."""
    rank, nvars = gens[0].rank, gens[0].nvars
    zero_e = tuple([0] * nvars)
    stacked = []
    for i, g in enumerate(gens):
        v = g.vec()
        if tags is None:
            v[(rank + i, zero_e)] = 1
        else:
            for (c, e), x in tags[i].vec().items():
                v[(rank + c, e)] = x
        stacked.append(v)
    stacked.extend(p.vec() for p in plain)
    layout = order.layout(nvars, rank)
    return _buchberger_vecs([_packed(v, layout) for v in stacked], layout, False), layout


def _tag_part(basis: Sequence[dict], layout: TermLayout, s: int) -> list:
    """The elements of a packed `_tagged_basis` that lie wholly from
    component rank on, their tails reduced against each other
    (`_interreduce`; a tag term is divisible by no head lead, which lies in
    another component), shifted down into O^s.  They are primitive integer
    vecs with a positive lead, sorted by increasing lead: the canonical
    reduced basis that `groebner_basis` gives for the module they generate."""
    rank, nvars = layout.rank, layout.nvars
    # a lead, the greatest term of its element, that is a tag
    tags = [v for v in basis if next(iter(v)) >= layout.tag_start]
    return [FreeElement.from_vec(s, nvars, {(c - rank, e): x for (c, e), x
                                            in _unpacked(v, layout).items()})
            for v in _interreduce(tags, layout)]


def syzygies_and_head_leads(columns: Sequence[FreeElement],
                            order: Optional[MonomialOrder] = None) -> tuple:
    """(`syzygy_module` of the columns, head leads), both read from one
    `_tagged_basis`.  The head leads are the lead terms (component,
    exponent) of the basis elements that do not lie wholly in the tags.

    Every head term is greater than every tag term, so the lead of an element
    with a head part is its head lead.  The head of any element of the
    stacked module is sum(a_i * column_i), and every member of the submodule
    the columns generate is such a head; its lead, a head term, is divisible
    by the lead of some basis element.  So the head parts of the basis are a
    Groebner basis of that submodule, under the head order of the
    elimination order (`MonomialOrder.layout`): weighted degree, then
    position, then the scalar order, a global order."""
    _check_family(columns)
    if not columns:
        return [], []
    rank, nvars = columns[0].rank, columns[0].nvars
    basis, layout = _tagged_basis(columns, (order or MonomialOrder()).with_nvars(nvars))
    # each basis vec lists its lead first (`_buchberger_vecs`)
    leads = [layout.unpack(lt) for lt in (next(iter(v)) for v in basis)
             if lt < layout.tag_start]
    return _tag_part(basis, layout, len(columns)), leads


def syzygy_module(columns: Sequence[FreeElement],
                  order: Optional[MonomialOrder] = None) -> list:
    """Generators of the module of relations sum(a_i * column_i) = 0: the
    reduced Groebner basis of the syzygy module."""
    return syzygies_and_head_leads(columns, order)[0]


def lift_over_generators(f: FreeElement, gens: Sequence[FreeElement],
                         order: Optional[MonomialOrder] = None):
    """Coefficients c with f = sum(c_i * gens_i), or None when f is not a member.

    Works against arbitrary generators by reducing a tagged copy of f against
    the tagged Groebner basis, so the tags accumulate valid coefficients.
    """
    _check_family(list(gens) + [f])
    if not gens:
        return None if not f.is_zero() else []
    rank, nvars = gens[0].rank, gens[0].nvars
    order = (order or MonomialOrder()).with_nvars(nvars)
    s = len(gens)
    basis, layout = _tagged_basis(gens, order)
    reduced, denom = _divide(f, _reducers_of(basis, layout))
    if any(t < layout.tag_start for t in reduced):
        return None
    coeffs = [dict() for _ in range(s)]
    for (c, e), v in _unpacked(reduced, layout).items():
        coeffs[c - rank][e] = Fraction(-v, denom)
    return [Poly(nvars, t) for t in coeffs]


def kernel_of_map(columns: Sequence[FreeElement], target_relations: Sequence[FreeElement],
                  order: Optional[MonomialOrder] = None) -> list:
    """Generators of {u in O^len(columns) : sum(u_i * column_i) lies in the
    submodule generated by target_relations}: the reduced Groebner basis of
    that kernel.  Only the columns are tagged; the target relations enter
    untagged, so their own syzygies are never computed."""
    _check_family(list(columns) + list(target_relations))
    a = len(columns)
    if a == 0:
        return []
    order = (order or MonomialOrder()).with_nvars(columns[0].nvars)
    basis, layout = _tagged_basis(columns, order, plain=target_relations)
    return _tag_part(basis, layout, a)


def colon_single(relations: Sequence[FreeElement], rank: int, f: Poly,
                 order: Optional[MonomialOrder] = None) -> list:
    """Generators of the colon submodule {v in O^rank : f*v in <relations>}."""
    nvars = f.nvars
    cols = [FreeElement.unit(rank, nvars, c).scale(f) for c in range(rank)]
    return kernel_of_map(cols, list(relations), order)


def intersect(gens_a: Sequence[FreeElement], gens_b: Sequence[FreeElement],
              order: Optional[MonomialOrder] = None) -> list:
    """The reduced Groebner basis of the intersection of two submodules of
    the same free module.  It is read from one basis of the stacked elements
    a_i + a_i and b_j + 0: an element 0 + v has v = sum(s_i * a_i) =
    -sum(t_j * b_j), which lies in both."""
    _check_family(list(gens_a) + list(gens_b))
    if not gens_a or not gens_b:
        return []
    order = (order or MonomialOrder()).with_nvars(gens_a[0].nvars)
    basis, layout = _tagged_basis(gens_a, order, tags=gens_a, plain=gens_b)
    return _tag_part(basis, layout, gens_a[0].rank)


def colon_ideal(relations: Sequence[FreeElement], rank: int, ideal_gens: Sequence[Poly],
                order: Optional[MonomialOrder] = None) -> list:
    """The colon N : I = {v : g*v in N for every ideal generator g}, as one
    kernel and so as its reduced Groebner basis.

    With I = (f_1, ..., f_k), v lies in N : I exactly when v maps into N^k
    under v -> (f_1*v, ..., f_k*v) in (O^rank)^k.  So the columns are
    (f_1*e_c, ..., f_k*e_c), one for each component c, and the target
    relations are the generators of N placed in each of the k blocks."""
    if not ideal_gens:
        return []
    k = len(ideal_gens)
    nvars = ideal_gens[0].nvars
    zero = Poly.zero(nvars)
    columns = []
    for c in range(rank):
        entries = [zero] * (rank * k)
        for i, f in enumerate(ideal_gens):
            entries[i * rank + c] = f
        columns.append(FreeElement(entries))
    blocks = []
    for i in range(k):
        for g in relations:
            entries = [zero] * (rank * k)
            entries[i * rank:(i + 1) * rank] = g.entries
            blocks.append(FreeElement(entries))
    return kernel_of_map(columns, blocks, order)


# The colon steps `saturate` takes before it raises `StabilizationError`.
SATURATION_STEPS = 30


def saturate(relations: Sequence[FreeElement], rank: int, ideal_gens: Sequence[Poly],
             order: Optional[MonomialOrder] = None) -> list:
    """Stabilised union of iterated colons N : I, N : I^2, ... by the ideal,
    within `SATURATION_STEPS` colon steps.  The chain starts from the
    relations as given; passing their reduced Groebner basis under order
    saves one colon step."""
    order = (order or MonomialOrder()).with_nvars(ideal_gens[0].nvars)
    current = list(relations)
    for _ in range(SATURATION_STEPS):
        # N lies in N : I, and every step returns a reduced (canonical)
        # basis, so the chain is stable exactly when a step returns its input.
        bigger = colon_ideal(current, rank, ideal_gens, order)
        if bigger == current:
            return current
        current = bigger
    raise StabilizationError("colon chain did not stabilise within the step bound")


# ---------------------------------------------------------------------------
# dimension counts


def _finite(leads: Sequence[tuple], nvars: int) -> bool:
    """Whether 1 is a lead or every variable has a pure power among the leads."""
    supports = [[i for i, a in enumerate(e) if a] for e in leads]
    return [] in supports or {s[0] for s in supports if len(s) == 1} == set(range(nvars))


def _staircase(comp: int, weights: Sequence[int], leads: set, layout: TermLayout):
    """Yield the packed standard terms of component comp of weighted degree
    0, 1, 2, ..., one list per degree in increasing lexicographic order of
    exponents, until no later degree has one.  t is standard exactly when it
    is not a lead and t / x_k is standard for every k with e_k > 0.  Each t
    is made once, as x_f * (t / x_f) with x_f its first variable, from the
    prefix of degree deg - w_f whose first variable is x_f or later.  A step
    by x_k adds one int; one that leaves a field sets a guard bit (upwards,
    `StabilizationError`).  After max(weights) empty degrees in a row, all are."""
    nvars, guards = layout.nvars, layout.guards
    zero = (0,) * nvars
    one = layout.pack((comp, zero))
    steps = [layout.pack((comp, zero[:k] + (1,) + zero[k + 1:])) - one for k in range(nvars)]
    level = [] if one in leads else [one]
    levels = [(level, [len(level)] * (nvars + 1))]  # terms, prefix length by first variable
    window = max(weights, default=1)
    yield level
    while any(terms for terms, _ in levels[-window:]):
        degree = len(levels)
        standard = set().union(*(terms for terms, _ in levels[-window:]))  # all a division reaches
        level = []
        prefix = [0] * (nvars + 1)
        for f in range(nvars - 1, -1, -1):
            if degree >= weights[f]:
                below, below_prefix = levels[degree - weights[f]]
                for t in islice(below, below_prefix[f]):
                    t += steps[f]
                    if t & guards:
                        raise field_overflow()
                    if t in leads:
                        continue
                    for k in range(f + 1, nvars):
                        s = t - steps[k]
                        if not s & guards and s not in standard:
                            break
                    else:
                        level.append(t)
            prefix[f] = len(level)
        levels.append((level, prefix))
        del standard  # a suspended walk holds no set
        yield level


class QuotientTable:
    """The leading-term staircase of O^rank / <relations>, read from one
    reduced Groebner basis, kept packed as the kernel returned it (`gb`, as
    `FreeElement`s, is built only when asked for).

    One staircase walk (`_staircase`) answers both questions asked of a
    quotient: the standard terms of one weighted degree (`standard_monomials`,
    which needs a grading; each component walked once, each degree kept) and
    all standard terms of a finite quotient (`standard_terms`, None when it
    is infinite).  The same basis reduces vecs (`reduce_integral`, and
    `reduce` over the rationals) by the kernel's pseudo-division
    (`_reduce_full`) through one reducer table, built on first use.  Slices
    and reducer table are on the packed terms of `layout`.  A slice of a
    weighted degree above FIELD_MAX of an infinite component raises
    `StabilizationError`.
    """

    def __init__(self, p: ModulePresentation, order: Optional[MonomialOrder] = None):
        self.pres = p
        self.order = (order or MonomialOrder()).with_nvars(p.nvars)
        self.layout = self.order.layout(p.nvars)
        self._basis = _reduced_basis(p.relations, self.layout, p.rank)
        # each basis vec lists its lead first; a reduced basis has minimal leads
        self._lead_terms = {next(iter(v)) for v in self._basis}
        self.leads: list = [[] for _ in range(p.rank)]
        for c, e in map(self.layout.unpack, sorted(self._lead_terms)):
            self.leads[c].append(e)
        self._slices: dict = {}  # component -> (its slices so far by degree, its walk)
        self._reducers: Optional[_Reducers] = None

    @cached_property
    def gb(self) -> list:
        rank, nvars, layout = self.pres.rank, self.pres.nvars, self.layout
        return [FreeElement.from_vec(rank, nvars, _unpacked(v, layout))
                for v in self._basis]

    def reduce_integral(self, f: dict) -> tuple:
        """The normal form of the packed integer vec f against the basis, as
        (packed integer vec, positive denominator) (`_reduce_full`): the vec
        divided by the denominator is the remainder of `normal_form` of f."""
        if self._reducers is None:
            self._reducers = _reducers_of(self._basis, self.layout)
        return _reduce_full(f, self._reducers)

    def reduce(self, f: dict) -> dict:
        """The normal form of the vec f, on (component, exponent) terms,
        against the basis, as a vec of exact rationals: `reduce_integral` of
        f with its denominators cleared, divided out."""
        if any(t[0] >= self.pres.rank for t in f):
            raise ModuleError("rank mismatch between element and basis")
        ints, denom = _integral(_packed(f, self.layout))
        r, scale = self.reduce_integral(ints)
        return _unpacked(_rational(r, denom * scale), self.layout)

    def standard_terms(self) -> Optional[list]:
        """All standard module terms of a finite quotient, sorted, or None
        when some component has infinitely many: each component's staircase
        walked under unit weights."""
        nvars = self.pres.nvars
        if not all(_finite(leads, nvars) for leads in self.leads):
            return None
        unit, zero = (1,) * nvars, (0,) * nvars
        terms = [t for comp, leads in enumerate(self.leads) if zero not in leads
                 for level in _staircase(comp, unit, self._lead_terms, self.layout) for t in level]
        return sorted(map(self.layout.unpack, terms))

    def standard_monomials(self, degree: int) -> list:
        """The standard terms of the given weighted degree, packed
        (`layout`), by component and within one in increasing lexicographic
        order of their exponents."""
        g = self.pres.grading
        if g is None:
            raise ModuleError("graded dimension tables need a grading")
        out = []
        for comp, shift in enumerate(g.shifts):
            target = degree - shift
            if target > FIELD_MAX and not _finite(self.leads[comp], self.pres.nvars):
                raise field_overflow()
            if comp not in self._slices:
                walk = _staircase(comp, g.weights, self._lead_terms, self.layout)
                self._slices[comp] = ([], walk)
            slices, walk = self._slices[comp]
            try:
                slices.extend(islice(walk, max(0, target + 1 - len(slices))))
            except StabilizationError:
                del self._slices[comp]  # a walk that raised has ended
                raise
            if 0 <= target < len(slices):
                out.extend(slices[target])
        return out

    def dim(self, degree: int) -> int:
        return len(self.standard_monomials(degree))

    def table(self, bound: int) -> dict:
        return {d: self.dim(d) for d in range(0, bound + 1)}


def quotient_dimension(p: ModulePresentation, order: Optional[MonomialOrder] = None):
    """Vector-space dimension of O^rank / <relations>, or INFINITE: the number
    of standard terms on the staircase of `QuotientTable`."""
    terms = QuotientTable(p, order).standard_terms()
    return INFINITE if terms is None else len(terms)


# ---------------------------------------------------------------------------
# minimal generators


class LinSpace:
    """Row space over Q, grown one sparse row at a time.

    A row maps orderable column keys to int or `Fraction` coefficients.  A
    row of ints enters as it is; any other has its denominators cleared on
    entry, which scales it by a positive number and so keeps its span.  It
    is reduced fraction-free: at a stored row whose pivot entry is b, a row
    with entry f there becomes (b/g) * row - (f/g) * stored row, with
    g = gcd(f, b).  Each stored row is a primitive integer row with a
    positive entry on its largest key (its pivot), and a new row is only
    reduced forward against the stored pivots, so no stored row is ever
    rewritten.  Whether a row enlarges the space, and the dimension, do not
    depend on which echelon form is kept.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> primitive integer row, positive at its pivot

    def _reduce(self, row: dict) -> dict:
        row = {t: c for t, c in row.items() if c}
        for c in row.values():
            if type(c) is not int:
                row = _integral(row)[0]
                break
        while row:
            p = max(row)
            base = self.rows.get(p)
            if base is None:
                return row
            f = row[p]
            b = base[p]
            if b != 1:
                g = int_gcd(f, b)
                f //= g
                m = b // g
                if m != 1:
                    row = {t: c * m for t, c in row.items()}
            for t, c in base.items():
                s = row.get(t, 0) - f * c
                if s:
                    row[t] = s
                else:
                    row.pop(t, None)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True when it enlarged the space."""
        r = self._reduce(row)
        if not r:
            return False
        p = max(r)
        self.rows[p] = _normalize(r, r[p])
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def minimal_generator_indices(gens: Sequence[FreeElement],
                              order: Optional[MonomialOrder] = None,
                              degrees: Optional[Sequence[int]] = None) -> list:
    """Indices of a minimal generating subset of the local (or graded) module.

    Nakayama: the classes of the generators span M/mM, and the coefficient
    vectors of relations evaluated at the origin span exactly the linear
    relations among those classes.  A subset is minimal iff its classes form a
    basis of the quotient.
    """
    _check_family(gens)
    if not gens:
        return []
    nvars = gens[0].nvars
    syz = syzygy_module(gens, order)
    s = len(gens)
    space = LinSpace()
    for rel in syz:
        space.add({i: rel.entries[i].constant_value() for i in range(s)})
    if degrees is None:
        degrees = [max((g.entries[c].total_degree() for c in range(g.rank)
                        if not g.entries[c].is_zero()), default=0) for g in gens]
    chosen = []
    for i in sorted(range(s), key=lambda i: (degrees[i], i)):
        if space.add({i: 1}):
            chosen.append(i)
    chosen.sort()
    return chosen
