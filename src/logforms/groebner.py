"""Groebner bases, syzygies and dimension counts for submodules of free modules.

The engine works on flattened elements ("vecs"): dictionaries mapping module
terms (component, exponent) to nonzero rational coefficients.  All arithmetic
is exact; bases are normalised and sorted so every computation is
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd as int_gcd
from typing import Callable, Optional, Sequence

from .module import INFINITE, FreeElement, Grading, ModulePresentation, ModuleError
from .order import MonomialOrder, mono_div, mono_divides, mono_lcm, mono_mul
from .poly import Poly


class StabilizationError(RuntimeError):
    """An iterative computation failed to stabilise within its configured bound."""


# ---------------------------------------------------------------------------
# vec primitives


def _leading(vec: dict, key: Callable):
    t = max(vec, key=key)
    return t, vec[t]


def _normalize(vec: dict, key: Callable) -> dict:
    """Scale so coefficients are coprime integers and the lead coefficient is positive."""
    if not vec:
        return vec
    denom = 1
    for c in vec.values():
        denom = denom * c.denominator // int_gcd(denom, c.denominator)
    numer = 0
    for c in vec.values():
        numer = int_gcd(numer, c.numerator * denom // c.denominator)
    lt, lc = _leading(vec, key)
    sign = 1 if lc > 0 else -1
    factor = Fraction(denom, sign * numer)
    return {t: c * factor for t, c in vec.items()}


def _sub_scaled_shifted(target: dict, src: dict, coeff: Fraction, shift: tuple):
    """target -= coeff * x^shift * src, in place."""
    for (c, e), v in src.items():
        t = (c, mono_mul(e, shift))
        s = target.get(t, 0) - coeff * v
        if s:
            target[t] = s
        else:
            target.pop(t, None)


class _Reducers:
    """Basis elements bucketed by leading component for division."""

    def __init__(self, vecs: Sequence[dict], key: Callable):
        self.key = key
        self.by_comp: dict = {}
        for v in vecs:
            self.add(v)

    def add(self, vec: dict):
        lt, lc = _leading(vec, self.key)
        self.by_comp.setdefault(lt[0], []).append((lt, lc, vec))

    def find(self, term: tuple):
        comp, expo = term
        for lt, lc, vec in self.by_comp.get(comp, ()):
            if mono_divides(lt[1], expo):
                return lt, lc, vec
        return None


def _reduce_full(f: dict, reducers: _Reducers, key: Callable, cofactors: Optional[list] = None,
                 index_of: Optional[dict] = None) -> dict:
    """Full normal form of f against the reducers.

    When `cofactors` is given it must be a list of vec-dicts (one per original
    basis element, rank 1 over the scalar ring) which accumulates the division
    coefficients: f = sum(cofactor_i * basis_i) + result.
    """
    work = dict(f)
    result: dict = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        hit = reducers.find(t)
        if hit is None:
            result[t] = c
            continue
        lt, lc, vec = hit
        shift = mono_div(t[1], lt[1])
        factor = c / lc
        work[t] = c  # reinstate so the subtraction cancels it
        _sub_scaled_shifted(work, vec, factor, shift)
        if cofactors is not None and index_of is not None:
            idx = index_of.get(id(vec))
            if idx is not None:
                cof = cofactors[idx]
                key2 = (0, shift)
                s = cof.get(key2, 0) + factor
                if s:
                    cof[key2] = s
                else:
                    cof.pop(key2, None)
    return result


# ---------------------------------------------------------------------------
# Buchberger


def _buchberger_vecs(inputs: Sequence[dict], order: MonomialOrder, is_ideal: bool) -> list:
    key = order.term_key
    G: list = []
    for v in inputs:
        if v:
            G.append(_normalize(v, key))
    lts = [_leading(g, key) for g in G]

    def lcm_of(i: int, j: int):
        (ci, ei), _ = lts[i]
        (cj, ej), _ = lts[j]
        if ci != cj:
            return None
        return (ci, mono_lcm(ei, ej))

    pairs = set()
    order_key_cache: dict = {}

    def push_pairs(j: int):
        for i in range(j):
            L = lcm_of(i, j)
            if L is None:
                continue
            pairs.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    def pair_sort_key(p):
        L = lcm_of(*p)
        k = order_key_cache.get(L)
        if k is None:
            k = order.mono_key(L[1])
            order_key_cache[L] = k
        return (k, L[0], p[0], p[1])

    reducers = _Reducers(G, key)
    while pairs:
        pair = min(pairs, key=pair_sort_key)
        pairs.discard(pair)
        i, j = pair
        L = lcm_of(i, j)
        (ci, ei), lci = lts[i]
        (cj, ej), lcj = lts[j]
        if is_ideal and mono_mul(ei, ej) == L[1]:
            continue  # product criterion: coprime leads (valid for ideals)
        chained = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            (ck, ek), _ = lts[k]
            if ck == L[0] and mono_divides(ek, L[1]):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    chained = True
                    break
        if chained:
            continue
        s: dict = {}
        _sub_scaled_shifted(s, G[i], Fraction(-1, 1) / lci, mono_div(L[1], ei))
        _sub_scaled_shifted(s, G[j], Fraction(1, 1) / lcj, mono_div(L[1], ej))
        s = _reduce_full(s, reducers, key)
        if s:
            s = _normalize(s, key)
            G.append(s)
            lts.append(_leading(s, key))
            reducers.add(s)
            push_pairs(len(G) - 1)
    return _interreduce(G, order)


def _interreduce(G: Sequence[dict], order: MonomialOrder) -> list:
    key = order.term_key
    items = [(g, _leading(g, key)[0]) for g in G if g]
    items.sort(key=lambda gl: key(gl[1]))
    kept: list = []
    for g, lt in items:
        if any(k_lt[0] == lt[0] and mono_divides(k_lt[1], lt[1]) for _, k_lt in kept):
            continue
        kept.append((g, lt))
    out = []
    for idx, (g, lt) in enumerate(kept):
        others = _Reducers([h for jdx, (h, _) in enumerate(kept) if jdx != idx], key)
        r = _reduce_full(g, others, key)
        if r:
            out.append(_normalize(r, key))
    out.sort(key=lambda v: key(_leading(v, key)[0]))
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


def groebner_basis(generators: Sequence[FreeElement], order: MonomialOrder) -> list:
    """Reduced, canonically sorted Groebner basis of the generated submodule."""
    _check_family(generators)
    if not generators:
        return []
    rank, nvars = generators[0].rank, generators[0].nvars
    order = order.with_nvars(nvars)
    basis = _buchberger_vecs([g.vec() for g in generators], order, rank == 1)
    return [FreeElement.from_vec(rank, nvars, v) for v in basis]


def normal_form(f: FreeElement, basis: Sequence[FreeElement], order: MonomialOrder) -> FreeElement:
    """Remainder of f under division by a Groebner basis."""
    if basis:
        if f.rank != basis[0].rank:
            raise ModuleError("rank mismatch between element and basis")
        _check_family(basis)
    order = order.with_nvars(f.nvars)
    key = order.term_key
    reducers = _Reducers([b.vec() for b in basis if not b.is_zero()], key)
    r = _reduce_full(f.vec(), reducers, key)
    return FreeElement.from_vec(f.rank, f.nvars, r)


def normal_form_with_cofactors(f: FreeElement, basis: Sequence[FreeElement],
                               order: MonomialOrder):
    """Return (remainder, cofactors) with f = sum(cofactor_i * basis_i) + remainder."""
    if basis:
        if f.rank != basis[0].rank:
            raise ModuleError("rank mismatch between element and basis")
        _check_family(basis)
    order = order.with_nvars(f.nvars)
    key = order.term_key
    vecs = [b.vec() for b in basis]
    live = [v for v in vecs if v]
    reducers = _Reducers(live, key)
    index_of = {}
    pos = 0
    for i, v in enumerate(vecs):
        if v:
            index_of[id(live[pos])] = i
            pos += 1
    cof: list = [dict() for _ in basis]
    r = _reduce_full(f.vec(), reducers, key, cofactors=cof, index_of=index_of)
    rem = FreeElement.from_vec(f.rank, f.nvars, r)
    cof_polys = [Poly(f.nvars, {e: c for (_, e), c in d.items()}) for d in cof]
    return rem, cof_polys


def is_member(f: FreeElement, gb: Sequence[FreeElement], order: MonomialOrder) -> bool:
    return normal_form(f, gb, order).is_zero()


def submodule_contains(gb_big: Sequence[FreeElement], elems: Sequence[FreeElement],
                       order: MonomialOrder) -> bool:
    return all(is_member(e, gb_big, order) for e in elems)


def submodules_equal(gens_a: Sequence[FreeElement], gens_b: Sequence[FreeElement],
                     order: MonomialOrder) -> bool:
    gba = groebner_basis(gens_a, order)
    gbb = groebner_basis(gens_b, order)
    return submodule_contains(gba, gens_b, order) and submodule_contains(gbb, gens_a, order)


def _tagged_basis(gens: Sequence[FreeElement], order: MonomialOrder) -> list:
    """Reduced Groebner basis of the generators, generator i extended by the
    unit vector in component rank + i, so the components from rank on record
    how each basis element combines the generators."""
    rank, nvars = gens[0].rank, gens[0].nvars
    zero_e = tuple([0] * nvars)
    tagged = []
    for i, g in enumerate(gens):
        v = g.vec()
        v[(rank + i, zero_e)] = Fraction(1)
        tagged.append(v)
    return _buchberger_vecs(tagged, order, False)


def syzygy_module(columns: Sequence[FreeElement],
                  order: Optional[MonomialOrder] = None) -> list:
    """Generators of the module of relations sum(a_i * column_i) = 0."""
    _check_family(columns)
    if not columns:
        return []
    rank, nvars = columns[0].rank, columns[0].nvars
    s = len(columns)
    basis = _tagged_basis(columns, (order or MonomialOrder()).with_nvars(nvars))
    syz = []
    for v in basis:
        if all(c >= rank for (c, _) in v):
            syz.append(FreeElement.from_vec(s, nvars, {(c - rank, e): x for (c, e), x in v.items()}))
    return syz


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
    basis = _tagged_basis(gens, order)
    key = order.term_key
    reducers = _Reducers(basis, key)
    reduced = _reduce_full(f.vec(), reducers, key)
    if any(c < rank for (c, _) in reduced):
        return None
    coeffs = [dict() for _ in range(s)]
    for (c, e), v in reduced.items():
        coeffs[c - rank][e] = -v
    return [Poly(nvars, t) for t in coeffs]


def kernel_of_map(columns: Sequence[FreeElement], target_relations: Sequence[FreeElement],
                  order: Optional[MonomialOrder] = None) -> list:
    """Generators of {u in O^len(columns) : sum(u_i * column_i) lies in the
    submodule generated by target_relations}."""
    _check_family(list(columns) + list(target_relations))
    a = len(columns)
    if a == 0:
        return []
    everything = list(columns) + list(target_relations)
    syz = syzygy_module(everything, order)
    out = []
    for s in syz:
        u = FreeElement(s.entries[:a])
        if not u.is_zero():
            out.append(u)
    return out


def colon_single(relations: Sequence[FreeElement], rank: int, f: Poly,
                 order: Optional[MonomialOrder] = None) -> list:
    """Generators of the colon submodule {v in O^rank : f*v in <relations>}."""
    nvars = f.nvars
    cols = [FreeElement.unit(rank, nvars, c).scale(f) for c in range(rank)]
    sols = kernel_of_map(cols, list(relations), order)
    return sols


def intersect(gens_a: Sequence[FreeElement], gens_b: Sequence[FreeElement],
              order: Optional[MonomialOrder] = None) -> list:
    """Generators of the intersection of two submodules of the same free module."""
    _check_family(list(gens_a) + list(gens_b))
    if not gens_a or not gens_b:
        return []
    syz = syzygy_module(list(gens_a) + list(gens_b), order)
    a = len(gens_a)
    nvars = gens_a[0].nvars
    rank = gens_a[0].rank
    out = []
    for s in syz:
        v = FreeElement.zero(rank, nvars)
        for i in range(a):
            v = v + gens_a[i].scale(s.entries[i])
        if not v.is_zero():
            out.append(v)
    return out


def colon_ideal(relations: Sequence[FreeElement], rank: int, ideal_gens: Sequence[Poly],
                order: Optional[MonomialOrder] = None) -> list:
    """Colon {v : g*v in N for every ideal generator g} as the intersection of
    the single colons."""
    gens = None
    for f in ideal_gens:
        ci = colon_single(relations, rank, f, order)
        gens = ci if gens is None else intersect(gens, ci, order)
        if not gens:
            return []
    return gens or []


def saturate(relations: Sequence[FreeElement], rank: int, ideal_gens: Sequence[Poly],
             order: Optional[MonomialOrder] = None, max_steps: int = 30) -> list:
    """Stabilised union of iterated colons N : I, N : I^2, ... by the ideal."""
    order = (order or MonomialOrder()).with_nvars(ideal_gens[0].nvars)
    current = list(relations)
    gb_current = groebner_basis(current, order)
    for _ in range(max_steps):
        bigger = colon_ideal(gb_current, rank, ideal_gens, order)
        if bigger == current:
            return gb_current
        # N lies in N : I, so the chain is stable exactly when the reduced
        # (canonical) bases agree.
        gb_bigger = groebner_basis(bigger, order)
        if gb_bigger == gb_current:
            return gb_current
        current = bigger
        gb_current = gb_bigger
    raise StabilizationError("colon chain did not stabilise within the step bound")


# ---------------------------------------------------------------------------
# dimension counts


def _lead_module(gb: Sequence[FreeElement], order: MonomialOrder, rank: int):
    """Minimal leading exponents per component."""
    key = order.term_key
    leads: list = [[] for _ in range(rank)]
    for g in gb:
        (c, e), _ = _leading(g.vec(), key)
        leads[c].append(e)
    minimal: list = []
    for lst in leads:
        lst.sort()
        keep = []
        for e in lst:
            if not any(mono_divides(f, e) for f in keep):
                keep.append(e)
        minimal.append(keep)
    return minimal


def _component_box(leads: Sequence[tuple], nvars: int):
    """Per-variable bounds from pure-power leading monomials; None if unbounded."""
    bounds = []
    for i in range(nvars):
        best = None
        for e in leads:
            if e[i] > 0 and all(e[j] == 0 for j in range(nvars) if j != i):
                if best is None or e[i] < best:
                    best = e[i]
        if best is None:
            return None
        bounds.append(best)
    return bounds


def _is_standard(leads: Sequence[tuple], e: tuple) -> bool:
    return not any(mono_divides(l, e) for l in leads)


def monomials_of_weight(nvars: int, weights: Sequence[int], target: int):
    """All exponent tuples with given weighted degree (weights positive)."""
    out: list = []

    def rec(i: int, remaining: int, prefix: list):
        if i == nvars:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        w = weights[i]
        maxa = remaining // w
        for a in range(maxa + 1):
            prefix.append(a)
            rec(i + 1, remaining - a * w, prefix)
            prefix.pop()

    if target >= 0:
        rec(0, target, [])
    return out


class QuotientTable:
    """The leading-term staircase of O^rank / <relations>, read from one
    reduced Groebner basis.

    One staircase serves both questions asked of a quotient: the standard
    terms of one weighted degree (`standard_monomials`, which needs a
    grading) and the full list of standard terms of a finite quotient
    (`standard_terms`, which is None when the quotient is infinite).
    """

    def __init__(self, p: ModulePresentation, order: Optional[MonomialOrder] = None):
        self.pres = p
        self.order = (order or MonomialOrder()).with_nvars(p.nvars)
        self.gb = groebner_basis(p.relations, self.order)
        self.leads = _lead_module(self.gb, self.order, p.rank)

    def standard_terms(self) -> Optional[list]:
        """All standard module terms of a finite quotient, or None when some
        component has infinitely many."""
        nvars = self.pres.nvars
        zero_e = tuple([0] * nvars)
        out = []
        for comp, leads in enumerate(self.leads):
            if zero_e in leads:
                continue
            box = _component_box(leads, nvars)
            if box is None:
                return None
            out.extend((comp, e) for e in product(*map(range, box)) if _is_standard(leads, e))
        return out

    def standard_monomials(self, degree: int):
        """Standard monomial module terms of the given weighted degree."""
        g = self.pres.grading
        if g is None:
            raise ModuleError("graded dimension tables need a grading")
        out = []
        for comp, leads in enumerate(self.leads):
            for e in monomials_of_weight(self.pres.nvars, g.weights, degree - g.shifts[comp]):
                if _is_standard(leads, e):
                    out.append((comp, e))
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

    A row maps orderable column keys to coefficients.  Each stored row is
    scaled to 1 on its largest key (its pivot), and a new row is only reduced
    forward against the stored pivots, so no stored row is ever rewritten.
    Whether a row enlarges the space, and the dimension, do not depend on
    which echelon form is kept.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> row scaled to 1 at its pivot

    def _reduce(self, row: dict) -> dict:
        row = {t: c for t, c in row.items() if c}
        while row:
            p = max(row)
            base = self.rows.get(p)
            if base is None:
                return row
            f = row[p]
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
        inv = 1 / Fraction(r[p])
        self.rows[p] = {t: c * inv for t, c in r.items()}
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
        if space.add({i: Fraction(1)}):
            chosen.append(i)
    chosen.sort()
    return chosen


def minimal_generators(gens: Sequence[FreeElement], grading: Grading,
                       order: Optional[MonomialOrder] = None) -> list:
    """Minimal generating subset of a graded submodule (all gens homogeneous)."""
    _check_family(gens)
    degrees = []
    for g in gens:
        degs = g.weighted_degree(grading.weights, grading.shifts)
        if degs is None:
            continue
        if len(degs) != 1:
            raise ModuleError("minimal_generators requires homogeneous generators")
        degrees.append(min(degs))
    nonzero = [g for g in gens if not g.is_zero()]
    idx = minimal_generator_indices(nonzero, order, degrees)
    return [nonzero[i] for i in idx]
