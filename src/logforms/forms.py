"""Torsion-reduced Kahler complexes on free and almost free divisors.

The degree-k module is presented as the quotient of the free module of
polynomial k-forms by a relation submodule: the logarithmic-form generators
for a free divisor (`forms_free`), the pulled-back exterior ideal for an
almost free one (`forms_pullback`: minors of A = [S o F | dF],
`pulled_back_matrix`, whose cokernel is the KEV normal space).  Its torsion
length is the dimension of the saturation by the maximal ideal over the
relations (`torsion_length`).  The exactness of the complex is proved by the
Euler-field homotopy (`de_rham_report_sliced`); its graded slices serve
`cokernel_slice_dims`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Optional, Sequence

from .exterior import (
    _minor_terms,
    contract,
    d_packed,
    form_basis,
    form_rank,
    pullback,
    wedge_unit,
)
from .groebner import (
    LinSpace,
    QuotientTable,
    _buchberger_vecs,
    _finite,
    _packed,
    _staircase,
    groebner_basis,
    saturate,
    syzygy_module,
)
from .logarithmic import LogBasis, log_form_generators
from .module import INFINITE, FreeElement, Grading, ModuleError, ModulePresentation
from .order import MonomialOrder, TermLayout
from .poly import Poly


class FormsError(ValueError):
    pass


class GradedDimensionTable:
    """Weighted degree to dimension, with a stabilization flag.

    The flag is set only when the last two pairs of degrees of the table
    agree, so a finite tail of zeros (or an eventually constant function)
    counts as stabilized and anything still moving does not.
    """

    def __init__(self, values: dict):
        self.values = dict(values)
        tail = [self.values[d] for d in sorted(self.values)[-4:]]
        self.stabilized = len(tail) == 4 and tail[:2] == tail[2:]

    def total(self) -> int:
        return sum(self.values.values())

    def as_dict(self) -> dict:
        return {"values": {str(d): v for d, v in sorted(self.values.items())},
                "stabilized": self.stabilized}


def _shifts(weights: Sequence[int], n: int, k: int) -> list:
    """The weight of each basis form dx_I of degree k on n variables."""
    return [sum(weights[i] for i in I) for I in form_basis(n, k)]


class CheckedFormsModule:
    """Finite presentation of one degree of the torsion-reduced complex."""

    def __init__(self, names: Sequence[str], ambient_dim: int, k: int,
                 relations: Sequence[FreeElement], h: Poly,
                 weights: Optional[Sequence[int]] = None, kind: str = "free"):
        if k < 0 or k > ambient_dim:
            raise FormsError(f"form degree {k} out of range 0..{ambient_dim}")
        self.names = tuple(names)
        self.n = ambient_dim
        self.k = k
        self.h = h
        self.kind = kind
        self.rank = max(form_rank(self.n, k), 1)
        self.relations = [r for r in relations if not r.is_zero()]
        self.weights = tuple(weights) if weights is not None else None
        self._table = None

    @property
    def nvars(self) -> int:
        return self.h.nvars

    def order(self) -> MonomialOrder:
        positive = self.weights is not None and all(w > 0 for w in self.weights)
        return MonomialOrder(self.weights if positive else None).with_nvars(self.nvars)

    def grading(self) -> Optional[Grading]:
        """The grading by the weights, each dx_I shifted by its weight; None
        without positive weights or when a relation is not homogeneous for
        it."""
        return self.presentation().grading

    def presentation(self) -> ModulePresentation:
        return self._presentation

    @cached_property
    def _presentation(self) -> ModulePresentation:
        """The presentation, graded when the weights are positive and every
        relation is homogeneous for them: `ModulePresentation` checks that,
        once per module, like its table."""
        if self.weights is not None and all(w > 0 for w in self.weights):
            g = Grading(self.weights, _shifts(self.weights, self.n, self.k))
            try:
                return ModulePresentation(self.rank, self.relations, grading=g, nvars=self.nvars)
            except ModuleError:  # a relation is not homogeneous for g
                pass
        return ModulePresentation(self.rank, self.relations, nvars=self.nvars)

    def table(self) -> QuotientTable:
        """The staircase of the relations' Groebner basis, computed once."""
        if self._table is None:
            self._table = QuotientTable(self.presentation(), self.order())
        return self._table

    def class_is_zero(self, form: FreeElement) -> bool:
        return not self.table().reduce(form.vec())

    def dimension_table(self, bound: int) -> dict:
        if self.table().pres.grading is None:
            raise FormsError("graded dimension tables need positive weights")
        return self.table().table(bound)

    def __repr__(self):
        return f"CheckedFormsModule(k={self.k}, kind={self.kind}, {len(self.relations)} relations)"


# ---------------------------------------------------------------------------
# construction


def forms_free(basis: LogBasis, k: int) -> CheckedFormsModule:
    """Degree-k forms modulo h times the logarithmic k-forms of a free divisor."""
    d = basis.divisor
    gens = log_form_generators(basis, k)
    return CheckedFormsModule(d.names, d.nvars, k, gens, d.h, weights=d.weights, kind="free")


def jacobian_columns(components: Sequence[Poly], source_n: int) -> list:
    """Columns of the Jacobian as elements of the rank-(target dim) free module."""
    return [FreeElement([f.derivative(v) for f in components]) for v in range(source_n)]


def pulled_back_matrix(e_basis: LogBasis, components: Sequence[Poly], source_n: int,
                       *polys: Poly) -> tuple:
    """(A's columns, [p o F for p in polys]): A = [S o F | dF], the target's
    m Saito fields composed with the map F, then the source_n Jacobian
    columns.  One `pullback` call composes the nonzero Saito entries and the
    polys, sharing one memo; a zero entry stays zero."""
    m = e_basis.n
    entries = [a for field in e_basis.theta for a in field]
    pulled = iter(pullback([a for a in entries if not a.is_zero()] + list(polys), components))
    zero = Poly.zero(components[0].nvars)
    flat = [zero if a.is_zero() else next(pulled) for a in entries]
    return ([FreeElement(flat[j * m:(j + 1) * m]) for j in range(m)]
            + jacobian_columns(components, source_n), list(pulled))


def pullback_relation_generators(e_basis: LogBasis, components: Sequence[Poly],
                                 source_n: int, k: int) -> list:
    """Degree-k part of the exterior ideal generated by the pulled-back
    logarithmic form generators of the target divisor."""
    return pullback_relations_by_degree(e_basis, components, source_n, (k,))[1][k]


def pullback_relations_by_degree(e_basis: LogBasis, components: Sequence[Poly],
                                 source_n: int, ks: Sequence[int],
                                 h0: Optional[Poly] = None) -> tuple:
    """(h o F, {k: `pullback_relation_generators` of degree k} for each k in
    ks), read off one minor table of the m x (m + n) matrix A = [S o F | dF]
    (`pulled_back_matrix`, n = source_n).  The degree-j generators are
    F*(h omega_I), omega_I (|I| = j) the logarithmic j-forms of the Saito
    basis.  For j >= 1 the dx_K coefficient (|K| = j) of F*(h omega_I) is
    (-1)^(sum I + j(2m - j - 1)/2) det A[all rows; the S o F columns off I,
    then the dF columns K], indices from 0, by the generalized Laplace
    expansion of that determinant along its last j columns into the
    complementary minors of S (`log_form_generators`) composed with F times
    the minors of dF.  For j = 0 it is det(S o F) = unit * h0, h0 = h o F.
    A degree-j generator enters level k > j wedged with each basis
    (k - j)-form (`wedge_unit`).  So the top level R_n is I_m(A).  The
    minors are read as term dicts (`_minor_terms`), each signed there, so
    each entry's `Poly` is built once."""
    m = e_basis.n
    columns, composed = pulled_back_matrix(e_basis, components, source_n,
                                           *([e_basis.divisor.h] if h0 is None else []))
    h0 = composed[0] if h0 is None else h0
    nv = h0.nvars
    minor = _minor_terms([[col.entries[c].terms for col in columns] for c in range(m)], nv)
    rows = tuple(range(m))
    zero = Poly.zero(nv)
    out: dict = {k: [] for k in ks}
    for j in range(0, min(max(ks), m, source_n) + 1):
        tails = [tuple(m + v for v in K) for K in form_basis(source_n, j)]
        for I in form_basis(m, j):
            if not j:
                p = FreeElement([h0.scale(e_basis.unit)])
            else:
                odd = (sum(I) + j * (2 * m - j - 1) // 2) % 2
                head = tuple(i for i in range(m) if i not in I)
                entries = []
                for tail in tails:
                    t = minor(rows, head + tail)
                    if t and odd:
                        t = {e: -c for e, c in t.items()}
                    entries.append(Poly(nv, t) if t else zero)
                p = FreeElement(entries)
            if p.is_zero():
                continue
            for k, rels in out.items():
                if j == k:
                    rels.append(p)
                elif j < k and k - j <= source_n:
                    for M in form_basis(source_n, k - j):
                        w = wedge_unit(source_n, j, p, M)
                        if not w.is_zero():
                            rels.append(w)
    return h0, out


def forms_pullback(e_basis: LogBasis, components: Sequence[Poly], source_names: Sequence[str],
                   k: int, weights: Optional[Sequence[int]] = None,
                   h0: Optional[Poly] = None) -> CheckedFormsModule:
    """Forms on the preimage divisor presented by the pulled-back ideal (h0: h o F)."""
    return forms_pullback_degrees(e_basis, components, source_names, (k,), weights, h0)[0]


def forms_pullback_degrees(e_basis: LogBasis, components: Sequence[Poly],
                           source_names: Sequence[str], ks: Sequence[int],
                           weights: Optional[Sequence[int]], h0: Optional[Poly] = None) -> list:
    """`forms_pullback` for each form degree in ks, in that order, from one
    minor table of A (`pullback_relations_by_degree`)."""
    n = len(source_names)
    h0, gens = pullback_relations_by_degree(e_basis, components, n, ks, h0)
    return [CheckedFormsModule(source_names, n, k, gens[k], h0, weights=weights, kind="pullback")
            for k in ks]


# ---------------------------------------------------------------------------
# operations


def pd_check(m: CheckedFormsModule) -> bool:
    """True when the relation generators form a free basis of the relation module."""
    syz = syzygy_module(m.relations, m.order())
    return all(s.is_zero() for s in syz)


def contraction_well_defined(m: CheckedFormsModule, lower: CheckedFormsModule,
                             chi: FreeElement) -> bool:
    """Check that contracting every relation generator lands in the lower relations."""
    return all(lower.class_is_zero(contract(m.n, m.k, chi, g)) for g in m.relations)


def _leads(basis: Sequence[FreeElement], layout: TermLayout) -> set:
    """The packed lead terms of the elements of a basis."""
    return {min(map(layout.pack, g.vec())) for g in basis}


def subquotient_dimension(big: set, small: set, layout: TermLayout):
    """dim S/M, or INFINITE, for submodules M of S of one free module O^r,
    given by the packed lead terms of a Groebner basis of each under the one
    global order of layout: read off those leads, with no further basis.

    Every lead term of M is one of S, so the standard terms std(S) lie in
    std(M).  Normal form modulo S maps the span of std(M), which is O^r/M,
    onto the span of std(S), which is O^r/S, with kernel S/M.  So dim S/M
    is the number of terms that are lead terms of S but not of M.  Those are
    the terms b * x^a, b a lead of the basis of S, with x^a standard for the
    monomial colon (leads of M : b).  They are finitely many exactly when
    each such colon holds a pure power x_v^(p_v) of every variable
    (`_finite`), and then none has a total degree above deg b + sum(p_v - 1).
    So the count is, in each component, the sum over the degrees d up to the
    greatest such bound of |std_M(d)| - |std_S(d)|, both read from the
    staircase walk (`_staircase`) under unit weights.  A lead of the basis of
    S that is one of M adds nothing and is skipped; one that a lead of M
    divides has 1 in its colon and adds nothing either."""
    nvars = layout.nvars
    exponents: dict = {}  # component -> the lead exponents of M there
    for c, a in map(layout.unpack, small):
        exponents.setdefault(c, []).append(a)
    tops: dict = {}  # component -> the degree no term of S/M lies above
    for c, b in map(layout.unpack, big - small):
        colon = [tuple(max(x - y, 0) for x, y in zip(a, b)) for a in exponents.get(c, ())]
        if not _finite(colon, nvars):
            return INFINITE
        powers = [min(a[v] for a in colon if a[v] == sum(a)) for v in range(nvars)]
        tops[c] = max(tops.get(c, 0), sum(b) + sum(powers) - nvars)
    unit = (1,) * nvars
    return sum(len(level) * sign for c, top in tops.items()
               for leads, sign in ((small, 1), (big, -1))
               for level in islice(_staircase(c, unit, leads, layout), top + 1))


def _primes(count: int) -> list:
    """The first count primes: 2, 3, 5, 7, ..."""
    out: list = []
    p = 2
    while len(out) < count:
        if all(p % q for q in out):
            out.append(p)
        p += 1
    return out


def torsion_length(m: CheckedFormsModule):
    """C-dimension of the elements killed by a power of the maximal ideal:
    dim S/M for the saturation S = M : m^inf of the relation module M,
    m = (x_1, ..., x_n), read off the lead terms of Groebner bases of S and
    M (`subquotient_dimension`).

    For a graded module S is first computed as M : l^inf for the one form
    l = x_n + sum(p_i * x_i^(w_n / w_i)) over the i < n with w_i | w_n, p_i
    the i-th prime, homogeneous of weight w_n, by one basis (Bayer and
    Stillman, Invent. Math. 87, 1987):
      * The automorphism phi: x_n -> x_n - sum(p_i * x_i^(w_n / w_i)), the
        other variables fixed, keeps every weight and sends l to x_n.  It
        maps M : l^inf onto phi(M) : x_n^inf and keeps every dimension, so
        the count may be taken for phi(M), whose relations are M's composed
        with phi by one `pullback`; its coefficients stay integral, since
        x_n in l has coefficient 1.
      * Under the term-over-position order of the grading
        (`MonomialOrder.layout` with the shifts), the lead of a homogeneous
        f has the least x_n-exponent of all its terms: they share one degree
        plus shift, and of those the greater term has the smaller exponent
        of the last variable.  So x_n | in(f) implies x_n | f.
      * Hence, for a Groebner basis G of phi(M) of homogeneous elements,
        the g / x_n^(k_g), with x_n^(k_g) the power of x_n in in(g), are a
        Groebner basis of phi(M) : x_n^inf.  A homogeneous f with
        x_n^k f in phi(M) has some in(g) dividing x_n^k in(f), and
        in(g / x_n^(k_g)), which x_n does not divide, divides in(f).  So the
        leads of S are those of G divided by their x_n-powers, one
        subtraction on each packed lead, and no element is reduced.
      * l lies in m, so M : m^inf lies in S.  If dim S/M is finite, then
        S/M is a graded module (l is homogeneous and M graded) of finite
        dimension, and under positive weights m raises degrees, so a power
        of m kills S/M and S lies in M : m^inf; hence S = M : m^inf.
    When dim S/M is infinite (l vanishes on a component of the support, as
    when it is one of the planes), or the module is ungraded, the colon
    chain of the maximal ideal itself (`saturate`) gives the saturation,
    starting from the reduced basis of M."""
    order = m.order()
    nv = m.nvars
    g = m.grading()
    if g is not None:
        w, last = g.weights, nv - 1
        y = Poly.variable(nv, last)
        for i, p in enumerate(_primes(last)):
            if w[last] % w[i] == 0:
                y = y - Poly(nv, {tuple(w[last] // w[i] if j == i else 0 for j in range(nv)): p})
        phi = [Poly.variable(nv, i) for i in range(last)] + [y]
        entries = pullback([f for r in m.relations for f in r.entries], phi)
        layout = order.layout(nv, shifts=g.shifts)
        relations = [_packed(FreeElement(entries[i:i + m.rank]).vec(), layout)
                     for i in range(0, len(entries), m.rank)]
        small = {next(iter(v)) for v in _buchberger_vecs(relations, layout, m.rank == 1)}
        zero = (0,) * nv
        x_n = layout.pack((0, zero[:last] + (1,))) - layout.pack((0, zero))
        big = {t - layout.exponent(t, last) * x_n for t in small}
        length = subquotient_dimension(big, small, layout)
        if length != INFINITE:
            return length
    gb = groebner_basis(m.relations, order)
    sat = saturate(gb, m.rank, [Poly.variable(nv, i) for i in range(nv)], order)
    layout = order.layout(nv)
    return subquotient_dimension(_leads(sat, layout), _leads(gb, layout), layout)


# ---------------------------------------------------------------------------
# graded slices


def _slice_coordinates(m: CheckedFormsModule, form: dict, terms: set) -> dict:
    """Coordinates {standard term: integer} of a positive multiple of the
    class of a form of m, given as a packed vec, in a slice basis of m, given
    as the set of its packed standard terms.  A rank read from such rows is
    the rank of the classes, since scaling a row by a nonzero number keeps
    its span."""
    row = m.table().reduce_integral(form)[0]
    if not row.keys() <= terms:
        raise FormsError("reduced form left the slice basis")
    return row


class GradedSlices:
    """Standard-monomial slice bases of graded forms modules (indexed by their
    own form degree k), with the degree-preserving derivative matrices.  The
    levels of one complex share their weights, hence one order and one
    packing of terms: the slice bases are those `QuotientTable.standard_monomials`
    walks (with its degree limit), and the columns of d come from `d_packed`."""

    def __init__(self, modules: Sequence[CheckedFormsModule]):
        self.by_k = {}
        self._bases: dict = {}
        self._d: dict = {}  # k -> d of level k on packed terms
        for m in modules:
            if m.grading() is None:
                raise FormsError("slice computations need positive weights and homogeneous relations")
            self.by_k[m.k] = m

    def basis(self, k: int, degree: int) -> list:
        """The packed standard terms of one slice, walked once and kept."""
        key = (k, degree)
        if key not in self._bases:
            m = self.by_k.get(k)
            self._bases[key] = [] if m is None else m.table().standard_monomials(degree)
        return self._bases[key]

    def dim(self, k: int, degree: int) -> int:
        return len(self.basis(k, degree))

    def _d_columns(self, k: int, degree: int):
        """The columns of `d_matrix`, one at a time."""
        src = self.basis(k, degree)
        mod_next = self.by_k.get(k + 1)
        if mod_next is None:
            for _ in src:
                yield {}
            return
        terms = set(self.basis(k + 1, degree))
        if k not in self._d:
            self._d[k] = d_packed(mod_next.n, k, mod_next.table().layout)
        for t in src:
            yield _slice_coordinates(mod_next, self._d[k](t), terms)

    def d_matrix(self, k: int, degree: int) -> list:
        """Columns: images under d of the degree-slice basis of level k, in the
        slice coordinates of level k+1, each as an integer row scaled by a
        positive number (`_slice_coordinates`)."""
        return list(self._d_columns(k, degree))

    def d_rank(self, k: int, degree: int) -> int:
        """The rank of `d_matrix`, reading its columns only until the rank
        reaches the dimension of the target slice: every column lies in that
        slice, so the rank cannot exceed its dimension, and the columns not
        yet read cannot raise it further."""
        target = self.dim(k + 1, degree)
        sp = LinSpace()
        if target:
            for c in self._d_columns(k, degree):
                sp.add(c)
                if sp.dim == target:
                    break
        return sp.dim

    def cohomology_dims(self, degree: int) -> list:
        """dim H^k of the degree slice, for k over the supplied modules."""
        ks = sorted(self.by_k)
        dims = {k: self.dim(k, degree) for k in ks}
        ranks = {k: self.d_rank(k, degree) for k in ks}
        out = []
        for k in ks:
            prev = ranks.get(k - 1, 0)
            out.append(dims[k] - ranks[k] - prev)
        return out


def _contraction_failure(modules: Sequence[CheckedFormsModule], chi: FreeElement) -> Optional[int]:
    """The first level k >= 1 whose relations contraction by chi does not map
    into the relations of level k - 1, or None when every level passes."""
    return next((k for k in range(1, len(modules))
                 if not contraction_well_defined(modules[k], modules[k - 1], chi)), None)


def de_rham_report_sliced(modules: Sequence[CheckedFormsModule], bound: int,
                          weights: Optional[Sequence[int]] = None) -> dict:
    """Exactness proof for the augmented complex C -> M_0 -> ... -> M_n,
    M_k the level-k forms modulo R_k, under weights w >= 0, not all zero
    (by default the modules' own).  It reads no slice, so its name is
    kept only because the benchmark calls it.

    Hypotheses, checked in this order, the first that fails raising
    `FormsError`: (a) every relation generator is homogeneous of positive
    weight, (b) the levels are 0..n, and (c) contraction by chi = sum w_i
    x_i d/dx_i maps each R_k into R_(k-1) (by exact membership in the lower
    tables; Saito's contraction lemma for `forms_free`).  By (a) each M_k
    is graded.  If w is a k-form of degree delta > 0 with dw in R_(k+1),
    Cartan's formula delta*w = d(i_chi w) + i_chi dw, with i_chi dw in R_k
    by (b) and (c), makes the class of w the differential of that of
    i_chi w / delta (for k = 0, w lies in R_0): every positive degree is
    exact.  Degree 0 is spanned by the forms in the zero-weight variables
    and their differentials, and by (a) no relation has a term there: it is
    the polynomial de Rham complex of those variables, exact by Poincare's
    lemma.  Under positive weights (mode "slice") there are none: degree 0
    is the constants of level 0, with cohomology [1, 0, ..., 0]; under a
    zero weight (mode "homotopy") each degree up to `bound` gets its
    certificate."""
    n, nv = modules[0].n, modules[0].nvars
    weights = modules[0].weights if weights is None else tuple(weights)
    if weights is None:
        raise FormsError("de Rham exactness needs a weight system (none found)")
    chi = FreeElement([Poly.variable(nv, i).scale(w) for i, w in enumerate(weights)])
    degrees = (r.weighted_degree(weights, _shifts(weights, n, m.k))
               for m in modules for r in m.relations)
    failure = None
    if any(d is not None and (len(d) != 1 or min(d) <= 0) for d in degrees):
        failure = "relation generator not homogeneous of positive weight"
    elif [m.k for m in modules] != list(range(n + 1)):
        failure = f"levels are not 0..{n}"
    elif (k := _contraction_failure(modules, chi)) is not None:
        failure = f"contraction does not preserve relations at degree {k}"
    if failure is not None:
        raise FormsError(f"de Rham exactness is not proven: {failure}")
    if all(weights):
        return {"all_exact": True, "mode": "slice",
                "positive_degrees": "Euler-field homotopy (contraction checked)",
                "per_degree": {0: {"cohomology": [1] + [0] * n, "exact": True}}}
    report = {degree: {"exact": True, "certificate": "radial-contraction homotopy"}
              for degree in range(0, bound + 1)}
    report[0]["certificate"] = ("weight-zero slice is the de Rham complex of the "
                                "zero-weight variables")
    return {"all_exact": True, "mode": "homotopy", "per_degree": report}


def cokernel_slice_dims(modules: Sequence[CheckedFormsModule], k_top: int, bound: int) -> dict:
    """Per-degree dimensions of level k_top modulo the image of d from below."""
    slices = GradedSlices(modules)
    out = {}
    for degree in range(0, bound + 1):
        dim = slices.dim(k_top, degree)
        rank = slices.d_rank(k_top - 1, degree) if k_top >= 1 else 0
        out[degree] = dim - rank
    return out

