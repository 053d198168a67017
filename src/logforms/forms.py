"""Torsion-reduced Kahler complexes on free and almost free divisors.

The degree-k module is presented as the quotient of the free module of
polynomial k-forms by a relation submodule: the logarithmic-form generators
for a free divisor, the pulled-back exterior ideal for an almost free one,
and additionally the parameter differentials in the relative case.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .exterior import (
    contract,
    d_packed,
    form_basis,
    form_rank,
    monomial_form,
    pullback,
    wedge,
    wedge_unit,
)
from .groebner import (
    LinSpace,
    QuotientTable,
    StabilizationError,
    groebner_basis,
    is_member,
    kernel_of_map,
    quotient_dimension,
    saturate,
    syzygy_module,
)
from .logarithmic import LogBasis, apply_field, log_form_generators
from .module import INFINITE, FreeElement, Grading, ModulePresentation
from .order import MonomialOrder
from .poly import Poly, PolyError, poly_exact_div


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
        if self.weights is not None and all(w > 0 for w in self.weights):
            return MonomialOrder("wdegrevlex", self.weights)
        return MonomialOrder("wdegrevlex", (1,) * self.nvars)

    def grading(self) -> Optional[Grading]:
        if self.weights is None or any(w <= 0 for w in self.weights):
            return None
        shifts = [sum(self.weights[i] for i in I) for I in form_basis(self.n, self.k)]
        if not shifts:
            shifts = [0]
        g = Grading(self.weights, shifts)
        for r in self.relations:
            if not r.is_homogeneous(g.weights, g.shifts):
                return None
        return g

    def presentation(self) -> ModulePresentation:
        return ModulePresentation(self.rank, self.relations, grading=self.grading(),
                                  nvars=self.nvars)

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


def pullback_relation_generators(e_basis: LogBasis, components: Sequence[Poly],
                                 source_n: int, k: int) -> list:
    """Degree-k part of the exterior ideal generated by the pulled-back
    logarithmic form generators of the target divisor."""
    return pullback_relations_by_degree(e_basis, components, source_n, (k,))[1][k]


def pullback_relations_by_degree(e_basis: LogBasis, components: Sequence[Poly],
                                 source_n: int, ks: Sequence[int],
                                 h0: Optional[Poly] = None) -> tuple:
    """(h o F, {k: `pullback_relation_generators` of degree k} for each k in
    ks) from one `pullback` call, which takes h as a 0-form (unless h0 = h o
    F is given) and each logarithmic generator of a degree j that some k in
    ks wedges with the basis (k - j)-forms once.  Each wedge p ^ dx_M with a
    basis form is a signed re-indexing of p (`wedge_unit`)."""
    m = e_basis.n
    degrees = [j for j in range(0, min(max(ks), m) + 1)
               if any(j <= k and k - j <= source_n for k in ks)]
    gens = [(j, g) for j in degrees for g in log_form_generators(e_basis, j)]
    h = FreeElement([e_basis.divisor.h])
    # a degree-0 generator equal to h (det of a Saito basis of determinant h)
    # pulls back to h o F, so h is composed once
    todo = [(j, g) for j, g in gens if j or g != h]
    pulled = iter(pullback(([] if h0 is not None else [(0, h)]) + todo, components, source_n))
    h0 = next(pulled).entries[0] if h0 is None else h0
    out: dict = {k: [] for k in ks}
    for j, g in gens:
        p = FreeElement([h0]) if not j and g == h else next(pulled)
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
    `pullback` call (`pullback_relations_by_degree`)."""
    n = len(source_names)
    h0, gens = pullback_relations_by_degree(e_basis, components, n, ks, h0)
    return [CheckedFormsModule(source_names, n, k, gens[k], h0, weights=weights, kind="pullback")
            for k in ks]


def forms_relative(e_basis: LogBasis, components: Sequence[Poly], source_names: Sequence[str],
                   param_indices: Sequence[int], k: int,
                   weights: Optional[Sequence[int]] = None) -> CheckedFormsModule:
    """Relative forms of a family: pulled-back ideal plus parameter differentials."""
    n = len(source_names)
    h0, gens = pullback_relations_by_degree(e_basis, components, n, (k,))
    gens = gens[k] + _parameter_differentials(n, k, components[0].nvars, param_indices)
    return CheckedFormsModule(source_names, n, k, gens, h0, weights=weights, kind="relative")


def forms_free_relative(basis: LogBasis, param_indices: Sequence[int], k: int) -> CheckedFormsModule:
    """Relative forms when the total space itself carries a free-divisor certificate."""
    d = basis.divisor
    n = d.nvars
    gens = log_form_generators(basis, k) + _parameter_differentials(n, k, d.h.nvars, param_indices)
    return CheckedFormsModule(d.names, n, k, gens, d.h, weights=d.weights, kind="relative")


def _parameter_differentials(n: int, k: int, nv: int, param_indices: Sequence[int]) -> list:
    """The basis k-forms dx_I that contain the differential of a parameter."""
    params = set(param_indices)
    return [monomial_form(n, k, nv, I, Poly.constant(nv, 1))
            for I in form_basis(n, k) if set(I) & params]


# ---------------------------------------------------------------------------
# operations


def pd_check(m: CheckedFormsModule) -> bool:
    """True when the relation generators form a free basis of the relation module."""
    syz = syzygy_module(m.relations, m.order())
    return all(s.is_zero() for s in syz)


def contract_class(m: CheckedFormsModule, chi: FreeElement, form: FreeElement) -> FreeElement:
    """Interior product on classes; chi must be tangent to the divisor."""
    val = apply_field(chi, m.h)
    if not val.is_zero():
        try:
            poly_exact_div(val, m.h)
        except PolyError:
            raise FormsError("contraction field is not logarithmic for the divisor")
    return contract(m.n, m.k, chi, form)


def contraction_well_defined(m: CheckedFormsModule, lower: CheckedFormsModule,
                             chi: FreeElement) -> bool:
    """Check that contracting every relation generator lands in the lower relations."""
    return all(lower.class_is_zero(contract(m.n, m.k, chi, g)) for g in m.relations)


def subquotient_dimension(big_gens: Sequence[FreeElement], small_gens: Sequence[FreeElement],
                          order: MonomialOrder, nvars: int):
    """Dimension of <big>/<small> for nested submodules."""
    big = [g for g in big_gens if not g.is_zero()]
    if not big:
        return 0
    K = kernel_of_map(big, list(small_gens), order)
    pres = ModulePresentation(len(big), K, nvars=nvars)
    return quotient_dimension(pres, order)


def _primes(count: int) -> list:
    """The first count primes: 2, 3, 5, 7, ..."""
    out: list = []
    p = 2
    while len(out) < count:
        if all(p % q for q in out):
            out.append(p)
        p += 1
    return out


def _linear_form(weights: Sequence[int]) -> Poly:
    """l = sum(p_i * x_i^(D / w_i)) with D = lcm(w) and p_i the i-th prime:
    homogeneous of weighted degree D, with fixed generic coefficients."""
    D = lcm(*weights)
    primes = _primes(len(weights))
    return Poly(len(weights), {tuple(D // w if j == i else 0 for j, w in enumerate(weights)): p
                               for i, p in enumerate(primes)})


def _torsion(m: CheckedFormsModule) -> tuple:
    """(reduced basis of the saturation M : m^inf of the relation module M,
    dim of it over M); see `torsion_saturation`."""
    order = m.order()
    nv = m.nvars
    g = m.grading()
    gb = groebner_basis(m.relations, order)
    if g is not None:
        sat = saturate(gb, m.rank, [_linear_form(g.weights)], order)
        length = subquotient_dimension(sat, m.relations, order, nv)
        if length != INFINITE:
            return sat, length
    variables = [Poly.variable(nv, i) for i in range(nv)]
    sat = saturate(gb, m.rank, variables, order)
    return sat, subquotient_dimension(sat, m.relations, order, nv)


def torsion_length(m: CheckedFormsModule):
    """C-dimension of the elements killed by a power of the maximal ideal."""
    return _torsion(m)[1]


def torsion_saturation(m: CheckedFormsModule) -> list:
    """The reduced basis of the saturation M : m^inf of the relation module
    M, m = (x_1, ..., x_n): the forms that a power of m sends into M.

    For a graded module it is first computed as S = M : l^inf, by the colon
    chain of the one linear form l of `_linear_form`, and certified by the
    dimension of S/M that `torsion_length` reports anyway.  The certificate:
    l lies in m, so M : m^inf lies in S.  If dim S/M is finite, then S/M is a
    graded module (l is homogeneous and M graded) of finite dimension, and
    under positive weights m raises degrees, so a power of m kills S/M and
    S lies in M : m^inf; hence S = M : m^inf.  When dim S/M is infinite (l
    vanishes on a component of the support, as when it is one of the
    planes), or the module is ungraded, the colon chain of the maximal ideal
    itself gives the saturation.
    """
    return _torsion(m)[0]


def class_is_torsion(m: CheckedFormsModule, form: FreeElement) -> bool:
    return is_member(form, torsion_saturation(m), m.order())


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


def de_rham_report_sliced(modules: Sequence[CheckedFormsModule], bound: int) -> dict:
    """Per-degree exactness report for the augmented complex (positive weights)."""
    slices = GradedSlices(modules)
    report = {}
    all_exact = True
    for degree in range(0, bound + 1):
        coh = slices.cohomology_dims(degree)
        if degree == 0:
            exact = coh[0] == 1 and all(c == 0 for c in coh[1:])
        else:
            exact = all(c == 0 for c in coh)
        report[degree] = {"cohomology": coh, "exact": exact}
        if not exact:
            all_exact = False
    return {"mode": "slice", "per_degree": report, "all_exact": all_exact}


def de_rham_report_homotopy(modules: Sequence[CheckedFormsModule],
                            semiweights: Sequence[int], bound: int) -> dict:
    """Exactness certificate via the contraction homotopy of the radial field of
    the positive-weight variables.

    Valid when every relation generator is homogeneous of positive weight and
    contraction maps each relation level into the one below; the weight-zero
    slice is then the polynomial de Rham complex of the zero-weight variables.
    """
    n = modules[0].n
    nv = modules[0].nvars
    chi = FreeElement([Poly.variable(nv, i).scale(semiweights[i]) for i in range(n)])
    for m in modules:
        shifts = [sum(semiweights[i] for i in I) for I in form_basis(m.n, m.k)] or [0]
        for r in m.relations:
            degs = r.weighted_degree(semiweights, shifts)
            if degs is None:
                continue
            if len(degs) != 1 or min(degs) <= 0:
                return {"mode": "homotopy", "all_exact": False,
                        "failure": "relation generator not homogeneous of positive weight"}
    for k in range(1, len(modules)):
        if not contraction_well_defined(modules[k], modules[k - 1], chi):
            return {"mode": "homotopy", "all_exact": False,
                    "failure": f"contraction does not preserve relations at degree {k}"}
    report = {degree: {"exact": True, "certificate": "radial-contraction homotopy"}
              for degree in range(0, bound + 1)}
    report[0]["certificate"] = "weight-zero slice is the de Rham complex of the zero-weight variables"
    return {"mode": "homotopy", "per_degree": report, "all_exact": True}


def cokernel_slice_dims(modules: Sequence[CheckedFormsModule], k_top: int, bound: int) -> dict:
    """Per-degree dimensions of level k_top modulo the image of d from below."""
    slices = GradedSlices(modules)
    out = {}
    for degree in range(0, bound + 1):
        dim = slices.dim(k_top, degree)
        rank = slices.d_rank(k_top - 1, degree) if k_top >= 1 else 0
        out[degree] = dim - rank
    return out


def stabilized_sum(table: dict, bound: int, window: int):
    """Sum the per-degree table, requiring a trailing window of zeros."""
    total = sum(table.values())
    tail = [table[d] for d in range(max(0, bound - window + 1), bound + 1)]
    if any(t != 0 for t in tail):
        raise StabilizationError(
            f"per-degree contributions did not vanish over the last {window} degrees")
    return total


def wedge_map_kernel_dims(source: CheckedFormsModule, target: CheckedFormsModule,
                          wedge_form: FreeElement, wedge_deg: int, bound: int) -> dict:
    """Per-degree kernel dimensions of (wedge with a fixed form) on slice bases."""
    n = target.n
    nv = target.nvars
    out = {}
    shift = None
    unpack, pack = source.table().layout.unpack, target.table().layout.pack
    for degree in range(0, bound + 1):
        src = source.table().standard_monomials(degree)
        if not src:
            out[degree] = 0
            continue
        # weighted degree of the wedge form (homogeneous)
        if shift is None:
            degs = wedge_form.weighted_degree(
                target.weights,
                [sum(target.weights[i] for i in I) for I in form_basis(n, wedge_deg)])
            shift = min(degs)
        terms = set(target.table().standard_monomials(degree + shift))
        sp = LinSpace()
        kernel = 0
        for comp, e in map(unpack, src):
            I = form_basis(source.n, source.k)[comp] if form_rank(source.n, source.k) else ()
            f = monomial_form(source.n, source.k, nv, I, Poly.monomial(nv, e))
            image = wedge(n, wedge_deg, wedge_form, source.k, f).vec()
            row = _slice_coordinates(target, {pack(t): c for t, c in image.items()}, terms)
            if not sp.add(row):
                kernel += 1
        out[degree] = kernel
    return out
