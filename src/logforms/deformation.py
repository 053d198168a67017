"""Deformation theory of almost free divisors and map germs.

Normal spaces are presented as cokernels over the source ring; singular
Milnor numbers come from three independent routes (de Rham cokernel slices,
alternating sums of relative T1 dimensions, and the annihilator route through
a good defining equation) that must agree on weighted homogeneous data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import mul
from typing import Optional, Sequence

from .forms import (
    CheckedFormsModule,
    cokernel_slice_dims,
    forms_pullback_degrees,
    stabilized_sum,
)
from .exterior import minor_table, pullback
from .groebner import (
    LinSpace,
    QuotientTable,
    lift_over_generators,
    quotient_dimension,
)
from .logarithmic import Divisor, LogBasis, apply_field, derlog_h, euler_field, poly_det
from .module import INFINITE, FreeElement, ModulePresentation
from .order import MonomialOrder, StabilizationError
from .poly import Poly


class DeformationError(ValueError):
    pass


class InducingMap:
    """A polynomial map germ, stored as one source-ring component per target
    variable; deformation and extension parameters are marked source variables."""

    def __init__(self, source_names: Sequence[str], target_names: Sequence[str],
                 components: Sequence[Poly], s_indices: Sequence[int] = (),
                 t_indices: Sequence[int] = ()):
        if len(components) != len(target_names):
            raise DeformationError("one component per target variable required")
        for c in components:
            if c.nvars != len(source_names):
                raise DeformationError("components must live in the source ring")
        self.source_names = tuple(source_names)
        self.target_names = tuple(target_names)
        self.components = list(components)
        self.s_indices = tuple(s_indices)
        self.t_indices = tuple(t_indices)
        overlap = set(self.s_indices) & set(self.t_indices)
        if overlap:
            raise DeformationError("a variable cannot be both deformation and extension parameter")

    @property
    def source_dim(self) -> int:
        return len(self.source_names)

    @property
    def target_dim(self) -> int:
        return len(self.target_names)

    def germ(self) -> "InducingMap":
        """The central germ: all parameters set to zero, parameters dropped."""
        params = set(self.s_indices) | set(self.t_indices)
        if not params:
            return self
        keep = [i for i in range(self.source_dim) if i not in params]
        names = [self.source_names[i] for i in keep]
        comps = []
        for c in self.components:
            c0 = c.set_vars_zero(params)
            terms = {}
            for e, v in c0.terms.items():
                terms[tuple(e[i] for i in keep)] = v
            comps.append(Poly(len(keep), terms))
        return InducingMap(names, self.target_names, comps)

    def germ_weights(self, weights: Optional[Sequence[int]]) -> Optional[tuple]:
        """Source weights for the central germ: the parameter entries are
        dropped when the weights cover the full source ring, and weights of
        any other length (already on the germ) pass through."""
        if weights is None or len(weights) != self.source_dim:
            return weights
        params = set(self.s_indices) | set(self.t_indices)
        return tuple(w for i, w in enumerate(weights) if i not in params)


class DeformationSetup:
    """A free target divisor with certificate, an inducing map, and parameters."""

    def __init__(self, e_basis: LogBasis, imap: InducingMap,
                 weights: Optional[Sequence[int]] = None):
        if e_basis.n != imap.target_dim:
            raise DeformationError("target divisor and map target dimension disagree")
        self.e_basis = e_basis
        self.map = imap
        self.weights = tuple(weights) if weights is not None else None


def jacobian_columns(components: Sequence[Poly], source_n: int) -> list:
    """Columns of the Jacobian as elements of the rank-(target dim) free module."""
    m = len(components)
    cols = []
    for v in range(source_n):
        cols.append(FreeElement([components[a].derivative(v) for a in range(m)]))
    return cols


def pulled_field_columns(e_basis: LogBasis, components: Sequence[Poly]) -> list:
    """The target logarithmic fields composed with the map: the nonzero ones
    of the m^2 Saito entries pulled back as 0-forms by one `pullback` call,
    a zero entry staying zero, then grouped back into m columns."""
    m = e_basis.n
    entries = [a for field in e_basis.theta for a in field]
    pulled = iter(pullback([(0, FreeElement([a])) for a in entries if not a.is_zero()],
                           components, 0))
    zero = Poly.zero(components[0].nvars)
    flat = [zero if a.is_zero() else next(pulled).entries[0] for a in entries]
    return [FreeElement(flat[j * m:(j + 1) * m]) for j in range(m)]


def kev_normal_space(setup: DeformationSetup, order: Optional[MonomialOrder] = None):
    """Presentation and dimension of the normal space of the inducing germ:
    target fields pulled back plus the Jacobian image, inside the free module
    of target directions."""
    imap = setup.map.germ()
    n = imap.source_dim
    rels = jacobian_columns(imap.components, n) + pulled_field_columns(setup.e_basis, imap.components)
    pres = ModulePresentation(imap.target_dim, rels, nvars=n)
    weights = setup.map.germ_weights(setup.weights)
    order = order or MonomialOrder("wdegrevlex", weights)
    dim = quotient_dimension(pres, order.with_nvars(n))
    return pres, dim


def t1_log(total_basis: LogBasis, param_indices: Sequence[int],
           kill_indices: Sequence[int] = (), order: Optional[MonomialOrder] = None):
    """Relative T1 of the projection to the chosen parameters: the free module
    on the parameter directions modulo the parameter rows of the basis matrix,
    optionally reduced mod the ideal of the kill parameters."""
    pres, order = _t1_presentation(total_basis, param_indices, kill_indices, order)
    return pres, quotient_dimension(pres, order)


def _t1_presentation(total_basis: LogBasis, param_indices: Sequence[int],
                     kill_indices: Sequence[int], order: Optional[MonomialOrder]):
    """The presentation of `t1_log` and the monomial order it is read in."""
    nv = total_basis.divisor.h.nvars
    if not param_indices:
        raise DeformationError("at least one deformation parameter required")
    pres = _parameter_rows(total_basis.theta, param_indices, kill_indices, nv)
    return pres, (order or total_basis.divisor.order()).with_nvars(nv)


def _parameter_rows(fields: Sequence[Sequence[Poly]], param_indices: Sequence[int],
                    kill_indices: Sequence[int], nv: int) -> ModulePresentation:
    """The free module on the parameter directions modulo the parameter rows
    of the fields (given by their coefficients) and the kill parameters
    times every direction."""
    d = len(param_indices)
    rels = []
    for f in fields:
        col = FreeElement([f[i] for i in param_indices])
        if not col.is_zero():
            rels.append(col)
    for kill in kill_indices:
        s = Poly.variable(nv, kill)
        for a in range(d):
            rels.append(FreeElement.unit(d, nv, a).scale(s))
    return ModulePresentation(d, rels, nvars=nv)


def theta_prime_minors(total_basis: LogBasis, param_indices: Sequence[int],
                       t_indices: Sequence[int] = ()) -> list:
    """Maximal minors of the parameter-rows submatrix, restricted to the
    vanishing of the extension parameters."""
    rows = tuple(param_indices) + tuple(t for t in t_indices if t not in param_indices)
    minor = minor_table(total_basis.matrix(), total_basis.divisor.h.nvars)
    minors = []
    for cols in combinations(range(total_basis.n), len(rows)):
        m = minor(rows, cols)
        if t_indices:
            m = m.set_vars_zero(t_indices)
        if not m.is_zero():
            minors.append(m.primitive()[0])
    seen = set()
    out = []
    for m in minors:
        key = tuple(sorted(m.terms.items()))
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out


def mu_e_alternating(total_basis: LogBasis, param_indices: Sequence[int],
                     order: Optional[MonomialOrder] = None) -> int:
    """Alternating sum of relative T1 dimensions along the parameter chain."""
    d = len(param_indices)
    total = 0
    for i in range(d):
        params = param_indices[i:]
        kills = param_indices[i + 1:]
        _, dim = t1_log(total_basis, params, kills, order)
        if dim == INFINITE:
            raise DeformationError(f"relative T1 at chain position {i + 1} is infinite")
        total += dim if i % 2 == 0 else -dim
    if total < 0:
        raise DeformationError("alternating sum came out negative; chain is not admissible")
    return total


def good_equation_witness(h: Poly, weights: Optional[Sequence[int]] = None) -> Optional[FreeElement]:
    """A field chi with chi(h) = h: the scaled radial field for weighted
    homogeneous h, otherwise a cofactor lift of h over its Jacobian ideal."""
    nv = h.nvars
    if weights is not None and all(w > 0 for w in weights) and h.is_homogeneous(weights):
        deg = h.weighted_degree(weights)
        if deg > 0:
            chi = euler_field(weights, nv)
            return FreeElement([c.scale(Fraction(1, deg)) for c in chi.entries])
    partials = [FreeElement([h.derivative(i)]) for i in range(nv)]
    coeffs = lift_over_generators(FreeElement([h]), partials, MonomialOrder())
    if coeffs is None:
        return None
    chi = FreeElement(coeffs)
    return chi if apply_field(chi, h) == h else None


def mu_e_good_equation(d: Divisor, param_indices: Sequence[int], witness: FreeElement,
                       order: Optional[MonomialOrder] = None):
    """Dimension of the parameter directions modulo the annihilating fields of
    the equation and the base maximal ideal; requires a good-equation witness."""
    if apply_field(witness, d.h) != d.h:
        raise DeformationError("good-equation witness fails chi(h) = h")
    nv = d.nvars
    fields = [f.entries for f in derlog_h(d, order)]
    pres = _parameter_rows(fields, param_indices, param_indices, nv)
    return quotient_dimension(pres, (order or d.order()).with_nvars(nv))


def cartan_stop_degree(components: Sequence[Poly], weights: Sequence[int], h: Poly,
                       top: CheckedFormsModule) -> Optional[int]:
    """A weighted degree D above which every cokernel slice of d into the
    top level of `mu_e_derham` vanishes, or None when the proof below does
    not apply: a component of F is zero or not weighted homogeneous of
    positive degree, the target equation h is not homogeneous for the
    degrees (d_c) of the components, the top level is not graded, or O/J is
    infinite.

    Let the source have n variables of weights w, p = n - 1, E = sum w_i x_i
    d/dx_i, and R_k the pulled-back relations of level k: the exterior ideal
    generated by F* of h times the logarithmic forms of the target.  J is
    the ideal of every coefficient of every level-p relation (homogeneous,
    since the level is graded), and D is the top weighted degree of its
    standard terms plus sum(w), or 0 when J is the unit ideal.

    Proof.  Since p = n - 1, r ^ dx_j = +-r_{[n]-j} dx_[n] for a level-p
    relation r, so J * Omega^n lies in R_p ^ Omega^1.  A homogeneous n-form
    g dx_[n] of degree delta > D has deg g above the top standard degree,
    so g lies in J (its normal form, homogeneous of the same degree, is
    zero); hence R_p ^ Omega^1 holds every n-form of degree delta > D.
    Each F_c is weighted homogeneous of degree d_c > 0, so
    i_E F*eta = F*(i_E' eta) with E' = sum d_c y_c d/dy_c.  E' is
    logarithmic, E'(h) = deg(h) h, because h is homogeneous for the weights
    (d_c), and contraction by a logarithmic field maps h Omega^j(log D) into
    h Omega^(j-1)(log D) (Saito, "Theory of logarithmic differential forms
    and logarithmic vector fields", 1980).  With the Leibniz rule for i_E
    this gives i_E R_p in R_(p-1) and i_E (R_p ^ Omega^1) in R_p.  Now let
    omega be a level-p form of degree delta > D (delta > 0 too).  Cartan's
    formula for the Euler field reads delta omega = L_E omega =
    d(i_E omega) + i_E d(omega), and d(omega) lies in R_p ^ Omega^1, so
    i_E d(omega) lies in R_p: the class of omega is d of the class of
    i_E omega / delta, and the cokernel slice of degree delta is zero (the
    homotopy Greuel uses for an ICIS, Math. Ann. 214, 1975).
    """
    degrees = []
    for c in components:
        if c.is_zero() or not c.is_homogeneous(weights) or c.weighted_degree(weights) <= 0:
            return None
        degrees.append(c.weighted_degree(weights))
    if not h.is_homogeneous(degrees) or top.grading() is None:
        return None
    coefficients = {c for r in top.relations for c in r.entries if not c.is_zero()}
    pres = ModulePresentation(1, [FreeElement([c]) for c in coefficients], nvars=top.nvars)
    terms = QuotientTable(pres, top.order()).standard_terms()
    if terms is None:
        return None
    if not terms:
        return 0
    return max(sum(map(mul, e, weights)) for _, e in terms) + sum(weights)


def mu_e_derham(setup: DeformationSetup, bound: int = 20, window: int = 4) -> int:
    """Singular Milnor number as the dimension of the top checked forms of the
    central fibre modulo exact forms, accumulated over weighted-degree slices.

    The sum stops at the degree D of `cartan_stop_degree`, proven to bound
    every nonzero slice, when D <= bound; degrees above D are never sliced.
    Otherwise (no D, or D > bound) the slices are summed to `bound` and the
    sum is trusted only if the last `window` of them are zero
    (`stabilized_sum`), else `StabilizationError`."""
    return _mu_e_derham_proven(setup, bound, window)[0]


def _mu_e_derham_proven(setup: DeformationSetup, bound: int, window: int) -> tuple:
    """(`mu_e_derham`, whether Cartan's stop degree ended the sum): False
    when the trailing window, a heuristic, did."""
    if setup.weights is None:
        raise DeformationError("no positive weight system")
    imap = setup.map.germ()
    weights = setup.map.germ_weights(setup.weights)
    p = imap.source_dim - 1
    mods = forms_pullback_degrees(setup.e_basis, imap.components, imap.source_names,
                                  (p - 1, p), weights)
    stop = cartan_stop_degree(imap.components, weights, setup.e_basis.divisor.h, mods[1])
    if stop is not None and stop <= bound:
        return sum(cokernel_slice_dims(mods, p, stop).values()), True
    table = cokernel_slice_dims(mods, p, bound)
    return stabilized_sum(table, bound, window), False


# ---------------------------------------------------------------------------
# map germs


class SparseLinSpace(LinSpace):
    add = LinSpace.add  # its own `add`: bench/spans.py times the jet route under this name


def _truncate_vec(entries: Sequence[Poly], jet_order: int) -> dict:
    out = {}
    for a, poly in enumerate(entries):
        for e, c in poly.terms.items():
            if sum(e) <= jet_order:
                out[(a, e)] = c
    return out


def ae_normal_space_direct(components: Sequence[Poly], cap: int = 20):
    """Codimension of the extended tangent space of a map germ, assembled
    jet order by jet order until two consecutive answers agree.

    The target-pullback part is not finitely generated over the source ring,
    so each truncation spans the image of the tangent space inside the jet
    space exactly; the resulting dimensions increase to the true codimension
    for finite germs and run away for non-finite ones.  Raises
    `StabilizationError` when no two consecutive jet orders up to `cap` agree.
    """
    p = len(components)
    if p == 0:
        raise DeformationError("a map germ needs at least one component")
    n = components[0].nvars
    for c in components:
        if c.constant_value() != 0:
            raise DeformationError("map germ components must vanish at the origin")
    partial_cols = [[components[a].derivative(v) for a in range(p)] for v in range(n)]
    orders = []
    for c in components:
        if c.is_zero():
            orders.append(None)
        else:
            orders.append(min(sum(e) for e in c.terms))
    prev = None
    for N in range(1, cap + 1):
        span = SparseLinSpace()
        monomials = sorted((e for e in product(range(N + 1), repeat=n) if sum(e) <= N), key=sum)
        # source-field images: monomial times each Jacobian column
        for v in range(n):
            col = partial_cols[v]
            for e in monomials:
                shifted = [Poly(n, {tuple(a + b for a, b in zip(e2, e)): c
                                    for e2, c in q.terms.items()}) for q in col]
                vec = _truncate_vec(shifted, N)
                if vec:
                    span.add(vec)
        # target-field images: products of components times each target direction
        for beta_poly in _component_powers(components, orders, N):
            for a in range(p):
                entries = [Poly.zero(n)] * p
                entries[a] = beta_poly
                vec = _truncate_vec(entries, N)
                if vec:
                    span.add(vec)
        jet_dim = p * comb(n + N, n)
        c_N = jet_dim - span.dim
        if prev is not None and c_N == prev:
            return c_N
        prev = c_N
    raise StabilizationError(f"jet orders did not stabilise within jet-cap {cap}")


def _component_powers(components: Sequence[Poly], orders: Sequence[int], bound: int):
    """All products of component powers with vanishing order at most the bound."""
    p = len(components)
    n = components[0].nvars
    results: list = []

    def rec(idx: int, current: Poly, used: int):
        if idx == p:
            results.append(current)
            return
        rec(idx + 1, current, used)
        if orders[idx] is None:
            return
        power = current
        total = used
        while True:
            total += orders[idx]
            if total > bound:
                break
            power = power * components[idx]
            rec(idx + 1, power, total)

    rec(0, Poly.constant(n, 1), 0)
    return results


def ae_codim_damon(df_basis: LogBasis, inclusion: InducingMap,
                   weights: Optional[Sequence[int]] = None,
                   order: Optional[MonomialOrder] = None):
    """Codimension through the discriminant of a stable unfolding: the normal
    space of the inclusion against the discriminant's logarithmic fields."""
    setup = DeformationSetup(df_basis, inclusion, weights=weights)
    _, dim = kev_normal_space(setup, order)
    return dim


def ke_discriminant_reduced(total_basis: LogBasis, s_index: int,
                            order: Optional[MonomialOrder] = None):
    """Whether the zeroth Fitting ideal of the relative T1 over the base equals
    the base maximal ideal (one-parameter miniversal data)."""
    pres, order = _t1_presentation(total_basis, [s_index], (), order)
    table = QuotientTable(pres, order)
    basis_terms = table.standard_terms()
    if basis_terms is None:
        raise DeformationError("relative T1 is infinite; hypotheses do not hold")
    if not basis_terms:
        raise DeformationError("relative T1 vanishes (trivial family); no discriminant to test")
    m = len(basis_terms)
    index = {t: i for i, t in enumerate(basis_terms)}
    cols = []
    for comp, e in basis_terms:
        col = [Fraction(0)] * m
        s_times_e = e[:s_index] + (e[s_index] + 1,) + e[s_index + 1:]
        for t, v in table.reduce({(comp, s_times_e): 1}).items():
            col[index[t]] = v
        cols.append(col)
    # characteristic polynomial det(sI - M) in one variable
    svar = Poly.variable(1, 0)
    mat = [[svar.scale(1) if i == j else Poly.zero(1) for j in range(m)] for i in range(m)]
    for j in range(m):
        for i in range(m):
            mat[i][j] = mat[i][j] - Poly.constant(1, cols[j][i])
    chi = poly_det(mat)
    # Fitting ideal over the base is (chi); reduced iff it equals (s)
    reduced = chi == Poly.variable(1, 0) or chi == -Poly.variable(1, 0)
    return reduced, chi, m
