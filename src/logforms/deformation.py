"""Deformation theory of almost free divisors and map germs.

Normal spaces are presented as cokernels over the source ring; singular
Milnor numbers come from three independent routes (the de Rham cokernel,
counted as the top forms modulo the pulled-back relations by the Euler-field
homotopy, alternating sums of relative T1 dimensions, and the annihilator
route through a good defining equation) that must agree on weighted
homogeneous data.  The de Rham count reads the maximal minors of A =
[S o F | dF] (`forms.pulled_back_matrix`), the K_{V,e} normal space its
cokernel.  Both read a set-up's map and weights as given: the map is the
germ, and a family's central germ at parameter 0, with its weights, is
built by the caller (`cli._map_germ`).  A weighted homogeneous map germ's
A_e-codimension is counted over proven normal-space slices (`direct`) and
through a stable unfolding (`damon`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, mul
from typing import Optional, Sequence

from .forms import CheckedFormsModule, forms_pullback_degrees, jacobian_columns, pulled_back_matrix
from .exterior import minor_table
from .groebner import (
    LinSpace,
    QuotientTable,
    lift_over_generators,
    quotient_dimension,
)
from .logarithmic import Divisor, LogBasis, apply_field, derlog_h, euler_field, poly_det
from .module import INFINITE, FreeElement, Grading, ModulePresentation
from .order import MonomialOrder, StabilizationError
from .poly import Poly, quasihomogeneous_weights


class DeformationError(ValueError):
    pass


class InducingMap:
    """A polynomial map germ, stored as one source-ring component per target
    variable."""

    def __init__(self, source_names: Sequence[str], target_names: Sequence[str],
                 components: Sequence[Poly]):
        if len(components) != len(target_names):
            raise DeformationError("one component per target variable required")
        for c in components:
            if c.nvars != len(source_names):
                raise DeformationError("components must live in the source ring")
        self.source_names = tuple(source_names)
        self.target_names = tuple(target_names)
        self.components = list(components)

    @property
    def source_dim(self) -> int:
        return len(self.source_names)

    @property
    def target_dim(self) -> int:
        return len(self.target_names)


class DeformationSetup:
    """A free target divisor with certificate, an inducing map germ, and the
    weights of the germ's source variables (None: none given)."""

    def __init__(self, e_basis: LogBasis, imap: InducingMap,
                 weights: Optional[Sequence[int]] = None):
        if e_basis.n != imap.target_dim:
            raise DeformationError("target divisor and map target dimension disagree")
        self.e_basis = e_basis
        self.map = imap
        self.weights = tuple(weights) if weights is not None else None


def kev_normal_space(setup: DeformationSetup):
    """Presentation and dimension of the normal space of the inducing germ,
    coker A for A = [S o F | dF] (`pulled_back_matrix`): the target fields
    composed with the germ plus the Jacobian image, inside the free module
    of target directions, counted in the polynomial ring."""
    imap = setup.map
    n = imap.source_dim
    pres = ModulePresentation(imap.target_dim,
                              pulled_back_matrix(setup.e_basis, imap.components, n)[0], nvars=n)
    dim = quotient_dimension(pres, MonomialOrder(setup.weights).with_nvars(n))
    return pres, dim


def t1_log(total_basis: LogBasis, param_indices: Sequence[int],
           kill_indices: Sequence[int] = ()):
    """Relative T1 of the projection to the chosen parameters: the free module
    on the parameter directions modulo the parameter rows of the basis matrix,
    optionally reduced mod the ideal of the kill parameters."""
    pres = _t1_presentation(total_basis, param_indices, kill_indices)
    return pres, quotient_dimension(pres, total_basis.divisor.order())


def _t1_presentation(total_basis: LogBasis, param_indices: Sequence[int],
                     kill_indices: Sequence[int]) -> ModulePresentation:
    """The presentation of `t1_log`."""
    if not param_indices:
        raise DeformationError("at least one deformation parameter required")
    return _parameter_rows(total_basis.theta, param_indices, kill_indices,
                           total_basis.divisor.h.nvars)


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
                       ext_params: Sequence[int] = ()) -> list:
    """Maximal minors of the parameter-rows submatrix, restricted to the
    vanishing of the extension parameters."""
    rows = tuple(param_indices) + tuple(t for t in ext_params if t not in param_indices)
    minor = minor_table(total_basis.matrix(), total_basis.divisor.h.nvars)
    minors = []
    for cols in combinations(range(total_basis.n), len(rows)):
        m = minor(rows, cols)
        if ext_params:
            m = m.set_vars_zero(ext_params)
        if not m.is_zero():
            minors.append(m.primitive()[0])
    return list(dict.fromkeys(minors))


def mu_e_alternating(total_basis: LogBasis, param_indices: Sequence[int]) -> int:
    """Alternating sum of relative T1 dimensions along the parameter chain."""
    d = len(param_indices)
    total = 0
    for i in range(d):
        params = param_indices[i:]
        kills = param_indices[i + 1:]
        _, dim = t1_log(total_basis, params, kills)
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


def mu_e_good_equation(d: Divisor, param_indices: Sequence[int],
                       witness: Optional[FreeElement]):
    """Dimension of the parameter directions modulo the annihilating fields of
    the equation and the base maximal ideal; requires a good-equation witness
    (None: `good_equation_witness` found none)."""
    if witness is None:
        raise DeformationError("no good-equation witness found")
    if apply_field(witness, d.h) != d.h:
        raise DeformationError("good-equation witness fails chi(h) = h")
    nv = d.nvars
    fields = [f.entries for f in derlog_h(d)]
    pres = _parameter_rows(fields, param_indices, param_indices, nv)
    return quotient_dimension(pres, d.order())


def component_degrees(components: Sequence[Poly], weights: Sequence[int],
                      target: Divisor) -> list:
    """The degree d_c of each component F_c, which must be weighted
    homogeneous of positive degree unless zero; a zero F_c takes d_c = r v_c,
    v the target's weights and r the common ratio d_c / v_c of the nonzero
    components.  `DeformationError` names what fails."""
    degrees = [None if c.is_zero() else c.weighted_degree(weights) for c in components]
    if any(d is not None and (d <= 0 or not c.is_homogeneous(weights))
           for c, d in zip(components, degrees)):
        raise DeformationError("a component is not weighted homogeneous of positive degree")
    if None in degrees:
        if target.weights is None:
            raise DeformationError("a component is zero and the target has no weights")
        ratios = {Fraction(d, v) for d, v in zip(degrees, target.weights) if d is not None}
        if len(ratios) != 1:
            raise DeformationError("the components have no common ratio to the target weights")
        (r,) = ratios
        degrees = [r * v for v in target.weights]
    return degrees


def check_euler_homotopy(components: Sequence[Poly], weights: Sequence[int], target: Divisor,
                         top: CheckedFormsModule) -> None:
    """Check the hypotheses of `mu_e_derham`'s proof, raising
    `DeformationError` that names the one that fails: the components have
    degrees (`component_degrees`), h is homogeneous for them, and the top
    level is graded."""
    if not target.h.is_homogeneous(component_degrees(components, weights, target)):
        raise DeformationError(
            "the target equation is not homogeneous for the degrees of the components")
    if top.grading() is None:
        raise DeformationError("the top level is not graded")


def mu_e_derham(setup: DeformationSetup, bound: int = 20, window: Optional[int] = None) -> int:
    """Singular Milnor number: the dimension of the top checked forms of the
    central fibre modulo exact forms, counted as dim Omega^n / R_n, the
    number of standard terms of one table.  The hypotheses are those of
    `check_euler_homotopy`; an infinite Omega^n / R_n is `DeformationError`.
    `bound` and `window` are not read; they are kept only because the
    benchmark's cases still pass them.

    Let the source have n variables of weights w, p = n - 1, E = sum w_i x_i
    d/dx_i, R_k the pulled-back relations of level k (the exterior ideal
    generated by F* of h times the logarithmic forms of the target) and
    M_k = Omega^k / R_k.  The route's number is the sum over degrees delta
    of dim coker(d: M_(p-1) -> M_p)_delta.

    Proof that it equals dim M_n.  d maps R_k into R_(k+1): d(h eta) =
    h(dh/h ^ eta + d eta) is again h times a logarithmic form, and d
    commutes with F*.  Let E' = sum d_c y_c d/dy_c.  Then i_E F*eta =
    F*(i_E' eta): both sides are antiderivations along F* that vanish on
    functions, and on dy_c they give E(F_c) and F*(d_c y_c) = d_c F_c, equal
    where F_c is homogeneous of degree d_c and both zero where F_c = 0,
    whatever d_c is.  E' is logarithmic, E'(h) = deg(h) h, because h is
    homogeneous for the degrees (d_c); with a zero component E' is r times
    the target's Euler field.  Contraction by a logarithmic field maps
    h Omega^j(log D) into h Omega^(j-1)(log D) (Saito, "Theory of
    logarithmic differential forms and logarithmic vector fields", 1980), so
    with the Leibniz rule for i_E, i_E maps R_k into R_(k-1) at every
    level, n included.  So L_E = d i_E + i_E d, which is delta on forms of
    degree delta, maps each R_k into itself, and each M_k is graded.  In a
    degree delta > 0, Cartan's formula reads delta omega = d(i_E omega) +
    i_E d(omega).  If omega is a p-form with d(omega) in R_n, then
    i_E d(omega) lies in R_p, so the class of omega is d of the class of
    i_E omega / delta: M_(p-1) -> M_p -> M_n is exact at M_p.  An n-form
    omega has d(omega) = 0, so it is d of i_E omega / delta: d maps M_p
    onto M_n.  Hence coker(d)_delta = (M_p / ker d)_delta, which d maps
    isomorphically onto (M_n)_delta (the homotopy Greuel uses for an ICIS,
    Math. Ann. 214, 1975).  In degree 0, (M_p)_0 = 0 for p >= 1, and for
    p = 0 the augmentation C -> M_0 kills the constants; (M_n)_0 = 0 since
    n >= 1.  So the sum is dim M_n."""
    if setup.weights is None:
        raise DeformationError("no positive weight system")
    imap, weights = setup.map, setup.weights
    n = imap.source_dim
    top = forms_pullback_degrees(setup.e_basis, imap.components, imap.source_names, (n,),
                                 weights)[0]
    check_euler_homotopy(imap.components, weights, setup.e_basis.divisor, top)
    terms = top.table().standard_terms()
    if terms is None:
        raise DeformationError("Omega^n/R_n is infinite")
    return len(terms)


# ---------------------------------------------------------------------------
# map germs


class SparseLinSpace(LinSpace):
    add = LinSpace.add  # its own `add`: bench/spans.py times the slice ranks of the germ route


def ae_normal_space_direct(components: Sequence[Poly], cap: int = 20):
    """A_e-codimension of a weighted homogeneous map germ f = (f_1..f_p) on
    n variables: dim Q, Q = theta(f) / (tf(theta_n) + omega f(theta_p)),
    summed over weighted-degree slices up to a proven stop.

    The weights w are those detected for all components (none:
    `DeformationError`); d_c = deg f_c, or 1 for f_c = 0.  x^b e_c has
    degree |b|_w - d_c, and Q is a graded Q[Y]-module, Y_c acting as f_c of
    degree d_c: tf(theta_n) is an O_n-module, omega f(theta_p) is
    f*O_p-stable.  Q_delta is theta(f)_delta modulo the span of the
    x^a df/dx_v (|a|_w = delta + w_v) and (Y^g o f) e_c (|g|_d = delta + d_c).

    Generators.  omega f(theta_p) lies in C^p + I theta(f), I = (f_1..f_p),
    so Q / (Y) Q = theta(f) / (T K_e f + C^p), T K_e f = tf(theta_n) +
    I theta(f).  By graded Nakayama the standard terms of T K_e f generate
    Q; let D0 be their top degree.  Infinitely many of them make Q infinite,
    since T A_e f lies in T K_e f + C^p: INFINITE.

    Stop.  Let d_max = max d_c and Q_delta = 0 for delta = D + 1..D + d_max,
    D >= D0.  An element of degree delta > D + d_max is a sum of Y^g h, h a
    generator (of degree <= D0), so some g_i > 0 and Y^g h =
    Y_i (Y^(g - e_i) h), of degree delta - d_i in D + 1..delta - 1: zero by
    induction.  So dim Q sums the slices -d_max..D + d_max.  An A-finite
    germ has at most dim Q nonzero slices above D0, any other infinitely
    many: `cap` bounds how many are read, and one more raises
    `StabilizationError`.
    """
    if not components or any(c.constant_value() for c in components):
        raise DeformationError("a map germ needs components, each vanishing at the origin")
    p, n = len(components), components[0].nvars
    if all(c.is_zero() for c in components):  # T K_e f = 0
        return INFINITE
    weights = quasihomogeneous_weights(*components)
    if weights is None:
        raise DeformationError("the germ needs positive weights making each component homogeneous")
    degrees = [1 if c.is_zero() else c.weighted_degree(weights) for c in components]
    columns = jacobian_columns(components, n)
    ke = ModulePresentation(p, columns + [FreeElement.unit(p, n, c).scale(f) for f in components
                                          for c in range(p) if not f.is_zero()], nvars=n)
    generators = QuotientTable(ke, MonomialOrder(weights)).standard_terms()
    if generators is None:
        return INFINITE
    d_max = max(degrees)
    top = max((sum(map(mul, b, weights)) - degrees[c] for c, b in generators), default=-d_max)

    def monomials(table: QuotientTable, degree: int) -> list:
        return [table.layout.unpack(t)[1] for t in table.standard_monomials(degree)]

    source = QuotientTable(ModulePresentation(1, [], Grading(weights, (0,)), nvars=n))
    target = QuotientTable(ModulePresentation(1, [], Grading(degrees, (0,)), nvars=p))
    powers = {(0,) * p: Poly.constant(n, 1)}

    def power(g: tuple) -> Poly:  # f^g, each computed once
        if g not in powers:
            i = next(i for i, a in enumerate(g) if a)
            powers[g] = power(g[:i] + (g[i] - 1,) + g[i + 1:]) * components[i]
        return powers[g]

    def slice_dim(delta: int) -> int:
        span = SparseLinSpace()
        for v, col in enumerate(columns):
            for a in monomials(source, delta + weights[v]):
                span.add({(c, tuple(map(add, e, a))): k for c, q in enumerate(col.entries)
                          for e, k in q.terms.items()})
        for c in range(p):
            for g in monomials(target, delta + degrees[c]):
                span.add({(c, e): k for e, k in power(g).terms.items()})
        return sum(len(monomials(source, delta + d)) for d in degrees) - span.dim

    total, zeros, nonzero, delta = 0, 0, 0, -d_max
    while zeros < d_max:
        dim = slice_dim(delta)
        total += dim
        if delta > top:
            zeros = 0 if dim else zeros + 1
            nonzero += dim > 0
            if nonzero > cap:
                raise StabilizationError(f"the nonzero slices above degree {top} exceed "
                                         f"jet-cap {cap}: the germ is not shown A-finite")
        delta += 1
    return total


def ae_codim_damon(df_basis: LogBasis, inclusion: InducingMap,
                   weights: Optional[Sequence[int]] = None):
    """Codimension through the discriminant of a stable unfolding: the normal
    space of the inclusion against the discriminant's logarithmic fields."""
    setup = DeformationSetup(df_basis, inclusion, weights=weights)
    _, dim = kev_normal_space(setup)
    return dim


def ke_discriminant_reduced(total_basis: LogBasis, s_index: int):
    """Whether the zeroth Fitting ideal of the relative T1 over the base equals
    the base maximal ideal (one-parameter miniversal data)."""
    table = QuotientTable(_t1_presentation(total_basis, [s_index], ()),
                          total_basis.divisor.order())
    basis_terms = table.standard_terms()
    if basis_terms is None:
        raise DeformationError("relative T1 is infinite; hypotheses do not hold")
    if not basis_terms:
        raise DeformationError("relative T1 vanishes (trivial family); no discriminant to test")
    m = len(basis_terms)
    index = {t: i for i, t in enumerate(basis_terms)}
    cols = []
    for comp, e in basis_terms:
        col = [0] * m
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
    # Fitting ideal over the base is (chi); chi is monic, so reduced iff chi = s
    reduced = chi == Poly.variable(1, 0)
    return reduced, chi, m
