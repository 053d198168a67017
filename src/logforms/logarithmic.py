"""Logarithmic vector fields of a divisor and Saito-style freeness certificates.

A vector field is logarithmic when it is tangent to the divisor, i.e. applies
its equation into the ideal the equation generates; the fields annihilating
the equation form the smaller module handled by `derlog_h`.  Freeness is
certified by n logarithmic fields whose coefficient determinant equals a
nonzero constant times the equation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exterior import _minor_terms, form_basis, minor_table
from .groebner import minimal_generator_indices, syzygies_and_head_leads, syzygy_module
from .module import FreeElement, ModuleError
from .order import MonomialOrder
from .poly import (
    Poly,
    PolyError,
    _add_product,
    _derivative_terms,
    is_squarefree,
    poly_exact_div,
    quasihomogeneous_weights,
    squarefree_by_leads,
)


class DivisorError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """A mathematically impossible state was reached; indicates a defect."""


class Divisor:
    """An ambient variable list with a reduced equation and optional weights."""

    def __init__(self, names: Sequence[str], h: Poly,
                 weights: Optional[Sequence[int]] = None):
        if h.nvars != len(names):
            raise DivisorError("equation does not match the variable list")
        if h.is_zero() or h.is_constant():
            raise DivisorError("divisor equation must be a nonconstant polynomial")
        self.names = tuple(names)
        self.h = h
        self.weights = tuple(weights) if weights is not None else None
        if self.weights is not None:
            if len(self.weights) != len(names):
                raise DivisorError("one weight per variable required")
            if any(w <= 0 for w in self.weights):
                raise DivisorError("weights must be strictly positive")
            if not h.is_homogeneous(self.weights):
                raise DivisorError("equation is not homogeneous for the given weights")
        # The syzygies of (dh/dx_1, ..., dh/dx_n, h) under `order()`, which
        # `derlog` reads.  For h homogeneous under the order's weights, their
        # one tagged basis also holds a Groebner basis of J = (dh, h) in its
        # heads, and reducedness is read from its leads.  An inhomogeneous h
        # takes the homogenised `is_squarefree` instead, and keeps None here:
        # on a dense bivariate sextic the tagged basis took a hundred times
        # longer.
        self._derlog_syzygies: Optional[list] = None
        order = self.order()
        if h.is_homogeneous(order.weights):
            syz, leads = syzygies_and_head_leads(_derlog_columns(h), order)
            self._derlog_syzygies = syz
            reduced = squarefree_by_leads([e for _, e in leads], self.nvars)
        else:
            reduced = is_squarefree(h)
        if not reduced:
            raise DivisorError("divisor equation is not reduced (repeated factor)")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def partials(self) -> list:
        return [self.h.derivative(i) for i in range(self.nvars)]

    def semipositive_weights(self) -> Optional[tuple]:
        """A weight system with nonnegative entries (zero allowed, not all zero)."""
        if self.weights is not None:
            return self.weights
        return quasihomogeneous_weights(self.h, allow_zero=True)

    def order(self) -> MonomialOrder:
        return MonomialOrder(self.weights).with_nvars(self.nvars)

    def __repr__(self):
        return f"Divisor({self.h.format(self.names)})"


class LogBasis:
    """n logarithmic fields with det = unit * h; the Saito certificate."""

    def __init__(self, divisor: Divisor, theta: Sequence[Sequence[Poly]], unit: Fraction,
                 witnesses: Sequence[Poly]):
        self.divisor = divisor
        self.theta = [list(col) for col in theta]  # theta[j] = coefficients of field j
        self.unit = unit
        self.witnesses = list(witnesses)

    @property
    def n(self) -> int:
        return len(self.theta)

    def fields(self) -> list:
        return [FreeElement(col) for col in self.theta]

    def matrix(self) -> list:
        """Row-major coefficient matrix: matrix[i][j] = coefficient of d/dx_i in field j."""
        n = self.n
        return [[self.theta[j][i] for j in range(n)] for i in range(n)]

    def field_degrees(self) -> Optional[list]:
        """Weighted degrees of the fields when the divisor is graded."""
        w = self.divisor.weights
        return None if w is None else _field_degrees(self.theta, w)


def _field_degrees(fields: Sequence[Sequence[Poly]], w: Sequence[int]) -> Optional[list]:
    """Weighted degree of each field (given by its coefficients) under the
    weights w, where x_i d/dx_i has degree 0; None when some field is not
    homogeneous.  A zero field gets degree 0."""
    degs = []
    for col in fields:
        s = {sum(a * b for a, b in zip(e, w)) - w[i] for i, c in enumerate(col) for e in c.terms}
        if len(s) > 1:
            return None
        degs.append(s.pop() if s else 0)
    return degs


class FreenessVerdict:
    FREE = "FREE"
    NOT_FREE = "NOT_FREE"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __init__(self, kind: str, basis: Optional[LogBasis] = None,
                 generator_count: Optional[int] = None, reason: str = ""):
        self.kind = kind
        self.basis = basis
        self.generator_count = generator_count
        self.reason = reason

    def __repr__(self):
        extra = self.reason or self.generator_count or ""
        return f"FreenessVerdict({self.kind}{', ' + str(extra) if extra else ''})"


def apply_field(field: FreeElement, f: Poly) -> Poly:
    """chi(f) = sum of coefficients times partial derivatives, summed in one
    term dict."""
    out: dict = {}
    for i, a in enumerate(field.entries):
        _add_product(out, a.terms, _derivative_terms(f.terms, i))
    return Poly(f.nvars, out)


def _derlog_columns(h: Poly) -> list:
    """The columns (dh/dx_1, ..., dh/dx_n, h) of the tangency relations."""
    return [FreeElement([h.derivative(i)]) for i in range(h.nvars)] + [FreeElement([h])]


def derlog(d: Divisor) -> list:
    """Generators of the module of fields tangent to the divisor.

    Returned as pairs (field, witness) with field(h) = witness * h exactly.
    The syzygies are those of the basis that `Divisor` built for a
    homogeneous h, and are computed here under `d.order()` otherwise.
    """
    n = d.nvars
    syz = d._derlog_syzygies
    if syz is None:
        syz = syzygy_module(_derlog_columns(d.h), d.order())
    out = []
    for s in syz:
        field = FreeElement(s.entries[:n])
        if field.is_zero():
            continue
        witness = -s.entries[n]
        out.append((field, witness))
    return out


def derlog_fields(d: Divisor) -> list:
    return [f for f, _ in derlog(d)]


def derlog_h(d: Divisor) -> list:
    """Generators of the module of fields annihilating the equation."""
    cols = [FreeElement([p]) for p in d.partials()]
    return syzygy_module(cols, d.order())


def euler_field(weights: Sequence[int], nvars: int) -> FreeElement:
    """The weighted radial field sum(w_i x_i d/dx_i)."""
    if len(weights) != nvars:
        raise DivisorError("one weight per variable required")
    if any(w <= 0 for w in weights):
        raise DivisorError("weights must be strictly positive")
    entries = [Poly.variable(nvars, i).scale(weights[i]) for i in range(nvars)]
    return FreeElement(entries)


def poly_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix: the full minor of its
    `minor_table`."""
    if not matrix:
        raise ModuleError("empty matrix has no determinant here")
    full = tuple(range(len(matrix)))
    return minor_table(matrix, matrix[0][0].nvars)(full, full)


def saito_check(d: Divisor, candidates: Sequence[FreeElement]):
    """Certify n candidate fields as a free basis: returns (LogBasis, None) on
    success and (None, reason) on failure."""
    n = d.nvars
    if len(candidates) != n:
        return None, f"need exactly {n} fields, got {len(candidates)}"
    witnesses = []
    for j, chi in enumerate(candidates):
        if chi.rank != n:
            return None, f"field {j} has rank {chi.rank}, expected {n}"
        try:
            witnesses.append(poly_exact_div(apply_field(chi, d.h), d.h))
        except PolyError:
            return None, f"field {j} is not logarithmic: chi(h) is not a multiple of h"
    theta_rows = [[candidates[j].entries[i] for j in range(n)] for i in range(n)]
    det = poly_det(theta_rows)
    if det.is_zero():
        return None, "determinant of the coefficient matrix vanishes"
    # With lc the coefficient at the largest exponent tuple, det = c * h for
    # a constant c exactly when det == (lc(det) / lc(h)) * h: if det = c * h,
    # the largest exponents agree and lc(det) = c * lc(h); the converse is
    # the equation itself.  The unit is nonzero because det is.
    h = d.h
    unit = Fraction(det.terms[max(det.terms)], h.terms[max(h.terms)])
    if det != h.scale(unit):
        return None, "determinant is not a nonzero constant times h"
    return LogBasis(d, [list(c.entries) for c in candidates], unit, witnesses), None


SUBSET_SEARCH_CAP = 4096


def _canonical_field_order(fields: list, order: MonomialOrder) -> list:
    """Sort fields by descending leading term (smallest packed lead first) so
    certificates are reproducible; fields with one lead keep their order."""
    layout = order.layout(fields[0].nvars)
    return sorted(fields, key=lambda f: min(map(layout.pack, f.vec())))


def _positive_certificate(d: Divisor, fields: list):
    """`saito_check` of the fields, with the first field negated when the
    certificate's unit comes out negative, so the unit is positive.  Negating
    a field negates its witness chi(h) / h and its column of the determinant,
    so the certificate is negated in place rather than checked again."""
    basis, reason = saito_check(d, fields)
    if basis is not None and basis.unit < 0:
        basis.theta[0] = [-c for c in basis.theta[0]]
        basis.witnesses[0] = -basis.witnesses[0]
        basis.unit = -basis.unit
    return basis, reason


def is_free(d: Divisor) -> FreenessVerdict:
    """Freeness test via minimal generators of the tangent-field module."""
    n = d.nvars
    order = d.order()
    fields = derlog_fields(d)
    w = d.semipositive_weights()
    degrees = None if w is None else _field_degrees([f.entries for f in fields], w)
    idx = minimal_generator_indices(fields, order, degrees)
    count = len(idx)
    if count < n:
        raise InternalInvariantError(
            f"tangent-field module reported {count} < {n} minimal generators")
    if count > n:
        return FreenessVerdict(FreenessVerdict.NOT_FREE, generator_count=count)
    chosen = _canonical_field_order([fields[i] for i in idx], order)
    basis, reason = _positive_certificate(d, chosen)
    if basis is not None:
        return FreenessVerdict(FreenessVerdict.FREE, basis=basis, generator_count=n)
    if w is not None and all(x > 0 for x in w):
        # Graded: n homogeneous generators of the rank-n module form a basis,
        # so by Saito's criterion their determinant is a unit times h.
        raise InternalInvariantError(
            f"the {n} minimal generators of a graded tangent-field module "
            f"fail Saito's criterion: {reason}")
    # Without positive weights: bounded search among the generator pool for a
    # determinant certificate.
    pool = sorted(range(len(fields)),
                  key=lambda i: (degrees[i] if degrees else 0, i))[:16]
    tried = 0
    for subset in combinations(pool, n):
        tried += 1
        if tried > SUBSET_SEARCH_CAP:
            break
        cand = _canonical_field_order([fields[i] for i in subset], order)
        basis, _ = _positive_certificate(d, cand)
        if basis is not None:
            return FreenessVerdict(FreenessVerdict.FREE, basis=basis, generator_count=n)
    return FreenessVerdict(FreenessVerdict.INCONCLUSIVE, generator_count=n,
                           reason=reason or "no determinant certificate found")


def log_form_generators(basis: LogBasis, k: int) -> list:
    """Generators of h times the k-th exterior power of the dual of the
    basis, as polynomial k-forms, one per index set I, from one minor table
    of the Saito matrix on term dicts: the dx_J-coefficient of the generator
    of I is (-1)^(sum I + sum J) times the minor on the rows off J and the
    columns off I, a `Poly` built only when it is nonzero.  For k = 0 the
    one generator is det = unit * h."""
    n = basis.n
    if k < 0 or k > n:
        raise ModuleError("form degree out of range")
    nv = basis.divisor.h.nvars
    minor = _minor_terms([[a.terms for a in row] for row in basis.matrix()], nv)
    zero = Poly.zero(nv)
    sides = [(tuple(i for i in range(n) if i not in I), sum(I) % 2) for I in form_basis(n, k)]
    gens = []
    for Ic, pI in sides:
        entries = []
        for Jc, pJ in sides:
            m = minor(Jc, Ic)
            if m and pI != pJ:
                m = {e: -c for e, c in m.items()}
            entries.append(Poly(nv, m) if m else zero)
        gens.append(FreeElement(entries))
    return gens
