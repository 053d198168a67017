"""Exact exterior algebra on polynomial coefficients.

Degree-k forms on an n-variable ring are FreeElements of rank C(n, k); the
component basis is the list of strictly increasing index tuples in
lexicographic order (dx_I for I = (i_1 < ... < i_k)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .module import FreeElement, ModuleError
from .poly import Poly


@lru_cache(maxsize=None)
def form_basis(n: int, k: int) -> tuple:
    """Index tuples of the dx_I basis of k-forms, lexicographic."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def form_index(n: int, k: int) -> dict:
    return {I: pos for pos, I in enumerate(form_basis(n, k))}


def form_rank(n: int, k: int) -> int:
    return len(form_basis(n, k))


def zero_form(n: int, k: int, nvars: int) -> FreeElement:
    return FreeElement.zero(max(form_rank(n, k), 1), nvars)


def merge_sign(I: tuple, J: tuple):
    """Sign of sorting the concatenation I+J; None when indices overlap."""
    if set(I) & set(J):
        return None, None
    inversions = sum(1 for i in I for j in J if j < i)
    merged = tuple(sorted(I + J))
    return (-1) ** inversions, merged


def wedge(n: int, ka: int, a: FreeElement, kb: int, b: FreeElement) -> FreeElement:
    """Exterior product of a k_a-form and a k_b-form."""
    k = ka + kb
    nv = a.nvars
    if k > n:
        return zero_form(n, k, nv)
    basis_a = form_basis(n, ka)
    basis_b = form_basis(n, kb)
    idx = form_index(n, k)
    out = [Poly.zero(nv) for _ in range(form_rank(n, k))]
    for pa, I in enumerate(basis_a):
        ca = a.entries[pa]
        if ca.is_zero():
            continue
        for pb, J in enumerate(basis_b):
            cb = b.entries[pb]
            if cb.is_zero():
                continue
            sign, merged = merge_sign(I, J)
            if sign is None:
                continue
            term = ca * cb
            if sign < 0:
                term = -term
            pos = idx[merged]
            out[pos] = out[pos] + term
    return FreeElement(out)


def d_term(n: int, I: tuple, e: tuple) -> dict:
    """The exterior derivative of the single term x^e dx_I, as an integer vec
    {(position of dx_J among the (k+1)-forms, exponent): coefficient}:

        d(x^e dx_I) = sum over v not in I with e_v > 0 of
                      (-1)^#{i in I : i < v} * e_v * x^(e - e_v) dx_(I + v),

    the sign being that of moving dx_v past the dx_i of I with i < v (as
    `merge_sign((v,), I)` gives it).  Only the first n variables are
    differentiated."""
    idx = form_index(n, len(I) + 1)
    out = {}
    for v in range(n):
        ev = e[v]
        if not ev or v in I:
            continue
        below = sum(1 for i in I if i < v)
        J = I[:below] + (v,) + I[below:]
        out[(idx[J], e[:v] + (ev - 1,) + e[v + 1:])] = -ev if below % 2 else ev
    return out


def ext_d(n: int, k: int, a: FreeElement) -> FreeElement:
    """Exterior derivative of a k-form: `d_term` summed over its terms."""
    nv = a.nvars
    if k >= n:
        return zero_form(n, k + 1, nv)
    basis = form_basis(n, k)
    out: dict = {}
    for (pos, e), c in a.vec().items():
        for t, v in d_term(n, basis[pos], e).items():
            s = out.get(t, 0) + c * v
            if s:
                out[t] = s
            else:
                del out[t]
    return FreeElement.from_vec(form_rank(n, k + 1), nv, out)


def contract(n: int, k: int, field: FreeElement, a: FreeElement) -> FreeElement:
    """Interior product of a k-form with a vector field (rank-n element)."""
    if field.rank != n:
        raise ModuleError("vector field must have one component per variable")
    nv = a.nvars
    if k == 0:
        return FreeElement.zero(1, nv)
    basis = form_basis(n, k)
    idx = form_index(n, k - 1)
    out = [Poly.zero(nv) for _ in range(form_rank(n, k - 1))]
    for pos, I in enumerate(basis):
        c = a.entries[pos]
        if c.is_zero():
            continue
        for p, i in enumerate(I):
            coeff = field.entries[i]
            if coeff.is_zero():
                continue
            rest = I[:p] + I[p + 1:]
            term = c * coeff
            if p % 2 == 1:
                term = -term
            out[idx[rest]] = out[idx[rest]] + term
    return FreeElement(out)


def minor_table(matrix: Sequence[Sequence[Poly]], nvars: int):
    """The minors of a polynomial matrix, memoised for the table's lifetime.

    Returns minor(rows, cols): the determinant of the submatrix with the given
    rows and columns in the order given, by Laplace expansion along the first
    listed row; minor((), ()) = 1.
    """
    cache: dict = {}

    def minor(rows: tuple, cols: tuple) -> Poly:
        if not rows:
            return Poly.constant(nvars, 1)
        key = (rows, cols)
        if key not in cache:
            row = matrix[rows[0]]
            acc = Poly.zero(nvars)
            for pos, c in enumerate(cols):
                a = row[c]
                if a.is_zero():
                    continue
                term = a * minor(rows[1:], cols[:pos] + cols[pos + 1:])
                if pos % 2 == 1:
                    term = -term
                acc = acc + term
            cache[key] = acc
        return cache[key]

    return minor


def pullback(k: int, target_n: int, form: FreeElement, components: Sequence[Poly],
             source_n: int) -> FreeElement:
    """Pull a k-form on the target back along the map with the given components.

    `form` has rank C(target_n, k) with coefficients in the target ring;
    `components` are target coordinates expressed in source-ring polynomials.
    The pullback of dy_J is the sum over I of the (J, I) minor of the
    Jacobian times dx_I.
    """
    if len(components) != target_n:
        raise ModuleError("one component per target variable required")
    nv = source_n if not components else components[0].nvars
    minor = minor_table([[f.derivative(v) for v in range(source_n)] for f in components], nv)
    source_basis = form_basis(source_n, k)
    out = [Poly.zero(nv) for _ in range(max(len(source_basis), 1))]
    for pos, J in enumerate(form_basis(target_n, k)):
        c = form.entries[pos]
        if c.is_zero():
            continue
        pulled_c = c.compose(list(components))
        if pulled_c.is_zero():
            continue
        for q, I in enumerate(source_basis):
            m = minor(J, I)
            if not m.is_zero():
                out[q] = out[q] + pulled_c * m
    return FreeElement(out)


def monomial_form(n: int, k: int, nvars: int, I: tuple, coeff: Poly) -> FreeElement:
    entries = [Poly.zero(nvars) for _ in range(form_rank(n, k))]
    entries[form_index(n, k)[I]] = coeff
    return FreeElement(entries)
