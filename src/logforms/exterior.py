"""Exact exterior algebra on polynomial coefficients.

Degree-k forms on an n-variable ring are FreeElements of rank C(n, k); the
component basis is the list of strictly increasing index tuples in
lexicographic order (dx_I for I = (i_1 < ... < i_k)).

The arithmetic is the term-dict layer of `poly` (`_add_product`,
`_add_scaled`, `_derivative_terms`): each entry of a wedge, contraction or
derivative is built in one dict.  Minors and compositions with a map run it
on the terms of their `Poly` inputs as they are, so an integral input is
worked on in ints and only a rational one brings `Fraction`s in; a `Poly` is
built only for a result handed back.  A minor table and the memo of composed
monomials that `pullback` keeps live for one table or one call, never
longer.  A minor table reads the support of each row and each column once,
and expands a minor along its line (row or column) with the fewest nonzero
entries on it: a minor with a line that has none is zero without
expansion, so of the C(n, k)^2 minors of size k of a diagonal matrix (the
Saito matrix of normal crossing) only the C(n, k) principal ones are
expanded.  `pullback` only composes; pulled-back forms are minors of
A = [S o F | dF] (`forms`).
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .module import FreeElement, ModuleError
from .poly import Poly, _add_product, _add_scaled


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
    basis_b = form_basis(n, kb)
    idx = form_index(n, k)
    out = [{} for _ in range(form_rank(n, k))]
    for I, ca in zip(form_basis(n, ka), a.entries):
        if not ca.terms:
            continue
        for J, cb in zip(basis_b, b.entries):
            if cb.terms:
                sign, merged = merge_sign(I, J)
                if sign is not None:
                    _add_product(out[idx[merged]], ca.terms, cb.terms, sign)
    return FreeElement([Poly(nv, t) for t in out])


@lru_cache(maxsize=None)
def d_rule(n: int, k: int) -> tuple:
    """Per basis k-form dx_I, the triples (v, position of dx_(I + v), sign)
    over the v < n not in I: d(x^e dx_I) sums sign * e_v * x^(e - e_v) dx_(I + v)
    over them, the sign (-1)^#{i in I : i < v} of moving dx_v past them."""
    idx = form_index(n, k + 1)
    return tuple(tuple((v, idx[tuple(sorted(I + (v,)))], (-1) ** sum(i < v for i in I))
                       for v in range(n) if v not in I) for I in form_basis(n, k))


def d_term(n: int, I: tuple, e: tuple) -> dict:
    """d(x^e dx_I) by `d_rule`, as an integer vec {(position of dx_J among
    the (k+1)-forms, exponent): coefficient}."""
    return {(J, e[:v] + (e[v] - 1,) + e[v + 1:]): sign * e[v]
            for v, J, sign in d_rule(n, len(I))[form_index(n, len(I))[I]] if e[v]}


def d_packed(n: int, k: int, layout):
    """`d_term` of one packed term of a `TermLayout`, as a packed vec.  A
    packed field is affine in the exponent, so each term of d(t) is t plus
    an int fixed by dx_I and v (that of x^0 dx_J less that of x_v dx_I)."""
    zero = (0,) * layout.nvars
    moves = [[(v, layout.pack((J, zero)) - layout.pack((I, zero[:v] + (1,) + zero[v + 1:])), sign)
              for v, J, sign in rule] for I, rule in enumerate(d_rule(n, k))]
    component, exponent = layout.component, layout.exponent
    return lambda t: {t + move: sign * e for v, move, sign in moves[component(t)]
                      if (e := exponent(t, v))}


def ext_d(n: int, k: int, a: FreeElement) -> FreeElement:
    """Exterior derivative of a k-form: `d_term` summed over its terms."""
    nv = a.nvars
    if k >= n:
        return zero_form(n, k + 1, nv)
    basis = form_basis(n, k)
    out: dict = {}
    for (pos, e), c in a.vec().items():
        _add_scaled(out, c, d_term(n, basis[pos], e))
    return FreeElement.from_vec(form_rank(n, k + 1), nv, out)


def contract(n: int, k: int, field: FreeElement, a: FreeElement) -> FreeElement:
    """Interior product of a k-form with a vector field (rank-n element)."""
    if field.rank != n:
        raise ModuleError("vector field must have one component per variable")
    nv = a.nvars
    if k == 0:
        return FreeElement.zero(1, nv)
    idx = form_index(n, k - 1)
    out = [{} for _ in range(form_rank(n, k - 1))]
    for I, c in zip(form_basis(n, k), a.entries):
        if not c.terms:
            continue
        for p, i in enumerate(I):
            _add_product(out[idx[I[:p] + I[p + 1:]]], c.terms, field.entries[i].terms,
                         -1 if p % 2 else 1)
    return FreeElement([Poly(nv, t) for t in out])


def _minor_terms(matrix: Sequence[Sequence[dict]], nvars: int):
    """`minor_table` over a matrix of term dicts, giving term dicts, which the
    caller must not change.  The support of each row (the columns of its
    nonzero entries) and of each column is one bitmask, so the entries a
    line has on a minor are counted by one mask and one popcount.  A minor
    is expanded along the line with the fewest (a row on a tie, then the
    first); one with a line that has none is the shared empty dict."""
    one = {(0,) * nvars: 1}
    zero: dict = {}
    row_support = []
    col_support = [0] * max(map(len, matrix), default=0)
    for r, row in enumerate(matrix):
        support = 0
        for c, a in enumerate(row):
            if a:
                support |= 1 << c
                col_support[c] |= 1 << r
        row_support.append(support)
    cache: dict = {}

    def minor(rows: tuple, cols: tuple) -> dict:
        if not rows:
            return one
        key = (rows, cols)
        m = cache.get(key)
        if m is None:
            cmask = 0
            for c in cols:
                cmask |= 1 << c
            # the sparsest row, and whether the rows leave a column empty
            best, at, covered = len(cols) + 1, 0, 0
            for q, r in enumerate(rows):
                s = row_support[r] & cmask
                count = s.bit_count()
                if count < best:
                    best, at = count, q
                    if not count:
                        break
                covered |= s
            by_column = False
            if best > 1 and covered == cmask:
                rmask = 0
                for r in rows:
                    rmask |= 1 << r
                for p, c in enumerate(cols):
                    count = (col_support[c] & rmask).bit_count()
                    if count < best:
                        best, at, by_column = count, p, True
            if not best or covered != cmask:
                m = zero
            else:
                m = {}
                sub = minor_ref()
                if by_column:
                    c, rest = cols[at], cols[:at] + cols[at + 1:]
                    for q, r in enumerate(rows):
                        a = matrix[r][c]
                        if a:
                            _add_product(m, a, sub(rows[:q] + rows[q + 1:], rest),
                                         -1 if (q + at) % 2 else 1)
                else:
                    row, rest = matrix[rows[at]], rows[:at] + rows[at + 1:]
                    for p, c in enumerate(cols):
                        a = row[c]
                        if a:
                            _add_product(m, a, sub(rest, cols[:p] + cols[p + 1:]),
                                         -1 if (p + at) % 2 else 1)
            cache[key] = m
        return m

    # A weak self-reference keeps the closure out of a reference cycle, so
    # the cache is freed at the table's last use, not at a later collection.
    minor_ref = weakref.ref(minor)
    return minor


def minor_table(matrix: Sequence[Sequence[Poly]], nvars: int):
    """The minors of a polynomial matrix, memoised for the table's lifetime.

    Returns minor(rows, cols): the determinant of the submatrix with the given
    rows and columns in the order given, by Laplace expansion along the line
    of that submatrix with the fewest nonzero entries; minor((), ()) = 1.  A
    minor with a row or a column that is zero throughout is zero, and is
    returned without being expanded, so a sparse matrix, a diagonal one
    above all, expands few of its minors.  The expansion runs on the term
    dicts of the entries (`_minor_terms`), in ints where they are integral;
    a `Poly` is built only for a minor asked for.
    """
    minor = _minor_terms([[a.terms for a in row] for row in matrix], nvars)
    return lambda rows, cols: Poly(nvars, minor(rows, cols))


def pullback(polys: Sequence[Poly], components: Sequence[Poly]) -> list:
    """Compose polynomials on the target with the map whose components are
    given: p o F for each p in polys, in the order given, each p in the
    target ring of m = len(components) variables and each result in the
    components' ring.

    All polynomials share one memo of composed monomials, x^e o F =
    (x^(e - e_i) o F) * F_i for the first i with e_i > 0, living for this
    call only.  The arithmetic runs on the term dicts of the inputs, ints
    where they are integral and `Fraction`s otherwise: ints and Fractions
    add and multiply exactly with each other, so every coefficient is the
    exact rational one, and a `Poly` is built only for each result.
    """
    m = len(components)
    nv = components[0].nvars
    comps = [f.terms for f in components]
    composed = {(0,) * m: {(0,) * nv: 1}}

    def compose(e: tuple) -> dict:
        # Walk e down to an exponent already in the memo, then multiply back
        # up, so a high power costs no recursion depth.
        chain = []
        got = composed.get(e)
        while got is None:
            i = next(i for i, a in enumerate(e) if a)
            chain.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
            got = composed.get(e)
        for e, i in reversed(chain):
            got = _add_product({}, got, comps[i])
            composed[e] = got
        return got

    out = []
    for p in polys:
        if p.nvars != m:
            raise ModuleError("one component per target variable required")
        pulled: dict = {}
        for e, a in p.terms.items():
            _add_scaled(pulled, a, compose(e))
        out.append(Poly(nv, pulled))
    return out


def wedge_unit(n: int, k: int, a: FreeElement, M: tuple) -> FreeElement:
    """a ^ dx_M for a k-form a: a signed re-indexing of a's entries, the dx_I
    entry moving to dx_(I + M) with the sign of `merge_sign(I, M)`."""
    nv = a.nvars
    idx = form_index(n, k + len(M))
    entries = [Poly.zero(nv)] * max(form_rank(n, k + len(M)), 1)
    for I, c in zip(form_basis(n, k), a.entries):
        if c.is_zero():
            continue
        sign, merged = merge_sign(I, M)
        if sign is not None:
            entries[idx[merged]] = c if sign > 0 else -c
    return FreeElement(entries)
