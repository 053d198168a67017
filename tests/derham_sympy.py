"""A second implementation of the `derham` count, in sympy alone: nothing here
reads the package.

For hyperplanes F_1, ..., F_m on C^n pulled back from the normal crossing
divisor w_1 * ... * w_m, whose Saito matrix is diag(w_1, ..., w_m), the
matrix A = [S o F | dF] is diag(F_1, ..., F_m) beside the m x n matrix of
the coefficient rows.  The top relations R_n are the ideal of its maximal
minors, and the count is dim Q[x] / R_n: the standard monomials of the
reduced grevlex Groebner basis of those minors.
"""

from itertools import combinations, product

import sympy


def derham_count(rows) -> int:
    """dim Q[x] / I_m(A) for the hyperplanes with the given integer
    coefficient rows; raises ValueError when the quotient is infinite."""
    n, m = len(rows[0]), len(rows)
    xs = sympy.symbols(f"x1:{n + 1}")
    forms = [sum(c * x for c, x in zip(r, xs)) for r in rows]
    a = sympy.Matrix(m, m + n, lambda i, j: (forms[i] if i == j else 0) if j < m
                     else rows[i][j - m])
    minors = [sympy.expand(a.extract(list(range(m)), list(cols)).det(method="berkowitz"))
              for cols in combinations(range(m + n), m)]
    basis = sympy.groebner([f for f in minors if f != 0], *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    powers = {e.index(max(e)): max(e) for e in leads if sum(map(bool, e)) == 1}
    if (0,) * n not in leads and len(powers) < n:
        raise ValueError("the quotient is infinite")
    box = [range(powers.get(v, 1)) for v in range(n)]
    return sum(1 for e in product(*box)
               if not any(all(a <= b for a, b in zip(lead, e)) for lead in leads))
