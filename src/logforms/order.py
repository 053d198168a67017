"""Monomial and module term orders.

Module terms are compared position-over-term: component 0 has the highest
priority, ties are broken by the scalar monomial order.  Scalar orders are
weighted degree-reverse-lexicographic (default, all weights 1) and pure
lexicographic; all weights must be strictly positive so the orders are
well-orders.
"""

from __future__ import annotations

from operator import add, le, mul, sub
from typing import Optional, Sequence


class OrderError(ValueError):
    pass


class MonomialOrder:
    """A total, multiplicative well-order on monomials of a fixed ring."""

    __slots__ = ("kind", "weights")

    def __init__(self, kind: str = "wdegrevlex", weights: Optional[Sequence[int]] = None):
        if kind not in ("wdegrevlex", "lex"):
            raise OrderError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.weights = tuple(weights) if weights is not None else None
        if self.weights is not None and any(w <= 0 for w in self.weights):
            raise OrderError("order weights must be strictly positive")

    def with_nvars(self, n: int) -> "MonomialOrder":
        if self.weights is not None and len(self.weights) != n:
            raise OrderError("weight vector length does not match variable count")
        if self.kind == "wdegrevlex" and self.weights is None:
            return MonomialOrder("wdegrevlex", (1,) * n)
        return self

    def mono_key(self, e: tuple):
        """Sort key; larger key means larger monomial."""
        if self.kind == "lex":
            return e
        w = self.weights
        deg = sum(map(mul, e, w)) if w is not None else sum(e)
        return (deg, *[-x for x in reversed(e)])

    def term_key(self, term: tuple):
        """Key for a module term (component, exponent); larger = greater."""
        comp, e = term
        return (-comp, *self.mono_key(e))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"MonomialOrder({self.kind!r}, {self.weights!r})"


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))
