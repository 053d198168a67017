"""The monomial and module term order, and its packed terms.

Monomials are compared by weighted degree reverse lexicographic order, all
weights 1 by default; all weights must be strictly positive so the order is a
well-order.  Module terms are compared position-over-term: component 0 has
the highest priority, ties are broken by the monomial order.

One basis takes another module order: the term-over-position order of a
graded module, by weighted degree plus the component's shift, then reverse
lexicographically, then by position (`MonomialOrder.layout` with `shifts`).
Under it the lead of a homogeneous element has the least exponent of the last
variable among all its terms, in every component, so the last variable
divides an element when it divides its lead; `forms.torsion_length`
saturates by that variable with one basis (Bayer-Stillman).  Under position
over term a later component may lack the last variable while the lead has it.

Inside the Groebner kernel a module term (component, exponent) is one int,
laid out by its order (`TermLayout`): comparing, multiplying by a monomial
and testing divisibility are each a few int operations.
"""

from __future__ import annotations

from operator import mul
from struct import Struct
from typing import Optional, Sequence


class OrderError(ValueError):
    pass


class StabilizationError(RuntimeError):
    """An iterative computation failed to stabilise within its configured
    bound, or a term left the bound of the packed exponent fields."""


class MonomialOrder:
    """Weighted degree reverse lexicographic order on the monomials of a
    fixed ring: a total, multiplicative well-order."""

    __slots__ = ("weights",)

    def __init__(self, weights: Optional[Sequence[int]] = None):
        self.weights = tuple(weights) if weights is not None else None
        if self.weights is not None and any(w <= 0 for w in self.weights):
            raise OrderError("order weights must be strictly positive")

    def with_nvars(self, n: int) -> "MonomialOrder":
        if self.weights is None:
            return MonomialOrder((1,) * n)
        if len(self.weights) != n:
            raise OrderError("weight vector length does not match variable count")
        return self

    def layout(self, nvars: int, rank: Optional[int] = None,
               shifts: Optional[Sequence[int]] = None) -> "TermLayout":
        """The packed terms of this order over nvars variables, position over
        term.  With shifts, one per component, those of the term-over-position
        order of a graded module: weighted degree plus the component's shift
        first, then the monomial order, then position.  With rank, those of
        the elimination order of a stacked module
        O^rank + O^s, in which every head term (below component rank) is
        greater than every tag term (from rank on).  Tags compare position
        over term.  Heads compare by weighted degree first, then by position,
        then by the monomial order.  For homogeneous input whose head
        components share one shift this is position over term; for other
        input, pure position over term would let one reduction step bring in
        terms of ever higher degree in later head components, and on random
        inhomogeneous colons it made Buchberger's algorithm a thousand times
        slower."""
        return TermLayout(self.with_nvars(nvars).weights, rank, shifts)

    def __repr__(self):
        return f"MonomialOrder({self.weights!r})"


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# packed terms

FIELD_BITS = 15
FIELD_MAX = (1 << FIELD_BITS) - 1
_STRIDE = FIELD_BITS + 1  # two bytes: a field and its guard bit


def field_overflow() -> StabilizationError:
    return StabilizationError(f"a term left the packed exponent fields: an exponent or "
                              f"weighted degree above {FIELD_MAX}")


class TermLayout:
    """Module terms (component, exponent) of one order packed into ints.

    The int holds the quantities that decide the order as fields of
    FIELD_BITS bits, the one compared first in the most significant field,
    each field topped by a guard bit that a valid term leaves clear.  A
    quantity q that is larger on a greater term is held as FIELD_MAX - q,
    and one that is smaller on a greater term as q, so a smaller int is a
    greater term.  Every field is affine in the exponent, so multiplying a
    term by x^s adds one int, the difference of two terms that differ by x^s
    (`shifts`); a shifted term that leaves a field sets that field's guard
    bit, so it never aliases a valid term.

    Fields from the most significant: the component (position over term),
    the weighted degree, then e_{n-1}, ..., e_0 as they are (of two terms of
    one degree, the greater has the smaller exponent in the last variable
    where they differ).  With `rank` the layout is that of an elimination
    order (`MonomialOrder.layout`): above the component, head terms
    (component below rank) carry the degree field again and tag terms a set
    flag above that, so every head term is greater than every tag term.  A
    tag term keeps that upper degree field at zero, so it shifts without it
    (`shifts`).  With `shifts` it is that of term over position: the
    weighted degree plus the component's shift, then e_{n-1}, ..., e_0, then
    the component in the lowest field.  A shift is the same int in every
    component, since the component's shift and field cancel.

    Divisibility within one component: x^a divides x^b when no exponent
    field of b is below that of a, that is when b with every guard bit set,
    less a, keeps every exponent guard bit (`divides`): the subtraction
    borrows from a field's own guard bit exactly when the field is short,
    and never across fields, since every guard bit of the minuend is set.
    """

    __slots__ = ("nvars", "weights", "rank", "comp_shift", "guards", "exponent_guards",
                 "mono_mask", "tag_start", "low", "_weights", "_shifts", "_exp_shift", "_fields",
                 "_comp_field", "_exps")

    def __init__(self, weights: Sequence[int], rank: Optional[int] = None,
                 shifts: Optional[Sequence[int]] = None):
        """weights: those of the weighted degree, one per variable; shifts:
        those of the components, for term over position."""
        self.nvars = nvars = len(weights)
        self.weights = tuple(weights)
        # a degree under unit weights is a plain sum
        self._weights = None if set(weights) <= {1} else tuple(weights)
        self._shifts = None if shifts is None else tuple(shifts)
        self.rank = FIELD_MAX + 1 if rank is None else rank
        if shifts is not None:  # degree, exponents, component
            nfields = nvars + 2
            self.comp_shift = 0
            self._exp_shift = _STRIDE
            self.low = (1 << (nfields * _STRIDE)) - 1
            self.mono_mask = self.low ^ ((1 << _STRIDE) - 1)
            self.tag_start = self.low + 1
        else:  # [flag, degree,] component, degree, exponents
            nfields = nvars + (2 if rank is None else 4)
            self.comp_shift = (nvars + 1) * _STRIDE
            self._exp_shift = 0
            self.mono_mask = (1 << self.comp_shift) - 1
            self.low = (1 << (self.comp_shift + _STRIDE)) - 1
            self.tag_start = 1 << (self.comp_shift + (_STRIDE if rank is None else 2 * _STRIDE))
        self.guards = sum(1 << (j * _STRIDE + FIELD_BITS) for j in range(nfields))
        self.exponent_guards = sum(1 << (j * _STRIDE + FIELD_BITS + self._exp_shift)
                                   for j in range(nvars))
        self._fields = Struct(f">{nfields}H")  # most significant first
        self._comp_field = nfields - 1 - self.comp_shift // _STRIDE
        e0 = nfields - 1 - self._exp_shift // _STRIDE
        self._exps = slice(e0, e0 - nvars, -1)

    def pack(self, term: tuple) -> int:
        """The int of a term, its fields shifted in from the most significant;
        raises `StabilizationError` when a field of the term does not fit."""
        comp, e = term
        w = self._weights
        degree = sum(e) if w is None else sum(map(mul, e, w))
        shifts = self._shifts
        if shifts is not None:
            degree += shifts[comp]
        if comp > FIELD_MAX or degree > FIELD_MAX:  # every exponent is at most the degree
            raise field_overflow()
        if shifts is not None:
            p = 0
        elif self.rank <= FIELD_MAX:  # an elimination order: flag and degree first
            if comp < self.rank:
                p = (FIELD_MAX - degree) << _STRIDE | comp
            else:
                p = 1 << (2 * _STRIDE) | comp
        else:
            p = comp
        p = p << _STRIDE | (FIELD_MAX - degree)
        for x in reversed(e):
            p = p << _STRIDE | x
        return p if shifts is None else p << _STRIDE | comp

    def unpack(self, p: int) -> tuple:
        fields = self._fields
        f = fields.unpack(p.to_bytes(fields.size, "big"))
        return f[self._comp_field], f[self._exps]

    def component(self, p: int) -> int:
        return (p >> self.comp_shift) & FIELD_MAX

    def degree(self, p: int) -> int:
        """The weighted degree of the term p, plus its component's shift under
        term over position: the field above the exponents."""
        return FIELD_MAX - ((p >> (self.nvars * _STRIDE + self._exp_shift)) & FIELD_MAX)

    def exponent(self, p: int, v: int) -> int:
        """The exponent of variable v in the term p."""
        return (p >> (v * _STRIDE + self._exp_shift)) & FIELD_MAX

    def shifts(self, t: int, lead: int) -> tuple:
        """(head shift, tag shift) that multiply a term by x^s, where t is
        x^s times lead, in the same component.  The tag shift leaves out the
        upper degree field, which only head terms carry; the component
        fields of t and lead cancel in both."""
        return t - lead, (t & self.low) - (lead & self.low)

    def divides(self, a: int, b: int) -> bool:
        """True when the term a divides the term b of the same component."""
        g = self.exponent_guards
        return ((b | self.guards) - a) & g == g
