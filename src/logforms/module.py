"""Elements of free modules over the polynomial ring and finite presentations."""

from __future__ import annotations

from typing import Optional, Sequence

from .poly import Poly, PolyError


class ModuleError(ValueError):
    pass


class FreeElement:
    """An element of the free module O^rank, stored as one Poly per component."""

    __slots__ = ("rank", "entries")

    def __init__(self, entries: Sequence[Poly]):
        if not entries:
            raise ModuleError("a free element needs at least one component")
        nv = entries[0].nvars
        for p in entries:
            if p.nvars != nv:
                raise PolyError("components live in different rings")
        self.entries = tuple(entries)
        self.rank = len(self.entries)

    @property
    def nvars(self) -> int:
        return self.entries[0].nvars

    @staticmethod
    def zero(rank: int, nvars: int) -> "FreeElement":
        return FreeElement([Poly.zero(nvars)] * rank)

    @staticmethod
    def unit(rank: int, nvars: int, comp: int, coeff=1) -> "FreeElement":
        entries = [Poly.zero(nvars)] * rank
        entries[comp] = Poly.constant(nvars, coeff)
        return FreeElement(entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if self.rank != other.rank:
            raise ModuleError("rank mismatch")
        return FreeElement([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        if self.rank != other.rank:
            raise ModuleError("rank mismatch")
        return FreeElement([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "FreeElement":
        return FreeElement([-a for a in self.entries])

    def scale(self, p) -> "FreeElement":
        """Multiply by a Poly or an exact scalar."""
        if isinstance(p, Poly):
            return FreeElement([p * a for a in self.entries])
        return FreeElement([a.scale(p) for a in self.entries])

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeElement) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def vec(self) -> dict:
        """Flatten into {(component, exponent): coefficient}."""
        out: dict = {}
        for c, p in enumerate(self.entries):
            for e, v in p.terms.items():
                out[(c, e)] = v
        return out

    @staticmethod
    def from_vec(rank: int, nvars: int, vec: dict) -> "FreeElement":
        per_comp: list = [dict() for _ in range(rank)]
        for (c, e), v in vec.items():
            if v:
                per_comp[c][e] = v
        return FreeElement([Poly(nvars, t) for t in per_comp])

    def weighted_degree(self, weights: Sequence[int], shifts: Optional[Sequence[int]] = None):
        degs = set()
        for c, p in enumerate(self.entries):
            sh = shifts[c] if shifts is not None else 0
            for e in p.terms:
                degs.add(sh + sum(a * w for a, w in zip(e, weights)))
        if not degs:
            return None
        return degs

    def is_homogeneous(self, weights: Sequence[int], shifts: Optional[Sequence[int]] = None) -> bool:
        degs = self.weighted_degree(weights, shifts)
        return degs is None or len(degs) == 1

    def format(self, names: Sequence[str]) -> str:
        return "(" + ", ".join(p.format(names) for p in self.entries) + ")"

    def __repr__(self):
        return f"FreeElement({list(self.entries)!r})"


class Grading:
    """Positive variable weights plus one integer shift per free generator."""

    __slots__ = ("weights", "shifts")

    def __init__(self, weights: Sequence[int], shifts: Sequence[int]):
        if any(w <= 0 for w in weights):
            raise ModuleError("grading weights must be strictly positive")
        self.weights = tuple(weights)
        self.shifts = tuple(shifts)

    def __eq__(self, other):
        return (
            isinstance(other, Grading)
            and self.weights == other.weights
            and self.shifts == other.shifts
        )

    def __repr__(self):
        return f"Grading(weights={self.weights}, shifts={self.shifts})"


class ModulePresentation:
    """A finitely presented module: cokernel of the relation columns in O^rank."""

    def __init__(
        self,
        rank: int,
        relations: Sequence[FreeElement],
        grading: Optional[Grading] = None,
        nvars: Optional[int] = None,
    ):
        self.rank = rank
        self.relations = list(relations)
        for r in self.relations:
            if r.rank != rank:
                raise ModuleError("relation rank does not match cover rank")
        if self.relations:
            self.nvars = self.relations[0].nvars
        elif nvars is not None:
            self.nvars = nvars
        else:
            raise ModuleError("empty presentation needs an explicit variable count")
        self.grading = grading
        if grading is not None:
            if len(grading.shifts) != rank:
                raise ModuleError("one grading shift per generator required")
            for r in self.relations:
                if not r.is_homogeneous(grading.weights, grading.shifts):
                    raise ModuleError("relations must be homogeneous for the given grading")

    def __repr__(self):
        return f"ModulePresentation(rank={self.rank}, {len(self.relations)} relations)"


INFINITE = "INFINITE"
