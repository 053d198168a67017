"""Sparse multivariate polynomials over exact rationals, and the one layer
of exact term-dict arithmetic that every module shares.

Every coefficient of a `Poly` is an exact rational in one canonical form: an
`int` when it is integral and a `fractions.Fraction` only when it is not,
never a float and never an integral `Fraction`.  There is no floating point
anywhere in the package.  Exponent vectors are tuples of non-negative
integers, one entry per ambient variable.

Below `Poly` sit the term-dict helpers: `_add_scaled`, `_add_product` and
`_derivative_terms` add, multiply and differentiate dicts {key: coefficient}
in place or into one new dict, `_integral` and `_normalize` clear
denominators and content, and `_rational` divides an int dict back out.
Their coefficients may be ints, `Fraction`s or a mix (Python adds and
multiplies them exactly with each other), so an integral input is worked on
in ints throughout, by `Poly`'s operators, minors, pullbacks, `apply_field`
and the Groebner kernel alike; a `Fraction` enters only with a denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import comb, gcd as int_gcd, lcm
from operator import add, sub
from typing import Iterable, Mapping, Optional, Sequence


Exponent = tuple  # tuple[int, ...]


class PolyError(ValueError):
    """Raised on malformed polynomial input or mismatched variable lists."""


def _exact(c):
    """c in the canonical form of a coefficient: an int when integral, else
    a `Fraction`; anything but an int or a `Fraction` is refused."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise PolyError(f"coefficient {c!r} is not an exact rational")


def _add_scaled(out: dict, scale, b: dict) -> dict:
    """out += scale * b on term dicts (or vecs), dropping cancelled terms;
    returns out.  A scale of 1 multiplies nothing: a `Fraction` times 1
    costs as much as any other product."""
    one = scale == 1
    for e, c in b.items():
        s = out.get(e, 0) + (c if one else scale * c)
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _add_product(out: dict, a: dict, b: dict, scale=1) -> dict:
    """out += scale * a * b on term dicts, dropping cancelled terms; returns out."""
    for e1, c1 in a.items():
        c1 *= scale
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _derivative_terms(terms: dict, v: int) -> dict:
    """d/dx_v of a term dict."""
    return {e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v] for e, c in terms.items() if e[v]}


def _integral(vec: dict):
    """(D * vec, D) for the least positive D that makes every coefficient of
    a rational vec an int: (vec itself, 1) when every coefficient is one."""
    denom, ints = 1, True
    for c in vec.values():
        if type(c) is not int:
            ints = False
            d = c.denominator
            if d != 1:
                denom = denom * d // int_gcd(denom, d)
    if ints:
        return vec, 1
    return {t: c.numerator * (denom // c.denominator) for t, c in vec.items()}, denom


def _rational(vec: dict, denom: int) -> dict:
    """The int vec divided by the positive int denom, each coefficient
    canonical (`_exact`): vec itself when denom is 1."""
    if denom == 1:
        return vec
    return {t: c // denom if not c % denom else Fraction(c, denom) for t, c in vec.items()}


def _normalize(vec: dict, lc: int) -> dict:
    """Divide an integer vec by its content, so its coefficients are coprime
    integers and the lead coefficient (`lc`, the current one) is positive.
    The content is read only until it reaches 1."""
    content = 0
    for c in vec.values():
        content = int_gcd(content, c)
        if content == 1:
            break
    if lc < 0:
        content = -content
    if content == 1:
        return vec
    return {t: c // content for t, c in vec.items()}


class Poly:
    """A polynomial stored as a map from exponent vectors to nonzero exact
    rationals, each an int when integral and a `Fraction` otherwise."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object] | None = None):
        self.nvars = nvars
        clean: dict = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise PolyError("exponent vector length does not match variable count")
                if type(c) is not int:
                    c = _exact(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly(nvars, {tuple([0] * nvars): c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): 1})

    @staticmethod
    def monomial(nvars: int, expo: Sequence[int], c=1) -> "Poly":
        return Poly(nvars, {tuple(expo): c})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self):
        """The coefficient of the constant monomial (0 if absent)."""
        return self.terms.get(tuple([0] * self.nvars), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def weighted_degree(self, weights: Sequence[int]) -> int:
        if not self.terms:
            return -1
        return max(sum(a * w for a, w in zip(e, weights)) for e in self.terms)

    def is_homogeneous(self, weights: Sequence[int]) -> bool:
        degs = {sum(a * w for a, w in zip(e, weights)) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _of(nvars: int, terms: dict) -> "Poly":
        """A Poly holding `terms`, nonzero canonical coefficients, as they are."""
        r = Poly.__new__(Poly)
        r.nvars, r.terms = nvars, terms
        return r

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise PolyError("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.nvars, _add_scaled(dict(self.terms), 1, other.terms))

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.nvars, _add_scaled(dict(self.terms), -1, other.terms))

    def __mul__(self, other) -> "Poly":
        """The product, multiplied out on int term dicts: a factor with a
        denominator has them cleared once (`_integral`) and the product is
        divided back by theirs (`_rational`), since an int product costs a
        fraction of a `Fraction` one."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        a, da = _integral(self.terms)
        b, db = _integral(other.terms)
        return Poly._of(self.nvars, _rational(_add_product({}, a, b), da * db))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _exact(c)
        if c == 0:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PolyError("negative exponent")
        result = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus and substitution --------------------------------------

    def derivative(self, i: int) -> "Poly":
        return Poly(self.nvars, _derivative_terms(self.terms, i))

    def set_vars_zero(self, indices: Iterable[int]) -> "Poly":
        """Substitute 0 for the given variables (ring unchanged)."""
        kill = set(indices)
        t: dict = {}
        for e, c in self.terms.items():
            if all(e[i] == 0 for i in kill):
                t[e] = t.get(e, 0) + c
        return Poly(self.nvars, t)

    # -- integer normalisation ------------------------------------------

    def primitive(self) -> tuple["Poly", object]:
        """Return (p, c) with self = c*p, p integer-primitive with positive
        leading sign and c a canonical coefficient.

        The sign convention takes the lexicographically largest exponent.
        """
        if not self.terms:
            return self, 1
        lead = max(self.terms)
        ints, _ = _integral(self.terms)
        ints = _normalize(ints, ints[lead])
        return Poly(self.nvars, ints), _exact(Fraction(self.terms[lead], ints[lead]))

    # -- formatting ------------------------------------------------------

    def format(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append(names[i])
                elif a > 1:
                    factors.append(f"{names[i]}^{a}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            bits.append((sign, body))
        first_sign, first_body = bits[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in bits[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# The polynomial grammar, one named group per kind of token.  The tokenizer
# tries the groups in order at each position: `skip` is dropped, `nl` starts a
# line, `op` is punctuation, kept with itself as its kind, and any other group
# names the kind of its token.
_POLY_TOKENS = re.compile(r"(?P<skip>[^\S\n]+)|(?P<int>\d+)|(?P<name>[^\W\d]\w*)"
                          r"|(?P<op>[-+*^()/])|(?P<nl>\n)")


class _Tokens:
    """The tokens of `text` under one grammar's pattern, each (kind, text,
    line, column), then an "end" token: the package's one tokenizer, for
    polynomials and for job files.  A fault raises `error(message, line,
    column)`: a character no group matches, a name that does not start with
    a letter or '_' (a word character that is not a decimal digit may also
    be '²' or '½'), or a match of the group `unterminated`.  An int is a run
    of decimal digits (what `int()` reads) and a string token holds the text
    between its quotes."""

    def __init__(self, text: str, pattern=_POLY_TOKENS, error=ParseError):
        self.error = error
        self.toks: list = []
        line, start, pos = 1, 0, 0  # start: the offset of the line's first character
        while pos < len(text):
            m = pattern.match(text, pos)
            kind = m and m.lastgroup
            ch, col = text[pos], pos - start + 1
            if not kind or kind == "name" and not (ch.isalpha() or ch == "_"):
                raise error(f"unexpected character {ch!r}", line, col)
            tok, pos = m.group(), m.end()
            if kind == "nl":
                line, start = line + 1, pos
            elif kind == "unterminated":
                raise error("unterminated string", line, col)
            elif kind == "string":
                self.toks.append((kind, tok[1:-1], line, col))
            elif kind != "skip":
                self.toks.append((tok if kind == "op" else kind, tok, line, col))
        self.toks.append(("end", "", line, pos - start + 1))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise self.error(f"expected {kind!r}, found {t[1]!r}", t[2], t[3])
        return t


# How deep parentheses may nest: each level costs the recursive descent below
# four Python frames, and the interpreter allows about a thousand.
_MAX_NESTING = 100

# How many terms a power or a product may expand to.  Both are multiplied out
# as they are parsed: p^e has at most C(e + t - 1, t - 1) terms, t those of p
# (at least e + 1 when t > 1), and p*q at most `_product_terms`.  The cost
# grows with that count and the coefficients: on a 2-vCPU Xeon VM, (x+y)^999
# takes 0.3 s, (x+y+z)^43 (990 terms) 0.04 s, (x+y+z)^43*(x+y+z)^43 (3828)
# 0.55 s.
_MAX_TERMS = 1000


def _product_terms(p: Poly, q: Poly) -> int:
    """The lesser of |p|*|q| and the number of monomials in the v variables
    of p and q with total degree from lo to hi, the sums of the lowest and
    of the highest degrees of p and q: C(hi + v, v) - C(lo - 1 + v, v)."""
    pairs = len(p.terms) * len(q.terms)
    if pairs <= _MAX_TERMS:
        return pairs
    degrees = [[sum(e) for e in f.terms] for f in (p, q)]
    lo, hi = (sum(map(f, degrees)) for f in (min, max))
    v = sum(any(e[i] for f in (p, q) for e in f.terms) for i in range(p.nvars))
    return min(pairs, comb(hi + v, v) - comb(lo - 1 + v, v))


# How much work the products and powers of one polynomial may take to
# multiply out, in sum: about a tenth of a second.  Each term pair costs an
# int product and sum (`Poly.__mul__` clears a factor's denominators first),
# which grows with the length of the coefficients, so a pair counts as
# 1 + b/1024, b the bits of the numerators and denominators of its two
# coefficients.  On a 2-vCPU Xeon VM, (x+y)^500 (0.07 s) costs about 144,000;
# (x+y)^999 (0.3 s, 728,000) and (x+y)^500*(x+y)^499 (0.2 s, 493,000) cost
# more than the bound.
_MAX_WORK = 200_000


def _work(pairs: int, bits: int) -> int:
    return pairs + pairs * bits // 1024


def _bits(p: Poly) -> int:
    """The greatest bits of the numerator and the denominator of a
    coefficient of p."""
    return max((c.numerator.bit_length() + c.denominator.bit_length()
                for c in p.terms.values()), default=0)


def _power_work(p: Poly, e: int) -> float:
    """The work of p^e by the repeated squaring of `Poly.__pow__`, bounded
    from p alone: with t terms, p^k has at most C(k + t - 1, t - 1), and
    with p = P/D, P integral, each coefficient of p^k is a quotient of a
    coefficient of P^k, at most |P|_1^k, by D^k, so it has at most
    k*log2(|P|_1 * D) bits.  In ints throughout, as a monomial's exponent
    may have hundreds of digits."""
    t = len(p.terms)
    if not t:
        return 0
    denom = lcm(*(c.denominator for c in p.terms.values()))
    bits = (sum(abs(c.numerator) * (denom // c.denominator) for c in p.terms.values())
            * denom - 1).bit_length()
    work, result, base = 0, 0, 1  # the exponents of result and base
    while e:
        if e & 1:
            work += _work(comb(result + t - 1, t - 1) * comb(base + t - 1, t - 1),
                          (result + base) * bits)
            result += base
        e >>= 1
        if e:
            work += _work(comb(base + t - 1, t - 1) ** 2, 2 * base * bits)
            base *= 2
    return work


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse the package-wide polynomial grammar: + - * ^, parentheses,
    integer or rational (a/b) coefficients, variables from `names`."""
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    toks = _Tokens(text)
    depth = 0  # parentheses open around the current token
    spent = 0  # the work of the products and powers multiplied out so far

    def spend(work: int, what: str, line: int, col: int):
        nonlocal spent
        spent += work
        if spent > _MAX_WORK:
            raise ParseError(f"{what} may take more work to expand than the bound of {_MAX_WORK}",
                             line, col)

    def parse_sum() -> Poly:
        kind, _, line, col = toks.peek()
        negate = False
        if kind in "+-":
            toks.next()
            negate = kind == "-"
        p = parse_product()
        if negate:
            p = -p
        while True:
            kind, _, line, col = toks.peek()
            if kind in "+-":
                toks.next()
                q = parse_product()
                p = p - q if kind == "-" else p + q
            else:
                return p

    def parse_product() -> Poly:
        p = parse_power()
        while True:
            kind, _, line, col = toks.peek()
            if kind == "*":
                toks.next()
                q = parse_power()
                if _product_terms(p, q) > _MAX_TERMS:
                    raise ParseError(f"product may expand to more than {_MAX_TERMS} terms",
                                     line, col)
                spend(_work(len(p.terms) * len(q.terms), _bits(p) + _bits(q)), "product", line, col)
                p = p * q
            elif kind == "/":
                toks.next()
                kind2, val, line2, col2 = toks.next()
                if kind2 != "int":
                    raise ParseError("denominator must be an integer literal", line2, col2)
                d = int(val)
                if d == 0:
                    raise ParseError("division by zero", line2, col2)
                p = p.scale(Fraction(1, d))
            else:
                return p

    def parse_power() -> Poly:
        p = parse_atom()
        kind, _, line, col = toks.peek()
        if kind == "^":
            toks.next()
            kind2, val, line2, col2 = toks.next()
            if kind2 != "int":
                raise ParseError("exponent must be an integer literal", line2, col2)
            e, t = int(val), len(p.terms)
            if t > 1 and (e >= _MAX_TERMS or comb(e + t - 1, e) > _MAX_TERMS):
                raise ParseError(f"power may expand to more than {_MAX_TERMS} terms",
                                 line2, col2)
            spend(_power_work(p, e), "power", line2, col2)
            return p ** e
        return p

    def parse_atom() -> Poly:
        nonlocal depth
        kind, val, line, col = toks.next()
        negate = False
        while kind == "-":  # a run of unary minus signs, read without recursion
            negate = not negate
            kind, val, line, col = toks.next()
        if kind == "int":
            p = Poly.constant(nvars, int(val))
        elif kind == "name":
            if val not in index:
                raise ParseError(f"unknown variable {val!r}", line, col)
            p = Poly.variable(nvars, index[val])
        elif kind == "(":
            if depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", line, col)
            depth += 1
            p = parse_sum()
            depth -= 1
            kind2, _, line2, col2 = toks.next()
            if kind2 != ")":
                raise ParseError("expected ')'", line2, col2)
        else:
            raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                             line, col)
        return -p if negate else p

    p = parse_sum()
    kind, val, line, col = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", line, col)
    return p


# ---------------------------------------------------------------------------
# gcd


def _poly_gcd_many(polys: Sequence[Poly]) -> Poly:
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise PolyError("gcd of zero polynomials")
    g = nonzero[0]
    for p in nonzero[1:]:
        g = poly_gcd(g, p)
        if g.is_constant():
            break
    return g


def _main_variable(f: Poly, g: Poly) -> Optional[int]:
    for i in range(f.nvars - 1, -1, -1):
        if f.degree_in(i) > 0 or g.degree_in(i) > 0:
            return i
    return None


def _univ_coeffs(f: Poly, v: int) -> list:
    """Coefficients of f as a polynomial in variable v (list indexed by power)."""
    coeffs = [{} for _ in range(f.degree_in(v) + 1)]
    for e, c in f.terms.items():
        coeffs[e[v]][e[:v] + (0,) + e[v + 1:]] = c
    return [Poly._of(f.nvars, t) for t in coeffs]

def _pseudo_rem(f: Poly, g: Poly, v: int) -> Poly:
    """Pseudo-remainder of f by g with respect to variable v."""
    df, dg = f.degree_in(v), g.degree_in(v)
    if df < dg:
        return f
    fc = _univ_coeffs(f, v)
    gc = _univ_coeffs(g, v)
    lead_g = gc[dg]
    xv = Poly.variable(f.nvars, v)
    r = f
    for _ in range(df - dg + 1):
        dr = r.degree_in(v)
        if r.is_zero() or dr < dg:
            break
        rc = _univ_coeffs(r, v)
        lead_r = rc[dr]
        r = lead_g * r - lead_r * (xv ** (dr - dg)) * g
    return r


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Multivariate gcd over Q via the primitive pseudo-remainder sequence.

    The result is integer-primitive with positive lead coefficient.
    """
    if f.is_zero():
        return g.primitive()[0]
    if g.is_zero():
        return f.primitive()[0]
    f = f.primitive()[0]
    g = g.primitive()[0]
    v = _main_variable(f, g)
    if v is None:
        return Poly.constant(f.nvars, 1)
    if f.degree_in(v) == 0 or g.degree_in(v) == 0:
        # one of them is free of the main variable: gcd divides contents
        fs = _univ_coeffs(f, v) if f.degree_in(v) > 0 else [f]
        gs = _univ_coeffs(g, v) if g.degree_in(v) > 0 else [g]
        cf = _poly_gcd_many([c for c in fs if not c.is_zero()])
        cg = _poly_gcd_many([c for c in gs if not c.is_zero()])
        return poly_gcd(cf, cg)

    def content_and_primitive(p: Poly) -> tuple[Poly, Poly]:
        coeffs = [c for c in _univ_coeffs(p, v) if not c.is_zero()]
        cont = _poly_gcd_many(coeffs)
        prim = poly_exact_div(p, cont)
        return cont, prim

    cf, pf = content_and_primitive(f)
    cg, pg = content_and_primitive(g)
    cont = poly_gcd(cf, cg)
    a, b = pf, pg
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            a, b = b, r
            break
        _, r = content_and_primitive(r.primitive()[0]) if r.degree_in(v) > 0 else (None, Poly.constant(f.nvars, 1))
        a, b = b, r
        if b.is_constant() and not b.is_zero():
            return cont.primitive()[0]
    result = (cont * a).primitive()[0]
    return result


def poly_exact_div(f: Poly, g: Poly) -> Poly:
    """Exact division f/g; raises PolyError when g does not divide f.

    The division runs on ints.  Write f = F/D and g = c*G, F integral and G
    primitive (`_integral`, `_normalize`).  If g divides f, then G divides F
    over Z (Gauss's lemma), so each step divides an int by G's lead exactly,
    and f/g = (F/G) / (c*D)."""
    if g.is_zero():
        raise PolyError("division by zero polynomial")
    if f.is_zero():
        return f
    # multivariate long division by the largest exponent tuple, subtracting
    # c * x^e * G from one remainder dict in place; exactness checked
    r, denom = _integral(f.terms)
    r = dict(r)
    glead = max(g.terms)
    G = _integral(g.terms)[0]
    G = _normalize(G, G[glead])
    gc = G[glead]
    q: dict = {}
    while r:
        rlead = max(r)
        e = tuple(map(sub, rlead, glead))
        c, rest = divmod(r[rlead], gc)
        if rest or any(x < 0 for x in e):
            raise PolyError("polynomial division is not exact")
        q[e] = c
        _add_product(r, {e: -c}, G)
    # f/g = (F/G) * k, k = G's lead / (D * g's lead)
    k = Fraction(gc, denom) / g.terms[glead]
    return Poly._of(f.nvars, _rational({e: c * k.numerator for e, c in q.items()}, k.denominator))


def squarefree_by_leads(leads: Sequence[tuple], nvars: int) -> bool:
    """The lead rule of reducedness.  Given the lead monomials of a Groebner
    basis of J = (h, dh/dx_1, ..., dh/dx_n) under any global monomial order,
    h has no repeated factor over Q exactly when, for every variable x_j,
    some lead monomial does not contain x_j.

    Why: the leads generate the lead ideal of J, and dim Q[x]/J equals the
    dimension of Q[x] modulo that monomial ideal, under any monomial order.
    A set S of variables is independent modulo the lead ideal when no lead
    monomial is a monomial in S alone, and the dimension is the largest size
    of such a set; S = {x_i : i != j} is independent exactly when every lead
    contains x_j.  So the rule says dim Q[x]/J <= n - 2, and it holds for
    J = (1), a constant h.

    Proof that this is reducedness (characteristic 0): if h = p^2 * q with p
    nonconstant, p divides h and every partial, so V(J) contains V(p), of
    dimension n - 1.  If h is reduced, V(J) is the singular locus of V(h), a
    proper closed subset of each of its components, so dim V(J) <= n - 2.
    """
    return all(any(e[j] == 0 for e in leads) for j in range(nvars))


def is_squarefree(h: Poly) -> bool:
    """True when h has no repeated factor over Q: `squarefree_by_leads` of
    one reduced degrevlex Groebner basis of J = (h, dh/dx_1, ..., dh/dx_n).

    An inhomogeneous h is first homogenised with a new variable t.
    Homogenisation is multiplicative and t divides no homogenised polynomial,
    so a factor of H = h^hom dehomogenises (t = 1) to a factor of h of the
    same degree, and H has a repeated factor exactly when h has.
    Buchberger's algorithm keeps to one degree at a time on homogeneous
    input.  Measured on dense random bivariate h (every term x^i y^j with
    i + j <= d, coefficient `randint(-5, 5) or 1` from `random.Random(5)`),
    on a 2-vCPU Xeon virtual machine, homogenised against not: d = 6 took
    0.02 s either way, d = 10 took 3.6 s against 13.7 s, the square of the
    d = 7 polynomial 0.43 s against 1.5 s, and d = 15 did not finish within
    100 s homogenised.
    """
    if h.is_zero():
        raise PolyError("zero polynomial has no squarefree test")
    # deferred: the Groebner layer is built on this module
    from .groebner import QuotientTable
    from .module import FreeElement, ModulePresentation

    n = h.nvars
    if not h.is_homogeneous((1,) * n):
        d = h.total_degree()
        h = Poly(n + 1, {e + (d - sum(e),): c for e, c in h.terms.items()})
        n += 1
    gens = [FreeElement([p]) for p in [h] + [h.derivative(i) for i in range(n)]]
    return squarefree_by_leads(QuotientTable(ModulePresentation(1, gens)).leads[0], n)


# ---------------------------------------------------------------------------
# quasihomogeneity


def _lex_least_point(constraints: list) -> Optional[list]:
    """The lexicographically least point t = (t_0, ..., t_{m-1}) with
    sum(a_j * t_j) >= b for every (a, b) in constraints, or None when there
    is none.  Each t_j must be bounded below by a constraint of its own
    (a = e_j), so that the least point exists.

    Fourier-Motzkin over `Fraction`: eliminate t_{m-1}, ..., t_0 in turn by
    adding positive multiples of a lower and an upper bound, keeping each
    stage.  The last stage holds constraints 0 >= b only, and the system is
    feasible exactly when all of them hold.  Then t_0, t_1, ... each take the
    greatest lower bound that the stage in t_0..t_j leaves, given the values
    already fixed; the stage's upper bounds admit it, because the next stage
    holds at the values fixed so far.
    """

    m = len(constraints[0][0])

    def normal(a: tuple, b) -> tuple:
        # scaled so that the first nonzero coefficient is +-1
        k = next((abs(x) for x in a if x), 1)
        return tuple(Fraction(x) / k for x in a), Fraction(b) / k

    stage = {normal(tuple(a), b) for a, b in constraints}
    stages = [stage]
    for j in range(m - 1, -1, -1):
        lower = [(a, b) for a, b in stage if a[j] > 0]
        upper = [(a, b) for a, b in stage if a[j] < 0]
        stage = {(a, b) for a, b in stage if a[j] == 0}
        for al, bl in lower:
            for au, bu in upper:
                p, q = -au[j], al[j]
                stage.add(normal(tuple(p * x + q * y for x, y in zip(al, au)), p * bl + q * bu))
        stages.append(stage)
    if any(b > 0 for _, b in stage):
        return None
    t: list = []
    for j in range(m):
        # stages[m - 1 - j] involves t_0..t_j only
        t.append(max((b - sum(x * y for x, y in zip(a, t))) / a[j]
                     for a, b in stages[m - 1 - j] if a[j] > 0))
    return t


def quasihomogeneous_weights(*polys: Poly, allow_zero: bool = False) -> Optional[tuple]:
    """Positive integer weights making each of the polynomials weighted
    homogeneous, each of its own degree, in lowest integral terms; None when
    no such weights exist.  A zero polynomial is homogeneous of every degree
    and sets no condition; a nonzero constant admits no weights.

    With allow_zero=True a semipositive system (some zero weights, not all)
    is accepted when no strictly positive one exists.

    The weights solve the difference systems (e - base) . w = 0 of the
    polynomials, stacked into one, so each weight is a linear form in the
    values of the free columns of its echelon.  Free values in 1..4 (all
    ones when there are more than four free columns) are tried first.  When
    none of them works, feasibility is decided exactly: the system is
    homogeneous, so positive weights exist exactly when some free values make
    every weight at least 1 (semipositive ones: at least 0 with sum at least
    1), and the lexicographically least such free values (`_lex_least_point`)
    give the answer.  The semipositive search, grid then exact, starts only
    after the positive one has found nothing.
    """
    polys = [h for h in polys if not h.is_zero()]
    if not polys:
        raise PolyError("zero polynomial")
    if any(h.is_constant() for h in polys):
        return None
    n = polys[0].nvars

    # echelon form of the difference system (e - base) . w = 0, keyed by
    # -column so that each pivot is the leftmost column of its row; the pivot
    # columns of a row space do not depend on the echelon form, so the free
    # columns are those of the reduced one
    from .groebner import LinSpace

    space = LinSpace()
    for h in polys:
        base, *rest = sorted(h.terms)
        for e in rest:
            space.add({-i: Fraction(e[i] - base[i]) for i in range(n)})
    free = [c for c in range(n) if -c not in space.rows]
    if not free:
        return None

    def weights_at(assignment: Sequence) -> list:
        w = {-c: Fraction(val) for c, val in zip(free, assignment)}
        # right to left: a row involves only columns right of its pivot; the
        # stored rows are integer rows, so divide by the pivot entry exactly
        for p in sorted(space.rows):
            row = space.rows[p]
            w[p] = Fraction(-sum(v * w[t] for t, v in row.items() if t != p), row[p])
        return [w[-c] for c in range(n)]

    def lowest_terms(w: list) -> tuple:
        # the weights are at least 0 and not all 0, so 1 stands for a positive lead
        return tuple(_normalize(_integral(dict(enumerate(w)))[0], 1).values())

    m = len(free)
    grid = list(product(*[range(1, 5) for _ in free])) if m <= 4 else [(1,) * m]
    units = [[int(f == g) for g in range(m)] for f in range(m)]

    def search(accept, bounds) -> Optional[tuple]:
        for assignment in grid:
            w = weights_at(assignment)
            if accept(w):
                return lowest_terms(w)
        # column f of `forms` is the weight vector at the unit free values e_f
        forms = list(zip(*[weights_at(u) for u in units]))
        point = _lex_least_point(bounds(forms))
        return None if point is None else lowest_terms(weights_at(point))

    w = search(lambda w: all(x > 0 for x in w), lambda forms: [(a, 1) for a in forms])
    if w is None and allow_zero:
        w = search(lambda w: all(x >= 0 for x in w) and any(w),
                   lambda forms: [(a, 0) for a in forms]
                   + [([sum(col) for col in zip(*forms)], 1)])
    return w
