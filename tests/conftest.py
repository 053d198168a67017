"""Shared corpus: the divisors, families and maps exercised across the suite."""

import ast
import importlib
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import strategies as st

from logforms import groebner
from logforms.deformation import DeformationSetup, InducingMap
from logforms.exterior import form_basis, form_index, form_rank, wedge
from logforms.forms import CheckedFormsModule, _leads, subquotient_dimension
from logforms.groebner import LinSpace, groebner_basis, saturate, submodule_contains
from logforms.logarithmic import Divisor, FreenessVerdict, is_free, saito_check
from logforms.module import FreeElement
from logforms.order import MonomialOrder
from logforms.poly import Poly, parse_poly

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "logforms"

# The CLI processes that tests start import the package from src, as the
# tests themselves do (`pythonpath` in pyproject.toml).
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


# ---------------------------------------------------------------------------
# what the benchmark reads of the package


def trace_targets() -> dict:
    """`TARGETS` of `bench/spans.py`: module name -> the names its trace wraps."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(s.value) for s in tree.body if isinstance(s, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in s.targets))


def bench_reads() -> set:
    """(module, name) for every `logforms` name that `bench/*.py` imports with
    `from ... import`, or reads as an attribute of a `logforms` module that it
    imported so; a module imported from the package is ("logforms", its name)."""
    out = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the `logforms` module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "logforms":
                for alias in node.names:
                    out.add((node.module, alias.name))
                    if node.module == "logforms" and (PACKAGE / f"{alias.name}.py").is_file():
                        modules[alias.asname or alias.name] = f"logforms.{alias.name}"
        out |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules}
    return out


def _rebind(monkeypatch, original, replacement):
    """Replace every binding of `original` in a `logforms` module namespace."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("logforms"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.fixture
def gb_calls(monkeypatch):
    """Records the generators of every Groebner basis computed from
    generators: each `groebner_basis` call and each `QuotientTable`, both of
    which compute it through `groebner._reduced_basis`."""
    calls = []
    original = groebner._reduced_basis

    def counting(generators, layout, rank):
        calls.append(tuple(generators))
        return original(generators, layout, rank)

    _rebind(monkeypatch, original, counting)
    return calls


@pytest.fixture
def call_counter(monkeypatch):
    """count(module, name) starts recording the calls of the `logforms`
    function `module.name`, or of a method when name is "Class.method",
    through every `logforms` module that binds it, and returns the list of
    their positional arguments (a method's include self).  `count.log` holds
    every counted call as (name, args), in the order the calls start."""

    def count(module: str, name: str) -> list:
        calls = []
        owner_name, _, method = name.partition(".")
        owner = getattr(importlib.import_module(f"logforms.{module}"), owner_name)
        original = getattr(owner, method) if method else owner

        def counting(*args, **kwargs):
            calls.append(args)
            count.log.append((name, args))
            return original(*args, **kwargs)

        if method:
            monkeypatch.setattr(owner, method, counting)
        else:
            _rebind(monkeypatch, original, counting)
        return calls

    count.log = []
    return count


def canonical(c) -> bool:
    """Whether c is an exact rational in the canonical form of a `Poly`
    coefficient: an int when integral, a `Fraction` otherwise."""
    return type(c) is (int if c.denominator == 1 else Fraction)


# ---------------------------------------------------------------------------
# reference term orders, composition and pullback, independent of the packed
# terms, of `exterior.pullback` and of the minors of A = [S o F | dF]


def mono_key(order, e: tuple):
    """Sort key of a monomial; a larger key is a larger monomial."""
    w = order.weights
    return (sum(map(mul, e, w)) if w is not None else sum(e), *[-x for x in reversed(e)])


def term_key(order, term: tuple, rank=None):
    """Sort key of a module term (component, exponent), position over term;
    with rank, of the elimination order of `MonomialOrder.layout`: every
    head term (component below rank) above every tag term, heads by weighted
    degree, then position, then the monomial order."""
    comp, e = term
    key = mono_key(order, e)
    if rank is None:
        return (-comp, *key)
    if comp < rank:
        return (1, key[0], -comp, *key)
    return (0, -comp, *key)


def submodules_equal(gens_a, gens_b, order) -> bool:
    """Whether the two families generate one submodule: each lies in the
    submodule of the other, read by membership in its Groebner basis."""
    gba = groebner_basis(gens_a, order)
    gbb = groebner_basis(gens_b, order)
    return submodule_contains(gba, gens_b, order) and submodule_contains(gbb, gens_a, order)


def compose(p: Poly, args) -> Poly:
    """p with args[i] substituted for variable i, by `Poly` arithmetic."""
    nvars = args[0].nvars
    out = Poly.zero(nvars)
    for e, c in p.terms.items():
        term = Poly.constant(nvars, c)
        for a, k in zip(args, e):
            term = term * a ** k
        out = out + term
    return out


def monomial_form(n: int, k: int, nvars: int, I: tuple, coeff: Poly) -> FreeElement:
    """The k-form coeff dx_I on n variables."""
    entries = [Poly.zero(nvars) for _ in range(form_rank(n, k))]
    entries[form_index(n, k)[I]] = coeff
    return FreeElement(entries)


def relative_forms(names, k: int, relations, h: Poly, params, weights) -> CheckedFormsModule:
    """Degree-k relative forms of a family: the given relations (from
    `pullback_relations_by_degree` or `log_form_generators`) plus the basis
    k-forms dx_I that contain the differential of a parameter."""
    n, nv = len(names), h.nvars
    units = [monomial_form(n, k, nv, I, Poly.constant(nv, 1))
             for I in form_basis(n, k) if set(I) & set(params)]
    return CheckedFormsModule(names, n, k, list(relations) + units, h, weights=weights,
                              kind="relative")


def maximal_ideal_chain(m: CheckedFormsModule) -> tuple:
    """(the saturation M : m^inf of the relation module M by the colon chain
    of (x_1, ..., x_n), its dimension over M)."""
    order = m.order()
    variables = [Poly.variable(m.nvars, i) for i in range(m.nvars)]
    sat = saturate(m.relations, m.rank, variables, order)
    return sat, lead_gap(sat, groebner_basis(m.relations, order), order, m.nvars)


def lead_gap(big_gb, small_gb, order, nvars: int):
    """`subquotient_dimension` of two Groebner bases under order, read off
    their packed leads."""
    layout = order.layout(nvars)
    return subquotient_dimension(_leads(big_gb, layout), _leads(small_gb, layout), layout)


def wedge_chain_pullback(k: int, target_n: int, form: FreeElement, components: list,
                         source_n: int) -> FreeElement:
    """Pullback of a k-form as the sum of c(f) * df_j1 ^ ... ^ df_jk over the
    target basis forms dy_J, each a chain of `wedge` calls, c(f) by
    `compose`."""
    nv = components[0].nvars
    if k == 0:
        return FreeElement([compose(form.entries[0], components)])
    dcomp = [FreeElement([f.derivative(v) for v in range(source_n)]) for f in components]
    out = FreeElement.zero(max(form_rank(source_n, k), 1), nv)
    for pos, J in enumerate(form_basis(target_n, k)):
        pulled_c = compose(form.entries[pos], components)
        if pulled_c.is_zero():
            continue
        block, deg = dcomp[J[0]], 1
        for j in J[1:]:
            block = wedge(source_n, deg, block, 1, dcomp[j])
            deg += 1
        out = out + block.scale(pulled_c)
    return out


def monomials_of_weight(nvars: int, weights, target: int) -> list:
    """All exponent tuples of the given weighted degree (weights positive),
    in increasing lexicographic order, by recursion over the variables."""
    out: list = []

    def rec(i: int, remaining: int, prefix: list):
        if i == nvars:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for a in range(remaining // weights[i] + 1):
            prefix.append(a)
            rec(i + 1, remaining - a * weights[i], prefix)
            prefix.pop()

    if target >= 0:
        rec(0, target, [])
    return out


@cache
def normal_crossing_basis(m: int):
    """Saito certificate of w1*...*wm: the diagonal fields w_i d/dw_i."""
    names = [f"w{i + 1}" for i in range(m)]
    ws = [Poly.variable(m, i) for i in range(m)]
    h = ws[0]
    for w in ws[1:]:
        h = h * w
    fields = [FreeElement([ws[i] if j == i else Poly.zero(m) for j in range(m)])
              for i in range(m)]
    return saito_check(Divisor(names, h, weights=(1,) * m), fields)[0]


def independent(rows) -> bool:
    space = LinSpace()
    for r in rows:
        space.add(dict(enumerate(r)))
    return space.dim == len(rows)


@st.composite
def generic_arrangements(draw):
    """(n, m, rows): m linear forms on C^n, n = 2..4, m = n+1..n+3, the
    first n the coordinates and the rest with coefficients in +-1..3, any n
    of them independent."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, n + 3))
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    while True:
        rows = unit + draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                                    min_size=m - n, max_size=m - n))
        if all(independent([rows[i] for i in s]) for s in combinations(range(m), n)):
            return n, m, rows


def certified(divisor):
    v = is_free(divisor)
    assert v.kind == FreenessVerdict.FREE, f"{divisor} expected free, got {v.kind}"
    return v.basis


@pytest.fixture(scope="session")
def ord_std():
    return MonomialOrder()


@pytest.fixture(scope="session")
def nc2():
    names = ["x", "y"]
    d = Divisor(names, parse_poly("x*y", names), weights=(1, 1))
    return d, certified(d)


@pytest.fixture(scope="session")
def nc3():
    names = ["x", "y", "z"]
    d = Divisor(names, parse_poly("x*y*z", names), weights=(1, 1, 1))
    return d, certified(d)


@pytest.fixture(scope="session")
def nc4():
    names = ["w1", "w2", "w3", "w4"]
    d = Divisor(names, parse_poly("w1*w2*w3*w4", names), weights=(1, 1, 1, 1))
    return d, certified(d)


@pytest.fixture(scope="session")
def calderon():
    names = ["x", "y", "l"]
    d = Divisor(names, parse_poly("x*y*(x-y)*(x+l*y)", names))
    return d, certified(d)


@pytest.fixture(scope="session")
def four_planes_divisor():
    names = ["x1", "x2", "x3"]
    return Divisor(names, parse_poly("x1*x2*x3*(x1+x2+x3)", names), weights=(1, 1, 1))


@pytest.fixture(scope="session")
def four_planes_family():
    """Free total space of the one-parameter family shifting the fourth plane."""
    names = ["x1", "x2", "x3", "s"]
    d = Divisor(names, parse_poly("x1*x2*x3*(x1+x2+x3-s)", names), weights=(1, 1, 1, 1))
    return d, certified(d)


@pytest.fixture(scope="session")
def four_planes_afd(nc4):
    """The germ: four planes in C^3 pulled back from normal crossing in C^4."""
    _, e_basis = nc4
    sn = ["x1", "x2", "x3"]
    comps = [parse_poly(s, sn) for s in ["x1", "x2", "x3", "x1+x2+x3"]]
    imap = InducingMap(sn, ["w1", "w2", "w3", "w4"], comps)
    return DeformationSetup(e_basis, imap, weights=(1, 1, 1))


@pytest.fixture(scope="session")
def four_planes_family_map(nc4):
    """The family as a map of C^4 (x1, x2, x3, s), the parameter a source variable."""
    _, e_basis = nc4
    sn = ["x1", "x2", "x3", "s"]
    comps = [parse_poly(s, sn) for s in ["x1", "x2", "x3", "x1+x2+x3-s"]]
    imap = InducingMap(sn, ["w1", "w2", "w3", "w4"], comps)
    return DeformationSetup(e_basis, imap, weights=(1, 1, 1, 1))


@pytest.fixture(scope="session")
def lips_disc():
    """Discriminant of the stable unfolding of the lips germ."""
    names = ["X", "U", "W"]
    d = Divisor(names, parse_poly("4*(U+X^2)^3 + 27*W^2", names), weights=(1, 2, 3))
    return d, certified(d)


@pytest.fixture(scope="session")
def lips_inclusion(lips_disc):
    tn = ["X", "W"]
    return InducingMap(tn, ["X", "U", "W"],
                       [parse_poly("X", tn), Poly.zero(2), parse_poly("W", tn)])


@pytest.fixture(scope="session")
def lips_afd(lips_disc, lips_inclusion):
    _, basis = lips_disc
    return DeformationSetup(basis, lips_inclusion, weights=(1, 3))


@pytest.fixture(scope="session")
def four_lines_total():
    """Free 2-parameter extension of the four-concurrent-lines germ."""
    names = ["x", "y", "s1", "s2"]
    d = Divisor(names, parse_poly("x*y*(x-y-s1)*(x+y-2*s1-s2)", names), weights=(1, 1, 1, 1))
    return d, certified(d)


@pytest.fixture(scope="session")
def four_lines_afd(nc4):
    _, e_basis = nc4
    sn = ["x", "y"]
    comps = [parse_poly(s, sn) for s in ["x", "y", "x-y", "x+y"]]
    imap = InducingMap(sn, ["w1", "w2", "w3", "w4"], comps)
    return DeformationSetup(e_basis, imap, weights=(1, 1))


@pytest.fixture(scope="session")
def four_lines_middle_afd(nc4):
    """The 1-parameter total space (a generic four-plane germ in C^3) as an AFD."""
    _, e_basis = nc4
    sn = ["x", "y", "s1"]
    comps = [parse_poly(s, sn) for s in ["x", "y", "x-y-s1", "x+y-2*s1"]]
    imap = InducingMap(sn, ["w1", "w2", "w3", "w4"], comps)
    return DeformationSetup(e_basis, imap, weights=(1, 1, 1))
