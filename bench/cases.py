"""Seeded inputs of the three benchmark workloads, with their known answers.

Every case is a closure over inputs built here (equations, map components,
Saito certificates of normal crossing), so building the inputs is set-up and
calling the closure is the timed work.  Objects that cache state inside
`logforms` (divisors, forms modules, deformation set-ups) are made inside the
closure, so every pass repeats the same work.

Known answers:
  * generic arrangements of m hyperplanes in C^n: the singular Milnor number,
    the KEV codimension and the torsion length of (n-1)-forms all equal
    C(m-1, n), and for m > n >= 3 the divisor is not free;
  * reflection arrangements are free with field degrees = exponents - 1;
  * Rieger's (x, y^3 + x^k y) has A_e-codimension k - 1, Mond's S_k, B_k
    and H_k have A_e-codimension k.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from logforms import deformation, forms, logarithmic
from logforms.deformation import DeformationSetup, InducingMap
from logforms.module import FreeElement
from logforms.poly import Poly, parse_poly

# Nonzero coefficients of the drawn linear forms: small, so that the rational
# arithmetic stays of similar size across seeds, yet wide enough for nine
# pairwise independent lines.
COEFFS = (-3, -2, -1, 1, 2, 3)


class Case:
    """One timed call with its known answer.

    A case that takes only milliseconds is called `reps` times in a row per
    pass, so that one timed sample is long enough not to be decided by a
    single scheduler tick or collector pause; its time is per call."""

    __slots__ = ("id", "run", "expected", "reps")

    def __init__(self, id, run, expected, reps=1):
        self.id = id
        self.run = run
        self.expected = expected
        self.reps = reps


# ---------------------------------------------------------------------------
# generic arrangements


def _full_rank(rows) -> bool:
    """Exact rank test of a square integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return True


def generic_forms(rng: random.Random, n: int, m: int) -> list:
    """m linear forms on C^n, any n of them independent.

    The first n are the coordinates (a linear change of coordinates reaches
    every generic arrangement this way); the others are drawn from COEFFS and
    redrawn until every n-subset of all m forms has full rank."""
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        rows = unit + [[rng.choice(COEFFS) for _ in range(n)] for _ in range(m - n)]
        if all(_full_rank([rows[i] for i in s]) for s in combinations(range(m), n)):
            return rows


def _linear(row, n: int) -> Poly:
    return Poly(n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(row) if c})


def _product(polys) -> Poly:
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def _names(prefix: str, n: int) -> list:
    return [f"{prefix}{i + 1}" for i in range(n)]


def normal_crossing_basis(m: int):
    """Saito certificate of w1*...*wm: the diagonal fields w_i d/dw_i."""
    names = _names("w", m)
    ws = [Poly.variable(m, i) for i in range(m)]
    d = logarithmic.Divisor(names, _product(ws), weights=(1,) * m)
    fields = [FreeElement([ws[i] if j == i else Poly.zero(m) for j in range(m)])
              for i in range(m)]
    basis, reason = logarithmic.saito_check(d, fields)
    if basis is None:
        raise RuntimeError(f"normal crossing certificate rejected: {reason}")
    return basis


class Arrangement:
    """A generic arrangement pulled back from normal crossing in C^m."""

    def __init__(self, rng: random.Random, n: int, m: int, nc_bases: dict):
        self.n, self.m = n, m
        self.names = _names("x", n)
        self.rows = generic_forms(rng, n, m)
        self.comps = [_linear(r, n) for r in self.rows]
        self.h = _product(self.comps)
        if m not in nc_bases:
            nc_bases[m] = normal_crossing_basis(m)
        self.e_basis = nc_bases[m]
        self.weights = (1,) * n
        self.mu = comb(m - 1, n)

    @property
    def label(self) -> str:
        return f"C{self.n}-m{self.m}"

    def setup(self) -> DeformationSetup:
        imap = InducingMap(self.names, self.e_basis.divisor.names, self.comps)
        return DeformationSetup(self.e_basis, imap, weights=self.weights)


# ---------------------------------------------------------------------------
# reflection arrangements: (equation, names, exponents)


def _reflection(kind: str):
    if kind == "A3":
        names, text, exps = ["x", "y", "z"], "x*y*z*(x-y)*(x-z)*(y-z)", (1, 2, 3)
    elif kind == "B3":
        names, text, exps = (["x", "y", "z"],
                             "x*y*z*(x-y)*(x+y)*(x-z)*(x+z)*(y-z)*(y+z)", (1, 3, 5))
    else:
        names = _names("x", 4)
        pairs = list(combinations(names, 2))
        minus = [f"({a}-{b})" for a, b in pairs]
        plus = [f"({a}+{b})" for a, b in pairs]
        factors, exps = {
            "D4": (minus + plus, (1, 3, 3, 5)),
            "B4": (names + minus + plus, (1, 3, 5, 7)),
            "A4": (names + minus, (1, 2, 3, 4)),
        }[kind]
        text = "*".join(factors)
    return parse_poly(text, names), names, exps


def _is_free_answer(names, h, weights):
    d = logarithmic.Divisor(names, h, weights=weights)
    v = logarithmic.is_free(d)
    degs = tuple(sorted(v.basis.field_degrees())) if v.basis is not None else None
    return (v.kind, degs)


def _is_free_case(label, names, h, expected, reps=1):
    weights = (1,) * len(names)
    return Case(f"is-free/{label}", lambda: _is_free_answer(names, h, weights), expected, reps)


def _de_rham_check(names, h, bound):
    d = logarithmic.Divisor(names, h, weights=(1,) * len(names))
    basis = logarithmic.is_free(d).basis
    mods = [forms.forms_free(basis, k) for k in range(len(names) + 1)]
    return forms.de_rham_report_sliced(mods, bound)["all_exact"]


# ---------------------------------------------------------------------------
# workloads
#
# The rung tables give each case's `reps`: about 0.1 s or more of calls per
# sample on a 2-vCPU Xeon virtual machine.  They are fixed here, not taken
# from measured speed, so that a pass does the same work on every commit.


def derham_slices(seed: int) -> list:
    rng = random.Random(seed)
    nc = {}
    cases = []
    for n, m, reps in ((2, 5, 8), (2, 7, 4), (2, 9, 2),
                       (3, 4, 1), (3, 5, 1), (3, 6, 1), (3, 7, 1), (4, 5, 1)):
        a = Arrangement(rng, n, m, nc)
        setup = a.setup()
        cases.append(Case(f"mu-derham/{a.label}",
                          lambda s=setup: deformation.mu_e_derham(s, bound=12, window=4),
                          a.mu, reps))
    nc4 = normal_crossing_basis(4)
    for label, (h, names) in (("A3", _reflection("A3")[:2]), ("B3", _reflection("B3")[:2]),
                              ("NC4", (nc4.divisor.h, list(nc4.divisor.names)))):
        cases.append(Case(f"de-rham-check/{label}",
                          lambda h=h, names=names: _de_rham_check(names, h, 8), True))
    return cases


def _torsion(a: Arrangement):
    m = forms.forms_pullback(a.e_basis, a.comps, a.names, a.n - 1, weights=a.weights)
    return forms.torsion_length(m)


def syzygy_ladder(seed: int) -> list:
    rng = random.Random(seed)
    nc = {}
    cases = []
    # (n, m, reps of the torsion case, reps of the KEV case)
    for n, m, t_reps, k_reps in ((3, 4, 2, 50), (3, 5, 1, 30), (3, 6, 1, 20),
                                 (3, 7, 1, 10), (4, 5, 1, 40)):
        a = Arrangement(rng, n, m, nc)
        setup = a.setup()
        cases.append(Case(f"torsion/{a.label}", lambda a=a: _torsion(a), a.mu, t_reps))
        cases.append(Case(f"kev/{a.label}",
                          lambda s=setup: deformation.kev_normal_space(s)[1], a.mu, k_reps))
    for kind, reps in (("A3", 5), ("B3", 5), ("D4", 1), ("B4", 1), ("A4", 1)):
        h, names, exps = _reflection(kind)
        cases.append(_is_free_case(kind, names, h, ("FREE", tuple(e - 1 for e in exps)), reps))
    for n, m, reps in ((3, 6, 2), (3, 7, 1), (4, 6, 1)):
        a = Arrangement(rng, n, m, nc)
        cases.append(_is_free_case(a.label, a.names, a.h, ("NOT_FREE", None), reps))
    return cases


# ---------------------------------------------------------------------------
# command-line corpus

# Answers of the 21 corpus jobs, as paths into the JSON record.  Where the test
# suite asserts a value for a job, it is the value below.
CORPUS = {
    "ae_codim_fold": {"dimensions.ae_codim_direct.value": 0, "dimensions.ae_codim_damon.value": 0},
    "ae_codim_lips": {"dimensions.ae_codim_direct.value": 1, "dimensions.ae_codim_damon.value": 1},
    "critical_ideal_cross_ratio": {"verdicts.unit_ideal": False,
                                   "dimensions.generator_count.value": 2},
    "critical_ideal_four_planes": {"verdicts.unit_ideal": False,
                                   "dimensions.generator_count.value": 4},
    "de_rham_cross_ratio": {"verdicts.all_exact": True, "verdicts.mode": "homotopy"},
    "de_rham_four_planes_afd": {"verdicts.all_exact": True, "verdicts.mode": "slice"},
    "de_rham_normal_crossing3": {"verdicts.all_exact": True, "verdicts.mode": "slice"},
    "de_rham_plane_pair": {"verdicts.all_exact": True, "verdicts.mode": "slice"},
    "derlog_four_planes": {"dimensions.generator_count.value": 4},
    "fitting_four_planes": {"verdicts.fitting_ideal_is_maximal_ideal": True,
                            "dimensions.t1_log_relative.value": 1},
    "is_free_cross_ratio": {"verdicts.freeness": "FREE"},
    "is_free_four_planes": {"verdicts.freeness": "NOT_FREE",
                            "dimensions.minimal_generators.value": 4},
    "is_free_normal_crossing": {"verdicts.freeness": "FREE"},
    "kev_four_planes": {"dimensions.kev_codimension.value": 1},
    "mu_e_four_lines": {"dimensions.mu_e_derham.value": 3, "dimensions.mu_e_alternating.value": 3,
                        "dimensions.mu_e_good_equation.value": 3},
    "mu_e_four_planes": {"dimensions.mu_e_derham.value": 1, "dimensions.mu_e_alternating.value": 1,
                         "dimensions.mu_e_good_equation.value": 1},
    "omega_check_normal_crossing": {"verdicts.relation_module_free": True,
                                    "dimensions.rank.value": 3},
    "saito_check_normal_crossing": {"verdicts.saito": "PASS"},
    "t1_four_planes": {"dimensions.t1_log_relative.value": 1, "dimensions.t1_log_fibre.value": 1},
    "torsion_four_planes": {"dimensions.torsion_length.value": 1},
    "torsion_lips": {"dimensions.torsion_length.value": 1},
}

# Germs C^2 -> C^2 (Rieger) and C^2 -> C^3 (Mond), with their A_e-codimension.
GERMS = (
    [(f"rieger_{k}", ("x", f"y^3+x^{k}*y"), k - 1) for k in range(2, 7)]
    + [(f"mond_S{k}", ("x", "y^2", f"y^3+x^{k + 1}*y"), k) for k in range(2, 5)]
    + [(f"mond_B{k}", ("x", "y^2", f"x^2*y+y^{2 * k + 1}"), k) for k in range(2, 5)]
    + [(f"mond_H{k}", ("x", "y^3", f"x*y+y^{3 * k - 1}"), k) for k in range(2, 5)]
)

# Wrong answers the jet route is known to give (its stopping rule stops when
# two consecutive jet orders agree).  They stay in the workload so that
# the failure ratio shows them.
GERM_DEFECTS = {"mond_B2": 1, "mond_B3": 1, "mond_B4": 1, "mond_H3": 2, "mond_H4": 2}


class Job:
    """One command-line job file and the values its record must hold.

    `defect` holds the wrong values the program is known to give; a job that
    reproduces them still counts as failed, but does not make the run
    incorrect."""

    __slots__ = ("id", "path", "expected", "defect")

    def __init__(self, id, path, expected, defect=None):
        self.id = id
        self.path = path
        self.expected = expected
        self.defect = defect

    def answer(self, record: dict) -> dict:
        out = {}
        for path in self.expected:
            v = record
            for key in path.split("."):
                v = v.get(key) if isinstance(v, dict) else None
            out[path] = v
        return out


def _germ_job(map_texts) -> str:
    target = ["X", "Y", "Z"][:len(map_texts)]
    quoted = ", ".join(f'"{t}"' for t in map_texts)
    return (f"ring {{ x, y }};\ntarget-ring {{ {', '.join(target)} }};\n"
            f"map ( {quoted} );\ncommand ae-codim;\n")


def cli_corpus(seed: int, root: Path, work: Path) -> list:
    """The corpus jobs plus generated germ jobs, in a seeded order."""
    jobs = []
    for stem, expected in sorted(CORPUS.items()):
        jobs.append(Job(stem, root / "jobs" / f"{stem}.job", expected))
    work.mkdir(parents=True, exist_ok=True)
    for stem, texts, codim in GERMS:
        path = work / f"{stem}.job"
        path.write_text(_germ_job(texts))
        key = "dimensions.ae_codim_direct.value"
        defect = {key: GERM_DEFECTS[stem]} if stem in GERM_DEFECTS else None
        jobs.append(Job(stem, path, {key: codim}, defect))
    random.Random(seed).shuffle(jobs)
    return jobs
