"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

All assertions are exact equalities over Q; the only tolerances are the
documented degree bounds and the wall-clock budgets stated per criterion.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logforms.cli import run_job
from logforms.deformation import (
    InducingMap,
    ae_codim_damon,
    ae_normal_space_direct,
    good_equation_witness,
    ke_discriminant_reduced,
    mu_e_alternating,
    mu_e_derham,
    mu_e_good_equation,
    t1_log,
)
from logforms.exterior import contract, form_basis, wedge
from logforms.forms import (
    de_rham_report_sliced,
    forms_free,
    forms_pullback,
    torsion_length,
)
from logforms.groebner import groebner_basis, is_member, syzygy_module
from logforms.jobio import parse_job
from logforms.logarithmic import (
    Divisor,
    FreenessVerdict,
    euler_field,
    is_free,
    log_form_generators,
)
from logforms.module import FreeElement
from logforms.order import MonomialOrder
from logforms.poly import Poly, parse_poly

from conftest import maximal_ideal_chain, monomial_form, submodules_equal

ORD = MonomialOrder()
JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _report(num: int, ok: bool, desc: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def free_corpus(nc2, nc3, nc4, calderon, four_planes_family, lips_disc, four_lines_total):
    """Every certified free divisor in the corpus (all singular at the origin)."""
    return {
        "plane pair": nc2,
        "normal crossing C3": nc3,
        "normal crossing C4": nc4,
        "cross-ratio family": calderon,
        "four-planes family": four_planes_family,
        "lips discriminant": lips_disc,
        "four-lines family": four_lines_total,
    }


def test_criterion_01_freeness_suite(nc3, four_planes_divisor, calderon):
    budget_ok = True
    t0 = time.monotonic()
    v1 = is_free(nc3[0])
    t1 = time.monotonic()
    v2 = is_free(calderon[0])
    t2 = time.monotonic()
    v3 = is_free(four_planes_divisor)
    t3 = time.monotonic()
    budget_ok = (t1 - t0) < 5 and (t2 - t1) < 5 and (t3 - t2) < 5
    diag_ok = (v1.kind == FreenessVerdict.FREE and v1.basis.unit == 1
               and all(v1.basis.theta[j][i].is_zero() for i in range(3)
                       for j in range(3) if i != j))
    ok = (diag_ok and v2.kind == FreenessVerdict.FREE
          and v3.kind == FreenessVerdict.NOT_FREE and budget_ok)
    _report(1, ok, "is-free: xyz FREE (unit 1, diagonal), cross-ratio FREE, "
                   "four planes NOT_FREE, each under 5 s")


def test_criterion_02_normal_crossing_forms():
    ok = True
    for n in (2, 3, 4):
        names = [f"z{i+1}" for i in range(n)]
        h = Poly.constant(n, 1)
        for i in range(n):
            h = h * Poly.variable(n, i)
        d = Divisor(names, h, weights=(1,) * n)
        basis = is_free(d).basis
        for k in range(0, n + 1):
            gens = log_form_generators(basis, k)
            expected = []
            for I in form_basis(n, k):
                coeff = Poly.constant(n, 1)
                for j in range(n):
                    if j not in I:
                        coeff = coeff * Poly.variable(n, j)
                expected.append(monomial_form(n, k, n, I, coeff))
            if not submodules_equal(gens, expected, ORD):
                ok = False
    _report(2, ok, "log-form generators reproduce the z_J dz_I set on normal "
                   "crossings, n <= 4, all k, as submodule equality")


def test_criterion_03_pairing_gate(free_corpus):
    ok = True
    for name, (d, basis) in free_corpus.items():
        n = d.nvars
        gens = log_form_generators(basis, 1)
        uh = d.h.scale(basis.unit)
        for i, g in enumerate(gens):
            for j, f in enumerate(basis.fields()):
                val = Poly.zero(n)
                for l in range(n):
                    val = val + g.entries[l] * f.entries[l]
                if val != (uh if i == j else Poly.zero(n)):
                    ok = False
    _report(3, ok, "pairing matrix <h*omega_i, xi_j> = unit*h*delta on every "
                   "certified free divisor in the corpus")


def test_criterion_04_de_rham(nc2, nc3, calderon, four_planes_afd):
    t0 = time.monotonic()
    ok = True
    for d, basis in (nc2, nc3):
        mods = [forms_free(basis, k) for k in range(0, d.nvars + 1)]
        rep = de_rham_report_sliced(mods, 12)
        ok = ok and rep["all_exact"]
    d, basis = calderon
    mods = [forms_free(basis, k) for k in range(0, 4)]
    rep = de_rham_report_sliced(mods, 12, d.semipositive_weights())
    ok = ok and rep["all_exact"]
    setup = four_planes_afd
    mods = [forms_pullback(setup.e_basis, setup.map.components, setup.map.source_names,
                           k, weights=setup.weights) for k in range(0, 4)]
    rep = de_rham_report_sliced(mods, 12)
    ok = ok and rep["all_exact"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(4, ok, f"de Rham complexes exact in every degree on xy, xyz, cross-ratio, "
                   f"four-planes AFD ({elapsed:.1f} s < 60 s)")


def test_criterion_05_projective_dimension_one(free_corpus):
    ok = True
    for name, (d, basis) in free_corpus.items():
        for k in range(0, d.nvars + 1):
            gens = log_form_generators(basis, k)
            if any(not s.is_zero() for s in syzygy_module(gens, ORD)):
                ok = False
    _report(5, ok, "log-form generator sets have zero syzygies on all free "
                   "corpus divisors and all degrees")


def test_criterion_06_strict_inclusion(free_corpus):
    ok = True
    for name, (d, basis) in free_corpus.items():
        n = d.nvars
        dh = FreeElement([d.h.derivative(i) for i in range(n)])
        for k in range(1, n + 1):
            gens = log_form_generators(basis, k)
            kahler = [monomial_form(n, k, n, I, d.h) for I in form_basis(n, k)]
            for M in form_basis(n, k - 1):
                unit = monomial_form(n, k - 1, n, M, Poly.constant(n, 1))
                w = wedge(n, 1, dh, k - 1, unit)
                if not w.is_zero():
                    kahler.append(w)
            gb = groebner_basis(kahler, ORD)
            if not any(not is_member(g, gb, ORD) for g in gens):
                ok = False
    _report(6, ok, "h*log-forms strictly contain the ordinary Kahler relations "
                   "on every singular free corpus divisor, 1 <= k <= n")


def test_criterion_07_mu_routes(four_planes_family, four_planes_afd,
                                lips_disc, four_lines_total):
    d, basis = four_planes_family
    derham = mu_e_derham(four_planes_afd, bound=14)
    alt = mu_e_alternating(basis, [3])
    w = good_equation_witness(d.h, d.weights)
    good = mu_e_good_equation(d, [3], w)
    ok = derham == alt == good == 1
    # (pip) = (pop) on every weighted homogeneous 1-parameter free+freeing family
    for (dv, bs), s_idx in ((four_planes_family, 3), (lips_disc, 1), (four_lines_total, 3)):
        _, pip = t1_log(bs, [s_idx])
        wv = good_equation_witness(dv.h, dv.weights)
        pop = mu_e_good_equation(dv, [s_idx], wv)
        if pip != pop:
            ok = False
    _report(7, ok, "mu routes on the four-planes family all equal 1; relative-T1 "
                   "and annihilator routes agree on weighted homogeneous families")


def test_criterion_08_count_identity(four_planes_family, four_planes_afd,
                                     four_lines_total, four_lines_afd,
                                     four_lines_middle_afd):
    _, basis = four_planes_family
    _, t1a = t1_log(basis, [3])
    ok = mu_e_derham(four_planes_afd, bound=14) + 0 == t1a
    _, basis2 = four_lines_total
    _, t1b = t1_log(basis2, [2, 3], [3])
    mu0 = mu_e_derham(four_lines_afd, bound=10)
    mu1 = mu_e_derham(four_lines_middle_afd, bound=10)
    ok = ok and mu0 + mu1 == t1b and (mu0, mu1, t1b) == (3, 1, 4)
    _report(8, ok, "mu(fibre) + mu(total) = dim relative T1 on the four-planes "
                   "and four-lines one-parameter families")


def test_criterion_09_damon_torsion_chain(lips_disc, lips_inclusion, lips_afd):
    mn = ["x", "y"]
    lips = [parse_poly("x", mn), parse_poly("y^3 + x^2*y", mn)]
    direct = ae_normal_space_direct(lips)
    _, basisF = lips_disc
    damon = ae_codim_damon(basisF, lips_inclusion, weights=(1, 3))
    m1 = forms_pullback(lips_afd.e_basis, lips_afd.map.components,
                        lips_afd.map.source_names, 1, weights=(1, 3))
    tors = torsion_length(m1)
    ok = direct == damon == tors == 1
    # fold: all three vanish
    fold = [parse_poly("x", mn), parse_poly("y^2", mn)]
    fdirect = ae_normal_space_direct(fold)
    fn = ["A", "B"]
    DF = Divisor(fn, parse_poly("B", fn), weights=(1, 2))
    vb = is_free(DF).basis
    incl = InducingMap(fn, fn, [parse_poly("A", fn), parse_poly("B", fn)])
    fdamon = ae_codim_damon(vb, incl, weights=(1, 2))
    mf = forms_pullback(vb, incl.components, fn, 1, weights=(1, 2))
    ftors = torsion_length(mf)
    ok = ok and fdirect == fdamon == ftors == 0
    _report(9, ok, "lips: direct = Damon = torsion = 1; fold: all three 0")


def test_criterion_10_torsion_class(four_planes_afd):
    setup = four_planes_afd
    args = (setup.e_basis, setup.map.components, setup.map.source_names)
    m2 = forms_pullback(*args, 2, weights=setup.weights)
    ok = torsion_length(m2) == 1
    chi = euler_field((1, 1, 1), 3)
    vol = monomial_form(3, 3, 3, (0, 1, 2), Poly.constant(3, 1))
    cls = contract(3, 3, chi, vol)
    ok = ok and not m2.class_is_zero(cls) and is_member(cls, maximal_ideal_chain(m2)[0], m2.order())
    _report(10, ok, "codim-1 AFD: torsion length 1 and the radial contraction "
                    "of the volume form is a nonzero torsion class")


def test_criterion_11_fitting_reduced(four_planes_family):
    _, basis = four_planes_family
    reduced, chi, dim = ke_discriminant_reduced(basis, 3)
    ok = reduced and dim == 1 and chi == Poly.variable(1, 0)
    _report(11, ok, "miniversal four-planes family: zeroth Fitting ideal over "
                    "the base equals the maximal ideal, exactly")


def test_criterion_12_determinism():
    records_a, records_b = [], []
    for jobfile in sorted(JOBS.glob("*.job")):
        text = jobfile.read_text()
        records_a.append(json.dumps(run_job(parse_job(text)), sort_keys=True))
        records_b.append(json.dumps(run_job(parse_job(text)), sort_keys=True))
    ok = records_a == records_b
    # end-to-end byte identity through the executable, seed 0
    cmd = [sys.executable, "-m", "logforms.cli", "--input",
           str(JOBS / "mu_e_four_planes.job"), "--seed", "0"]
    out1 = subprocess.run(cmd, capture_output=True).stdout
    out2 = subprocess.run(cmd, capture_output=True).stdout
    ok = ok and out1 == out2 and len(out1) > 0
    _report(12, ok, "full job corpus run twice with seed 0 is byte-identical")
