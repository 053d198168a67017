"""The cheapest `derham-slices` and `syzygy-ladder` benchmark cases give their
known answers, the golden records hold every answer the `cli-corpus` workload
checks, its generated germ jobs give their known codimensions, and every
benchmark input parses: so a wrong answer on the slice route, the
Groebner/syzygy kernel or the germ route, or a record change the benchmark
would count as a wrong answer, fails the test suite as well as the benchmark."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from logforms.cli import run_job
from logforms.jobio import parse_job

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "bench" / "cases.py"
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def bench_cases():
    spec = importlib.util.spec_from_file_location("bench_cases", CASES)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


@pytest.fixture(scope="module")
def derham_cases(bench_cases):
    return {c.id: c for c in bench_cases.derham_slices(1)}


@pytest.fixture(scope="module")
def syzygy_cases(bench_cases):
    return {c.id: c for c in bench_cases.syzygy_ladder(1)}


@pytest.mark.parametrize("case_id", ["mu-derham/C2-m5", "mu-derham/C3-m4",
                                     "de-rham-check/A3"])
def test_derham_slices_known_answer(derham_cases, case_id):
    case = derham_cases[case_id]
    assert case.run() == case.expected


@pytest.mark.parametrize("case_id", ["torsion/C3-m4", "torsion/C3-m5", "torsion/C3-m7",
                                     "torsion/C4-m5", "kev/C3-m4", "is-free/A3",
                                     "is-free/C3-m6"])
def test_syzygy_ladder_known_answer(syzygy_cases, case_id):
    case = syzygy_cases[case_id]
    assert case.run() == case.expected


@pytest.mark.parametrize("n, m, mu", [(3, 9, 56), (4, 7, 15)])
def test_torsion_above_the_ladder_known_answer(bench_cases, n, m, mu):
    """Two rungs above the ladder's, drawn at seed 11, where the torsion
    length is C(m-1, n) as on the ladder."""
    a = bench_cases.Arrangement(random.Random(11), n, m, {})
    assert a.mu == mu
    assert bench_cases._torsion(a) == mu


def test_golden_records_hold_the_corpus_answers(bench_cases):
    """Each corpus job's golden record holds every value `cli-corpus`
    expects of that job, read the way the benchmark reads it."""
    assert sorted(bench_cases.CORPUS) == sorted(p.stem for p in GOLDEN.glob("*.json"))
    wrong = {}
    for stem, expected in bench_cases.CORPUS.items():
        record = json.loads((GOLDEN / f"{stem}.json").read_text())
        answer = bench_cases.Job(stem, None, expected).answer(record)
        if answer != expected:
            wrong[stem] = answer
    assert not wrong


def test_cli_corpus_germs_give_their_known_codimension(bench_cases, tmp_path):
    """Each generated `cli-corpus` germ job, run in-process, records its known
    A_e-codimension as `ae_codim_direct`, flagged CERTIFIED."""
    germs = {stem for stem, _, _ in bench_cases.GERMS}
    wrong = {}
    for job in bench_cases.cli_corpus(1, ROOT, tmp_path):
        if job.id in germs:
            record = run_job(parse_job(job.path.read_text()))
            answer = job.answer(record)
            if answer != job.expected or record["flags"]["certified"] != "CERTIFIED":
                wrong[job.id] = answer, record["flags"]["certified"]
    assert len(germs) == 14 and not wrong


def test_every_benchmark_input_parses(bench_cases, tmp_path):
    """Every `cli-corpus` job parses, and so does every reflection
    arrangement of the ladders (B4 and D4 are the longest products): each a
    homogeneous product of as many planes as its exponents sum to."""
    for job in bench_cases.cli_corpus(1, ROOT, tmp_path):
        parse_job(job.path.read_text())
    for kind in ("A3", "B3", "D4", "B4", "A4"):
        h, names, exps = bench_cases._reflection(kind)
        assert h.is_homogeneous((1,) * len(names)) and h.total_degree() == sum(exps)
