"""The cheapest `derham-slices` and `syzygy-ladder` benchmark cases give their
known answers, so a wrong answer on the slice route or the Groebner/syzygy
kernel fails the test suite as well as the benchmark."""

import importlib.util
from pathlib import Path

import pytest

CASES = Path(__file__).resolve().parent.parent / "bench" / "cases.py"


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


@pytest.mark.parametrize("case_id", ["torsion/C3-m4", "torsion/C3-m5", "kev/C3-m4",
                                     "is-free/A3", "is-free/C3-m6"])
def test_syzygy_ladder_known_answer(syzygy_cases, case_id):
    case = syzygy_cases[case_id]
    assert case.run() == case.expected
