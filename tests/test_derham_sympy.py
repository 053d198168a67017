"""The `derham` count against its second implementation in sympy
(`derham_sympy`): on generic arrangements both give C(m-1, n).  The module
skips when sympy is missing."""

from itertools import combinations
from math import comb

import pytest

from logforms.deformation import mu_e_derham

from conftest import arrangement_setup, independent

pytest.importorskip("sympy")
from derham_sympy import derham_count  # noqa: E402  (needs sympy)

ARRANGEMENTS = {
    "C2-m4": [(1, 0), (0, 1), (1, 1), (1, 2)],
    "C2-m5": [(1, 0), (0, 1), (1, 1), (1, 2), (1, -1)],
    "C3-m4": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    "C3-m5": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)],
}


@pytest.mark.parametrize("label", sorted(ARRANGEMENTS))
def test_derham_count_matches_sympy(label):
    rows = ARRANGEMENTS[label]
    n, m = len(rows[0]), len(rows)
    assert all(independent([rows[i] for i in s]) for s in combinations(range(m), n))
    assert derham_count(rows) == comb(m - 1, n) == mu_e_derham(arrangement_setup(rows))
