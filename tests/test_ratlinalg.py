import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from nkdeform import ratlinalg
from nkdeform.errors import SpectrumError

import clifford_oracle
import slow_oracle


def test_inverse_round_trip():
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = ratlinalg.inverse(m)
    assert ratlinalg.mat_mul(m, inv) == [[1, 0], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        ratlinalg.inverse([[1, 2], [2, 4]])


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert len(slow_oracle.rref(m)[1]) == 2
    assert ratlinalg.integer_nullspace(m) == [(2, [-1, -1, 1])]
    assert ratlinalg.mat_vec(m, [-1, -1, 1]) == [0, 0, 0]


def test_charpoly_and_rational_roots():
    m = [[2, 0, 0], [0, 2, 0], [0, 0, -1]]
    coeffs = clifford_oracle.charpoly(m)
    roots = clifford_oracle.rational_roots(coeffs)
    assert roots == {F(2): 2, F(-1): 1}
    # fractional eigenvalues
    m = [[F(1, 2), 0], [1, F(-3, 2)]]
    assert clifford_oracle.rational_roots(clifford_oracle.charpoly(m)) == {
        F(1, 2): 1,
        F(-3, 2): 1,
    }
    # zero eigenvalues are peeled first
    m = [[0, 0], [0, 5]]
    assert clifford_oracle.rational_roots(clifford_oracle.charpoly(m)) == {
        F(0): 1, F(5): 1}


def test_rational_roots_rejects_irrational_spectrum():
    with pytest.raises(SpectrumError):
        clifford_oracle.rational_roots([F(1), F(0), F(-2)])  # t^2 - 2


def test_leading_principal_minors():
    m = [[-1, F(-3, 2)], [F(-3, 2), -3]]
    assert slow_oracle.leading_principal_minors(m) == [F(-1), F(3, 4)]


def test_det():
    assert slow_oracle.det([[1, 2], [3, 4]]) == -2
    assert slow_oracle.det([[1, 2], [2, 4]]) == 0


def _check_charpoly_against_det(m):
    n = len(m)
    coeffs = clifford_oracle.charpoly(m)
    assert len(coeffs) == n + 1
    for t in (F(0), F(1), F(-2), F(3, 7), F(-5, 2)):
        value = sum(c * t ** (n - k) for k, c in enumerate(coeffs))
        shifted = [
            [(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)
        ]
        assert value == slow_oracle.det(shifted)


def test_charpoly_matches_det_on_dense_rational_matrix():
    import random

    rng = random.Random(15)
    m = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(15)] for _ in range(15)]
    _check_charpoly_against_det(m)


def test_charpoly_matches_det_on_q_operator(rep):
    op = clifford_oracle.q_contraction_operator(rep, (F(3, 5), F(4, 5)) + (F(0),) * 6)
    _check_charpoly_against_det(op)


def test_common_denominator_and_integer_scaled():
    assert ratlinalg.common_denominator([F(1, 6), 2, F(-3, 4)]) == 12
    assert ratlinalg.common_denominator([]) == 1
    d, a = ratlinalg.integer_scaled([[F(1, 6), 2], [F(-3, 4), 0]])
    assert (d, a) == (12, [[2, 24], [-9, 0]])
    assert all(type(x) is int for row in a for x in row)


def test_integer_rank_matches_rational_row_reduction():
    # Products of random n x k and k x m rational matrices have rank <= k;
    # the integer elimination of `integer_nullspace` must agree with the
    # Fraction `rref`: each vector primitive, positive in its free column
    # and, over that entry, the rref kernel vector.
    import random

    rng = random.Random(23)
    for _ in range(40):
        n, m, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 5)
        left = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
                for _ in range(n)]
        right = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
                 for _ in range(k)]
        mat = (ratlinalg.mat_mul(left, right) if k
               else [[F(0)] * m for _ in range(n)])
        assert len(slow_oracle.rref(mat)[1]) <= min(n, m, k)
        kernel = ratlinalg.integer_nullspace(mat)
        assert all(w[c] > 0 and math.gcd(*w) == 1 for c, w in kernel)
        assert [[F(x, w[c]) for x in w] for c, w in kernel] == slow_oracle.nullspace(mat)


def _seeded_conjugate(rng, n, core):
    """basis * core * basis^-1 for a seeded invertible rational basis."""
    while True:
        basis = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
        if len(slow_oracle.rref(basis)[1]) == n:
            break
    return ratlinalg.mat_mul(ratlinalg.mat_mul(basis, core), ratlinalg.inverse(basis))


def test_charpoly_spectrum_matches_seeded_diagonal_matrices():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 7)
        values = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        diagonal = [rng.choice(values) for _ in range(n)]
        core = [[diagonal[i] if i == k else 0 for k in range(n)] for i in range(n)]
        dims = clifford_oracle.charpoly_spectrum(_seeded_conjugate(rng, n, core))
        assert dims == Counter(diagonal)
        assert all(type(lam) is F and type(dim) is int for lam, dim in dims.items())


@pytest.mark.parametrize(
    "core",
    [
        [[1, 1], [0, 1]],  # a Jordan block
        [[0, 2], [1, 0]],  # eigenvalues +-sqrt(2)
        [[3, 1, 0], [0, 3, 0], [0, 0, -2]],  # a Jordan block beside an eigenvector
    ],
)
def test_charpoly_spectrum_refuses_what_is_not_diagonalizable(core):
    for m in (core, _seeded_conjugate(random.Random(7), len(core), core)):
        with pytest.raises(SpectrumError):
            clifford_oracle.charpoly_spectrum(m)
