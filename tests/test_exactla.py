import random
from fractions import Fraction

import pytest

from algebra_oracle import kernel, mat, rank, rref
from float_oracle import float_classify, float_eigen_oracle
from gaussq import QQi
from minorbit.exactla import (DefinitenessClass, hermitian_classify, inertia,
                              is_hermitian)

D = DefinitenessClass


def test_classify_basics():
    assert hermitian_classify(mat([[1, 0], [0, 1]])) == D.POSITIVE_DEFINITE
    assert hermitian_classify(mat([[0, 1], [1, 0]])) == D.INDEFINITE
    assert hermitian_classify(mat([[1, 1], [1, 0]])) == D.INDEFINITE
    assert hermitian_classify(mat([[0, 0], [0, 0]])) == D.ZERO
    assert hermitian_classify([]) == D.ZERO
    assert hermitian_classify(mat([[1, 0], [0, 0]])) == \
        D.POSITIVE_SEMIDEFINITE_NONZERO
    assert hermitian_classify(mat([[-2]])) == D.NEGATIVE_DEFINITE
    assert hermitian_classify(mat([[-1, 0], [0, 0]])) == \
        D.NEGATIVE_SEMIDEFINITE_NONZERO


def test_classify_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_classify(mat([[0, 1], [2, 0]]))
    m = [[QQi(0, 1)]]
    with pytest.raises(ValueError):
        hermitian_classify(m)


def test_complex_hermitian_and_zero_diagonal_blocks():
    m = [[QQi(0), QQi(0, 1)], [QQi(0, -1), QQi(0)]]
    assert is_hermitian(m)
    assert hermitian_classify(m) == D.INDEFINITE
    # 4x4 with zero diagonal needs the 2x2 block pivot path
    m4 = [[QQi(0)] * 4 for _ in range(4)]
    m4[0][2] = QQi(1, 2)
    m4[2][0] = QQi(1, -2)
    m4[1][3] = QQi(3)
    m4[3][1] = QQi(3)
    assert inertia(m4) == (2, 2, 0)


def test_flipped_labels():
    assert D.POSITIVE_DEFINITE.flipped() == D.NEGATIVE_DEFINITE
    assert D.INDEFINITE.flipped() == D.INDEFINITE
    assert D.ZERO.flipped() == D.ZERO


def test_inertia_known():
    assert inertia(mat([[2, 0], [0, -3]])) == (1, 1, 0)
    assert inertia(mat([[1, 1], [1, 1]])) == (1, 0, 1)


def test_kernel_rank():
    m = mat([[0, 0], [0, 0]])
    assert len(kernel(m)) == 2
    m = mat([[1, 0], [0, 0]])
    ker = kernel(m)
    assert len(ker) == 1 and ker[0][0] == QQi(0) and ker[0][1] == QQi(1)
    assert rank(m) == 1


def test_planted_rank_kernel():
    rng = random.Random(5)
    B = [[QQi(rng.randint(-3, 3)) for _ in range(4)] for _ in range(6)]
    C = [[QQi(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
    M = [[sum((B[i][k] * C[k][j] for k in range(4)), QQi(0))
          for j in range(6)] for i in range(6)]
    assert rank(M) == 4
    ker = kernel(M)
    assert len(ker) == 2
    for v in ker:
        img = [sum((M[i][j] * v[j] for j in range(6)), QQi(0))
               for i in range(6)]
        assert all(not x for x in img)


def test_rank_kernel_dimension_identity_random():
    rng = random.Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[QQi(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(cols)]
             for _ in range(rows)]
        assert rank(m) + len(kernel(m)) == cols


def test_float_oracle_values():
    ev = float_eigen_oracle(mat([[2, 0], [0, -3]]))
    assert ev == [-3.0, 2.0]
    with pytest.raises(ValueError):
        float_eigen_oracle(mat([[0, 1], [2, 0]]))


def _random_hermitian(rng, n):
    b = [[QQi(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
          for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        return [[sum((b[k][i].conj() * b[k][j] for k in range(n)), QQi(0))
                 for j in range(n)] for i in range(n)]
    return [[b[i][j] + b[j][i].conj() for j in range(n)] for i in range(n)]


def test_exact_matches_float_randomized():
    rng = random.Random(11)
    for _ in range(500):
        m = _random_hermitian(rng, rng.randint(1, 6))
        assert hermitian_classify(m) == float_classify(m)


def test_kernel_lemma_property():
    # D + A semidefinite with D = diag part  =>  ker D inside ker(D + A)
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        G = [[QQi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(k)]
        M = [[sum((G[t][i].conj() * G[t][j] for t in range(k)), QQi(0))
              for j in range(n)] for i in range(n)]
        assert hermitian_classify(M).is_semidefinite()
        for i in range(n):
            if not M[i][i]:
                assert all(not M[i][j] for j in range(n))


def test_rref_kernel_over_fractions():
    F = Fraction
    m = [[F(1, 2), F(1), F(0)], [F(1), F(2), F(1, 3)]]
    red, piv = rref(m)
    assert piv == [0, 2]
    assert red == [[1, 2, 0], [0, 0, 1]]
    assert rank(m) == 2
    ker = kernel(m)
    assert ker == [[-2, 1, 0]]
    assert all(type(x) is Fraction for row in red + ker for x in row)


def test_rref_inconsistent_system_pivots_in_augmented_column():
    F = Fraction
    # x + y = 2 and 2x + 2y = 5 have no solution; 2x + 2y = 4 has many
    assert rref([[F(1), F(1), F(2)], [F(2), F(2), F(5)]])[1] == [0, 2]
    assert rref([[F(1), F(1), F(2)], [F(2), F(2), F(4)]])[1] == [0]
    red, piv = rref(mat([[1, 0, 3], [0, 2, 4]]))
    assert piv == [0, 1] and red[1][2] == QQi(2)


def test_rref_pivots():
    red, piv = rref(mat([[0, 1], [0, 2]]))
    assert piv == [1]
    assert red[0][1] == QQi(1)
