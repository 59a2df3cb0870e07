from fractions import Fraction

import pytest

from gaussq import QQi, I_POW


def test_arithmetic():
    a = QQi(Fraction(1, 2), 3)
    b = QQi(2, Fraction(-1, 3))
    assert a + b == QQi(Fraction(5, 2), Fraction(8, 3))
    assert a - a == QQi(0)
    assert a * QQi(1) == a
    assert (a * b) / b == a
    assert -a == QQi(Fraction(-1, 2), -3)


def test_division_and_conj():
    z = QQi(3, 4)
    assert z * z.conj() == QQi(25)
    assert (QQi(1) / z) * z == QQi(1)
    with pytest.raises(ZeroDivisionError):
        QQi(1) / QQi(0)


def test_i_powers():
    i = QQi.i()
    assert i * i == QQi(-1)
    assert list(I_POW) == [QQi(1), i, QQi(-1), -i]


def test_predicates():
    assert not QQi(0)
    assert QQi(0, 1)
    assert QQi(2).is_real() and not QQi(2, 1).is_real()
    assert QQi(1, 2).to_complex() == 1 + 2j
