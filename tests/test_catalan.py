"""Tests for the Catalan series against closed forms and direct enumeration."""

import math

import pytest

from catwords.catalan import (
    catalan_numbers,
    catalan_series,
    check_functional_equation,
    functional_equation_holds,
)
from catwords.oracle import enumerate_words
from catwords.polyring import Polynomial, Series, series_mul


def test_first_values():
    s = catalan_series(4)
    assert s == Series([1, 1, 2, 5, 14])
    assert s.format_plain() == "1 + z + 2 z^2 + 5 z^3 + 14 z^4"


def test_order_zero():
    assert catalan_series(0) == Series([1])
    with pytest.raises(ValueError):
        catalan_numbers(-1)


def test_tenth_coefficient_matches_enumeration():
    # Independent oracle: count the length-10 Catalan words one by one.
    count = sum(1 for _ in enumerate_words(10))
    assert catalan_series(10).coefficient(10) == Polynomial.constant(count)
    assert count == 16796


@pytest.mark.parametrize("n", range(31))
def test_closed_form(n):
    assert catalan_numbers(30)[n] == math.comb(2 * n, n) // (n + 1)


def test_coefficients_positive_and_nondecreasing():
    values = catalan_numbers(30)
    assert values[0] == 1
    assert all(v > 0 for v in values)
    assert all(values[n + 1] >= values[n] for n in range(1, 29))


def test_functional_equation():
    assert check_functional_equation(10)
    assert check_functional_equation(1)
    with pytest.raises(ValueError):
        check_functional_equation(0)


def test_functional_equation_detects_perturbation():
    coeffs = list(catalan_series(10).coefficients)
    coeffs[3] = coeffs[3] + 1
    assert not functional_equation_holds(Series(coeffs))
    # 1 + 2z: right at z^0, wrong at z^1, and no higher coefficient to check.
    assert not functional_equation_holds(Series([1, 2]))


def test_series_is_inverse_of_one_minus_z_c():
    n = 12
    c = catalan_series(n)
    one_minus_zc = Series([1, *(-count for count in catalan_numbers(n - 1))])
    assert series_mul(c, one_minus_zc) == Series([1] + [0] * n)
