"""The Catalan number series and its defining identity."""

from __future__ import annotations

from .polyring import Polynomial, Series, _check_int, series_mul

__all__ = [
    "catalan_numbers",
    "catalan_series",
    "check_functional_equation",
    "functional_equation_holds",
]


def catalan_numbers(order: int) -> list[int]:
    """Catalan numbers C_0..C_order via C_{n+1} = C_n * 2(2n+1) / (n+2).

    The division is exact at every step, so the whole computation stays in
    integers.
    """
    _check_int("order", order, 0)
    values = [1]
    for n in range(order):
        quotient, remainder = divmod(values[-1] * 2 * (2 * n + 1), n + 2)
        if remainder:
            raise ArithmeticError(f"C_{n} * 2(2n+1) is not divisible by {n + 2}")
        values.append(quotient)
    return values


def catalan_series(order: int) -> Series:
    """The series whose z^n coefficient is the n-th Catalan number."""
    return Series([Polynomial.constant(c) for c in catalan_numbers(order)])


def functional_equation_holds(series: Series) -> bool:
    """Whether 1 + z * S(z)^2 == S(z) exactly through the order of S, that is
    S_0 = 1 and S_n = (S*S)_{n-1} for n >= 1."""
    coeffs, square = series.coefficients, series_mul(series, series).coefficients
    return coeffs[0].is_one() and all(coeffs[n] == square[n - 1] for n in range(1, len(coeffs)))


def check_functional_equation(order: int) -> bool:
    """Whether the Catalan series satisfies its defining identity through ``order``."""
    _check_int("order", order, 1)
    return functional_equation_holds(catalan_series(order))
