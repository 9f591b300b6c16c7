"""Series division, the route the package used to expand convergents before
the Dyck-path sum.  The tests keep it as the reference for the path sum:
substitute a value for C, split h and k by powers of z, and long-divide the
two series.  Its own unit tests are in test_polyring.py."""

from catwords.polyring import Polynomial, Series, Z, exponents, monomial


def series_from_poly(p, order):
    """Split p by powers of z into the coefficients of a series through the order."""
    buckets = [{} for _ in range(order + 1)]
    for key, coeff in p.sorted_terms():
        powers = exponents(key)
        zdeg = powers.pop(Z, 0)
        if zdeg <= order:
            buckets[zdeg][monomial(powers)] = coeff
    return Series(map(Polynomial, buckets))


def series_div(num, den):
    """num / den by long division, q_n = num_n - sum_{j=1..n} den_j q_{n-j}."""
    if not den.coefficient(0).is_one():
        raise ValueError("series division requires denominator constant 1")
    quot = []
    for n in range(min(num.order, den.order) + 1):
        acc = num.coefficient(n)
        for j in range(1, n + 1):
            acc = acc - den.coefficient(j) * quot[n - j]
        quot.append(acc)
    return Series(quot)


def expand_ratio(numerator, denominator, order):
    """Expand numerator / denominator as a series through the given order."""
    return series_div(series_from_poly(numerator, order), series_from_poly(denominator, order))
