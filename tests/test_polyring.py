"""Unit and property tests for the exact polynomial and series layer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import example
from hypothesis import strategies as st

from catwords.polyring import (
    C,
    Monomial,
    NonUnitConstantTerm,
    Polynomial,
    RecursiveAssignment,
    Series,
    V,
    Variable,
    Z,
    letter,
    series_div,
    series_from_poly,
    series_inverse,
    series_mul,
)

ONE = Polynomial.one()
ZERO = Polynomial.zero()
z = Polynomial.var(Z)
Vp = Polynomial.var(V)
Cp = Polynomial.var(C)


def vp(i):
    return Polynomial.var(letter(i))


def one_series(order):
    return Series([ONE] + [ZERO] * order)


# -- variables and monomials ------------------------------------------------


def test_variable_total_order():
    ordered = [Z, C, V, letter(1), letter(2), letter(10)]
    assert sorted([letter(10), V, letter(2), Z, letter(1), C]) == ordered


def test_variable_names():
    assert Variable("v7") == letter(7)
    assert letter(3).name == "v3"
    assert letter(3).index == 3
    assert V.index is None
    for bad in ("", "x", "v0", "v", "v01", "zz"):
        with pytest.raises(ValueError):
            Variable(bad)
    with pytest.raises(ValueError):
        letter(0)


def test_monomial_canonical_form():
    assert Monomial() == Monomial({})
    assert Monomial().is_unit()
    assert Monomial({Z: 2, V: 1}) == Monomial([(V, 1), (Z, 2)])
    assert Monomial({Z: 1}) != Monomial({Z: 2})
    with pytest.raises(ValueError):
        Monomial({Z: 0})
    with pytest.raises(ValueError):
        Monomial({Z: -1})


def test_monomial_times_merges_exponents():
    m = Monomial({Z: 1, V: 2}).times(Monomial({V: 1, C: 3}))
    assert m == Monomial({Z: 1, V: 3, C: 3})
    assert Monomial().times(m) == m


# -- polynomial arithmetic ---------------------------------------------------


def test_poly_add_cancellation():
    assert (ONE - z * vp(2)) + z * vp(2) == ONE


def test_poly_add_zero_is_identity():
    h2 = ONE - z * vp(2)
    assert h2 + ZERO == h2


def test_poly_add_merges_like_terms():
    assert z * vp(1) + z * vp(1) == 2 * z * vp(1)


def test_poly_mul_monomials():
    assert (z * vp(1)) * (z * vp(3)) == z**2 * vp(1) * vp(3)


def test_poly_mul_unit():
    p = 3 - 2 * z * Vp + z**2
    assert p * ONE == p


def test_poly_mul_difference_of_squares():
    assert (ONE - z) * (ONE + z) == ONE - z**2


def test_specialize_to_constants():
    p = ONE - z * vp(1) - z * vp(2)
    assert p.specialize({letter(1): 1, letter(2): 1}) == ONE - 2 * z


def test_specialize_empty_assignment():
    p = ONE - z * Vp * Cp
    assert p.specialize({}) == p


def test_specialize_renaming():
    assert vp(5).specialize({letter(5): Vp}) == Vp


def test_specialize_rejects_recursive_assignment():
    with pytest.raises(RecursiveAssignment):
        vp(1).specialize({letter(1): vp(1) + 1})
    with pytest.raises(RecursiveAssignment):
        (vp(1) + vp(2)).specialize({letter(1): vp(2), letter(2): 1})


def test_constant_term_and_predicates():
    p = 5 - z
    assert p.constant_term == 5
    assert not p.is_constant()
    assert Polynomial.constant(7).is_constant()
    assert ZERO.is_zero() and ZERO.is_constant()
    assert ONE.is_one()
    assert (z * 0) == ZERO


def test_pow():
    assert (ONE + z) ** 0 == ONE
    assert (ONE + z) ** 2 == ONE + 2 * z + z**2
    with pytest.raises(ValueError):
        (ONE + z) ** -1


# -- canonical term order and rendering --------------------------------------


def test_format_plain_canonical_order():
    den3 = ONE - z * Vp * Cp - 2 * z + z**2 * Vp * Cp
    assert den3.format_plain() == "1-zVC-2z+z^2VC"
    k3 = ONE - z * vp(1) - z * vp(2) - z * vp(3) + z**2 * vp(1) * vp(3)
    assert k3.format_plain() == "1-zv1-zv2-zv3+z^2v1v3"


def test_format_plain_ascending():
    p = Polynomial.constant(41) + Vp
    assert p.format_plain(ascending=True) == "41+V"
    assert p.format_plain() == "V+41"


def test_format_plain_edge_cases():
    assert ZERO.format_plain() == "0"
    assert (-ONE).format_plain() == "-1"
    assert (-(z * Vp)).format_plain() == "-zV"
    assert Polynomial.constant(-3).format_plain() == "-3"


def test_series_format_plain():
    s = Series([ONE, Vp, Vp + Vp**2])
    assert s.format_plain() == "1 + V z + (V+V^2) z^2"
    assert Series([ONE, ONE, Polynomial.constant(2)]).format_plain() == "1 + z + 2 z^2"
    assert Series([ZERO, ZERO]).format_plain() == "0"


# -- series operations --------------------------------------------------------


def test_series_from_poly_simple():
    s = series_from_poly(ONE - 2 * z, 3)
    assert s.coefficients == (ONE, Polynomial.constant(-2), ZERO, ZERO)


def test_series_from_poly_collects_by_z_power():
    k2 = ONE - z * vp(1) - z * vp(2)
    s = series_from_poly(k2, 2)
    assert s.coefficients == (ONE, -vp(1) - vp(2), ZERO)


def test_series_from_poly_truncates():
    s = series_from_poly(z**5, 3)
    assert s == Series([0, 0, 0, 0])


def test_series_mul_by_one():
    s = Series([1, 1, 2, 5])
    assert series_mul(s, one_series(3)) == s


def test_series_mul_catalan_square():
    # Independent oracle: direct convolution of the Catalan numbers 1, 1, 2, 5.
    cat = [1, 1, 2, 5]
    expected = [sum(cat[j] * cat[n - j] for j in range(n + 1)) for n in range(4)]
    assert expected == [1, 2, 5, 14]
    s = Series(cat)
    assert series_mul(s, s) == Series(expected)


def test_series_mul_truncates_to_min_order():
    a = Series([0, 1])  # z at order 1
    assert series_mul(a, a) == Series([0, 0])
    long = Series([1, 1, 1, 1, 1])
    short = Series([1, 1])
    assert series_mul(long, short).order == 1


def test_series_inverse_geometric():
    s = series_from_poly(ONE - z, 4)
    assert series_inverse(s) == Series([1, 1, 1, 1, 1])


def test_series_inverse_single_letter():
    # Oracle: the only Catalan word over letter 1 of each length is 1^n,
    # so the expansion of 1/(1 - z v1) must be sum of v1^n z^n.
    s = series_from_poly(ONE - z * vp(1), 3)
    assert series_inverse(s) == Series([ONE, vp(1), vp(1) ** 2, vp(1) ** 3])


def test_series_inverse_of_one():
    assert series_inverse(one_series(5)) == one_series(5)


def test_series_inverse_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        series_inverse(Series([2, 1]))
    with pytest.raises(NonUnitConstantTerm):
        series_inverse(Series([Vp, ONE]))


def test_series_div_matches_inverse_route():
    num = series_from_poly(ONE - z * vp(2), 6)
    den = series_from_poly(ONE - z * vp(1) - z * vp(2), 6)
    assert series_div(num, den) == series_mul(num, series_inverse(den))
    with pytest.raises(NonUnitConstantTerm):
        series_div(num, Series([2] + [0] * 6))


def test_series_validation():
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        Series([z])  # coefficients must be z-free
    with pytest.raises(TypeError):
        Series(["1"])
    s = Series([1, 2, 3])
    assert s.order == 2
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_series_add_and_shift():
    s = Series([1, 1, 2])
    assert s + 1 == Series([2, 1, 2])
    assert (1 - s) == Series([0, -1, -2])
    assert s.shift(1) == Series([0, 1, 1])
    assert s.shift(5) == Series([0, 0, 0])
    assert (s + Series([1, 1])).order == 1


# -- JSON ---------------------------------------------------------------------


def test_polynomial_json_roundtrip_and_order():
    p = ONE - z * Vp * Cp - 2 * z + z**2 * Vp * Cp
    obj = p.to_json_obj()
    assert obj[0] == {"coeff": "1", "monomial": {}}
    assert obj[1] == {"coeff": "-1", "monomial": {"z": 1, "C": 1, "V": 1}}
    assert obj[2] == {"coeff": "-2", "monomial": {"z": 1}}
    assert Polynomial.from_json_obj(obj) == p
    # coefficients serialize as decimal strings even when huge
    big = Polynomial.constant(16796**5)
    assert big.to_json_obj()[0]["coeff"] == str(16796**5)
    assert Polynomial.from_json_obj(big.to_json_obj()) == big


def test_series_json_roundtrip():
    s = series_from_poly(ONE - z * vp(1) - z * vp(2), 3)
    obj = s.to_json_obj()
    assert obj["order"] == 3
    assert Series.from_json_obj(obj) == s
    assert Series.from_json_obj(json.loads(json.dumps(obj))) == s
    with pytest.raises(ValueError):
        Series.from_json_obj({"order": 5, "coeffs": [[]]})


# -- properties ---------------------------------------------------------------

variables = st.sampled_from([Z, V, C, letter(1), letter(2), letter(3)])
monomials = st.dictionaries(variables, st.integers(1, 3), max_size=3).map(Monomial)
coefficients = st.integers(-9, 9).filter(lambda n: n != 0)
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)


def assert_canonical(p):
    for mono, coeff in p.sorted_terms():
        assert coeff != 0
        assert all(exp > 0 for _, exp in mono.powers)


@given(polynomials, polynomials, polynomials)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polynomials, polynomials)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polynomials, polynomials, polynomials)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polynomials, polynomials)
def test_operations_stay_canonical(a, b):
    for result in (a + b, a - b, a * b, -a):
        assert_canonical(result)


@given(polynomials, st.integers(-3, 3), st.integers(-3, 3))
def test_specialize_composes_on_disjoint_domains(p, a, b):
    first = {letter(1): Polynomial.constant(a)}
    second = {V: Polynomial.constant(b)}
    assert p.specialize(first).specialize(second) == p.specialize({**first, **second})


zfree_monomials = st.dictionaries(
    st.sampled_from([V, letter(1)]), st.integers(1, 2), max_size=2
).map(Monomial)
zfree_polynomials = st.dictionaries(zfree_monomials, coefficients, max_size=2).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(st.lists(zfree_polynomials, min_size=0, max_size=20))
def test_inverse_roundtrip(tail):
    s = Series([ONE, *tail])
    assert s.order <= 20
    assert series_mul(s, series_inverse(s)) == one_series(s.order)


# -- slot layout against the rank-based reference --------------------------------


def test_variable_names_must_be_ascii():
    for bad in ("v\u0663", "v\u00b9", "v\uff13", "v1\u0663", "v 3", "v3 ", "v+3", "v-3"):
        with pytest.raises(ValueError):
            Variable(bad)
    assert Variable("v12") == letter(12)


def test_from_json_rejects_inexact_numbers():
    for bad in (
        [{"coeff": 2.9, "monomial": {"z": 1.9}}],
        [{"coeff": 2, "monomial": {"z": 1.9}}],
        [{"coeff": 2.0, "monomial": {"z": 1}}],
        [{"coeff": True, "monomial": {}}],
        [{"coeff": "2", "monomial": {"V": True}}],
        [{"coeff": "2.5", "monomial": {}}],
        [{"coeff": "\u0663", "monomial": {}}],
    ):
        with pytest.raises(ValueError):
            Polynomial.from_json_obj(bad)
    with pytest.raises(ValueError):
        Series.from_json_obj({"order": 0.5, "coeffs": [[]]})
    obj = [{"coeff": 3, "monomial": {"z": 2}}, {"coeff": "-12", "monomial": {"V": 1}}]
    assert Polynomial.from_json_obj(obj) == 3 * z**2 - 12 * Vp


# The term order and display order as they were defined before variables had
# slots: each variable has a sort rank and a display rank, and a term key
# compares (rank, -exponent) pairs ended by a sentinel ranked after them all.
REFERENCE_SORT_RANKS = {"z": (0, 0), "C": (1, 0), "V": (2, 0)}
REFERENCE_DISPLAY_RANKS = {"z": (0, 0), "V": (1, 0), "C": (3, 0)}
REFERENCE_SENTINEL = ((4, 0), 0)


def reference_ranks(var):
    if var.name in REFERENCE_SORT_RANKS:
        return REFERENCE_SORT_RANKS[var.name], REFERENCE_DISPLAY_RANKS[var.name]
    return (3, int(var.name[1:])), (2, int(var.name[1:]))


def reference_sort_key(powers):
    ranked = sorted((reference_ranks(var)[0], exp) for var, exp in powers.items())
    if ranked and ranked[0][0] == (0, 0):
        zdeg, rest = ranked[0][1], ranked[1:]
    else:
        zdeg, rest = 0, ranked
    return (zdeg, tuple((rank, -exp) for rank, exp in rest) + (REFERENCE_SENTINEL,))


def reference_display(powers):
    factors = sorted(powers.items(), key=lambda item: reference_ranks(item[0])[1])
    return "".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in factors) or "1"


slot_variables = st.sampled_from([Z, C, V] + [letter(i) for i in range(1, 13)])
power_maps = st.dictionaries(slot_variables, st.integers(1, 4), max_size=6)


@given(st.lists(power_maps, max_size=10))
@example([{Z: 3}, {C: 2}, {}, {Z: 1, C: 1}, {V: 1, letter(12): 2}, {Z: 1, letter(7): 1}])
def test_slot_order_and_display_match_reference(maps):
    unique = list({Monomial(powers): powers for powers in maps}.items())
    by_slot = sorted(unique, key=lambda item: item[0].sort_key())
    by_rank = sorted(unique, key=lambda item: reference_sort_key(item[1]))
    assert [mono for mono, _ in by_slot] == [mono for mono, _ in by_rank]
    for mono, powers in unique:
        assert mono.display_str() == reference_display(powers)
        assert repr(mono) == reference_display(powers)
        names = [v.name for v, _ in sorted(powers.items(), key=lambda i: reference_ranks(i[0]))]
        assert list(Polynomial({mono: 1}).to_json_obj()[0]["monomial"]) == names
        assert mono.powers == tuple(sorted(powers.items()))
        assert not mono or mono[-1] > 0  # no trailing zero exponents
