"""Unit and property tests for the exact polynomial and series layer."""

import json
import re
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import example
from hypothesis import strategies as st

from catwords.polyring import (
    C,
    Polynomial,
    Series,
    V,
    Variable,
    Z,
    exponents,
    letter,
    monomial,
    monomial_str,
    series_mul,
)

# Series division is no longer part of the package; the tests of it below check
# the reference route that the path-sum property test in test_cfrac compares with.
from series_reference import series_div, series_from_poly
from plain_reference import polynomial_plain

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


def test_variable_names():
    names = [Z.name, C.name, V.name, letter(3).name, letter(12).name]
    assert names == ["z", "C", "V", "v3", "v12"]
    assert Variable(9) == letter(7)
    with pytest.raises(ValueError, match=r"^letter index must be >= 1, got 0$"):
        letter(0)
    with pytest.raises(ValueError, match=r"^variable slot must be >= 0, got -1$"):
        Variable(-1)
    for bad in (1.5, True, "3"):
        message = f"variable slot must be an int, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Variable(bad)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
def test_letter_rejects_a_non_int_index(bad):
    message = f"letter index must be an int, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        letter(bad)


def test_monomial_canonical_form():
    assert monomial() == monomial({})
    assert monomial() == 0  # the unit monomial
    assert monomial({Z: 2, V: 1}) == monomial([(V, 1), (Z, 2)])
    assert monomial({Z: 1}) != monomial({Z: 2})
    with pytest.raises(ValueError):
        monomial({Z: 0})
    with pytest.raises(ValueError):
        monomial({Z: -1})


def test_monomial_times_merges_exponents():
    m = monomial({Z: 1, V: 2}) + monomial({V: 1, C: 3})  # a product adds the keys
    assert m == monomial({Z: 1, V: 3, C: 3})
    assert monomial() + m == m


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


def test_specialize_is_simultaneous():
    swapped = (vp(1) + 2 * vp(2) ** 2).specialize({letter(1): vp(2), letter(2): vp(1)})
    assert swapped == vp(2) + 2 * vp(1) ** 2
    assert vp(1).specialize({letter(1): vp(1) + 1}) == vp(1) + 1


def test_constant_term_and_predicates():
    p = 5 - z
    assert p.constant_term == 5
    assert ZERO.is_zero()
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


def inverse(s):
    """The series 1 / s, as the quotient of the unit series by s."""
    return series_div(one_series(s.order), s)


def test_series_inverse_geometric():
    s = series_from_poly(ONE - z, 4)
    assert inverse(s) == Series([1, 1, 1, 1, 1])


def test_series_inverse_single_letter():
    # Oracle: the only Catalan word over letter 1 of each length is 1^n,
    # so the expansion of 1/(1 - z v1) must be sum of v1^n z^n.
    s = series_from_poly(ONE - z * vp(1), 3)
    assert inverse(s) == Series([ONE, vp(1), vp(1) ** 2, vp(1) ** 3])


def test_series_inverse_of_one():
    assert inverse(one_series(5)) == one_series(5)


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError, match="constant 1"):
        inverse(Series([2, 1]))
    with pytest.raises(ValueError, match="constant 1"):
        inverse(Series([Vp, ONE]))


def test_series_div_matches_inverse_route():
    num = series_from_poly(ONE - z * vp(2), 6)
    den = series_from_poly(ONE - z * vp(1) - z * vp(2), 6)
    assert series_div(num, den) == series_mul(num, inverse(den))
    with pytest.raises(ValueError, match="constant 1"):
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


# -- JSON ---------------------------------------------------------------------


def test_polynomial_json_order():
    p = ONE - z * Vp * Cp - 2 * z + z**2 * Vp * Cp
    obj = json.loads(p.format_json())
    assert obj[0] == {"coeff": "1", "monomial": {}}
    assert obj[1] == {"coeff": "-1", "monomial": {"z": 1, "C": 1, "V": 1}}
    assert list(obj[1]["monomial"]) == ["z", "C", "V"]
    assert obj[2] == {"coeff": "-2", "monomial": {"z": 1}}
    # coefficients serialize as decimal strings even when huge
    big = Polynomial.constant(16796**5)
    assert json.loads(big.format_json()) == [{"coeff": str(16796**5), "monomial": {}}]


# -- properties ---------------------------------------------------------------

variables = st.sampled_from([Z, V, C, letter(1), letter(2), letter(3)])
monomials = st.dictionaries(variables, st.integers(1, 3), max_size=3).map(monomial)
coefficients = st.integers(-9, 9).filter(lambda n: n != 0)
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)


def assert_canonical(p):
    for key, coeff in p.sorted_terms():
        assert coeff != 0
        assert all(exp > 0 for _, exp in exponents(key).items())
        assert monomial(exponents(key)) == key


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
    # Each route back to a known value cancels terms inside the operation, so a
    # stored zero coefficient would show up there.
    assert (a * (vp(1) - vp(2))).specialize({letter(1): vp(2)}).is_zero()
    num, den = series_from_poly(a, 3), series_from_poly(ONE + z * b, 3)
    quotient, product = series_div(num, den), series_mul(num, den)
    assert series_mul(quotient, den) == num and series_div(product, den) == num
    results = [a + b, a - b, a * b, -a, a.specialize({letter(1): vp(2) - 1, V: -1})]
    for series in (num, den, quotient, product):
        results.extend(series.coefficients)
    for result in results:
        assert_canonical(result)


@given(polynomials, st.integers(-3, 3), st.integers(-3, 3))
def test_specialize_composes_on_disjoint_domains(p, a, b):
    first = {letter(1): Polynomial.constant(a)}
    second = {V: Polynomial.constant(b)}
    assert p.specialize(first).specialize(second) == p.specialize({**first, **second})


zfree_monomials = st.dictionaries(
    st.sampled_from([V, letter(1)]), st.integers(1, 2), max_size=2
).map(monomial)
zfree_polynomials = st.dictionaries(zfree_monomials, coefficients, max_size=2).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(st.lists(zfree_polynomials, min_size=0, max_size=20))
def test_inverse_roundtrip(tail):
    s = Series([ONE, *tail])
    assert s.order <= 20
    assert series_mul(s, inverse(s)) == one_series(s.order)


# -- slot layout against the rank-based reference --------------------------------


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
    unique = list({monomial(powers): powers for powers in maps}.items())
    by_slot = Polynomial({key: 1 for key, _ in unique}).sorted_terms()
    by_rank = sorted(unique, key=lambda item: reference_sort_key(item[1]))
    assert [key for key, _ in by_slot] == [key for key, _ in by_rank]
    for key, powers in unique:
        assert monomial_str(key) == reference_display(powers)
        assert repr(Polynomial({key: 1})) == reference_display(powers)
        names = [v.name for v, _ in sorted(powers.items(), key=lambda i: reference_ranks(i[0]))]
        assert list(json.loads(Polynomial({key: 1}).format_json())[0]["monomial"]) == names
        by_slot_powers = sorted(powers.items(), key=lambda item: item[0].slot)
        assert list(exponents(key).items()) == by_slot_powers


plain_coeffs = st.sampled_from([1, -1, 2, -2, 2**80, -(2**80)])


@given(st.dictionaries(st.builds(monomial, power_maps), plain_coeffs))
@example({})
@example({monomial(): 1, monomial({Z: 1}): -1, monomial({V: 1}): 1})
@example({monomial(): -(2**80), monomial({V: 2, letter(12): 1}): 2, monomial({C: 1}): -1})
def test_format_plain_matches_reference(terms):
    p = Polynomial(terms)
    assert p.format_plain() == polynomial_plain(p)
    assert p.format_plain(ascending=True) == polynomial_plain(p, ascending=True)


# -- packed keys: coefficient types and the field limit -------------------------


def test_coefficients_must_be_ints():
    p = 1 + z
    for bad in (True, False, 0.5, 2.0, "x"):
        for operate in (
            lambda: p + bad,
            lambda: p - bad,
            lambda: bad - p,
            lambda: p * bad,
            lambda: p.specialize({V: bad}),
        ):
            with pytest.raises(TypeError):
                operate()
        assert (p == bad) is False
        with pytest.raises(TypeError):
            Polynomial({monomial(): bad})
        with pytest.raises(TypeError):
            Polynomial.constant(bad)
        with pytest.raises(TypeError):
            Series([bad, 2])
    with pytest.raises(ValueError):
        Polynomial({-1: 1})
    assert Polynomial({monomial(): 2}) == 2
    assert (Series([1]) == 1) is False


def test_exponent_limit_raises_and_never_wraps():
    top = 2**31 - 1
    edge = Polynomial({monomial({V: top}): 1})
    assert [exponents(key) for key, _ in edge.sorted_terms()] == [{V: top}]
    assert json.loads(edge.format_json()) == [{"coeff": "1", "monomial": {"V": top}}]
    with pytest.raises(OverflowError, match=r"^an exponent reached 2\^31$"):
        edge * Vp
    half = Polynomial({monomial({V: 2**30, letter(1): 1}): 1})
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        half.specialize({letter(1): Polynomial({monomial({V: 2**30}): 1})})
    with pytest.raises(OverflowError, match=r"^exponent of V must be below 2\^31, got 2147483648$"):
        monomial({V: 2**31})
    with pytest.raises(OverflowError):
        Polynomial({monomial({V: top}) + monomial({V: 1}): 1})


# -- packed keys against the tuple-keyed reference ------------------------------

# The representation before monomials were packed into ints: a dict from the
# tuple of exponents by slot, with no trailing zeros, to a nonzero int.
REFERENCE_VARIABLES = [Z, C, V, letter(1), letter(2), letter(3)]  # listed by slot


def ref_from_powers(powers):
    exps = [0] * len(REFERENCE_VARIABLES)
    for var, exp in powers.items():
        exps[var.slot] = exp
    while exps and not exps[-1]:
        exps.pop()
    return tuple(exps)


def ref_add(a, b, sign=1):
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0) + sign * coeff
        if not out[mono]:
            del out[mono]
    return out


def ref_mul(a, b):
    out = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(x + y for x, y in zip_longest(mono_a, mono_b, fillvalue=0))
            out = ref_add(out, {mono: coeff_a * coeff_b})
    return out


def ref_specialize(a, var, value):
    out = {}
    for mono, coeff in a.items():
        exp = mono[var.slot] if var.slot < len(mono) else 0
        kept = ref_from_powers({v: e for v, e in zip(REFERENCE_VARIABLES, mono) if v != var})
        piece = {kept: coeff}
        for _ in range(exp):
            piece = ref_mul(piece, value)
        out = ref_add(out, piece)
    return out


def ref_series_div(num, den):
    quot = [num[0]]
    for n in range(1, min(len(num), len(den))):
        acc = num[n]
        for j in range(1, n + 1):
            acc = ref_add(acc, ref_mul(den[j], quot[n - j]), -1)
        quot.append(acc)
    return quot


def ref_sort_key(mono):
    return (mono[0] if mono else 0, tuple(-e for e in mono[1:]) + (1,))


def assert_matches_reference(packed, ref):
    """Equal term for term, and listed in the same order by sorted_terms."""
    expected = [
        (monomial({v: e for v, e in zip(REFERENCE_VARIABLES, mono) if e}), coeff)
        for mono, coeff in sorted(ref.items(), key=lambda item: ref_sort_key(item[0]))
    ]
    assert packed.sorted_terms() == expected


def reference_polynomials(names, max_size=5):
    powers = st.dictionaries(st.sampled_from(names), st.integers(1, 3), max_size=3)
    return st.dictionaries(powers.map(ref_from_powers), coefficients, max_size=max_size)


def packed(ref):
    return Polynomial(
        {monomial({v: e for v, e in zip(REFERENCE_VARIABLES, m) if e}): c for m, c in ref.items()}
    )


ref_polynomials = reference_polynomials(REFERENCE_VARIABLES)


@given(ref_polynomials, ref_polynomials, reference_polynomials([Z, V, C, letter(2)], 3))
def test_packed_arithmetic_matches_tuple_reference(a, b, value):
    assert_matches_reference(packed(a) + packed(b), ref_add(a, b))
    assert_matches_reference(packed(a) - packed(b), ref_add(a, b, -1))
    assert_matches_reference(packed(a) * packed(b), ref_mul(a, b))
    specialized = packed(a).specialize({letter(1): packed(value)})
    assert_matches_reference(specialized, ref_specialize(a, letter(1), value))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(reference_polynomials([V, C, letter(1)], 3), min_size=1, max_size=6),
    st.lists(reference_polynomials([V, C, letter(1)], 3), max_size=6),
)
def test_packed_series_div_matches_tuple_reference(num, den_tail):
    den = [{(): 1}, *den_tail]
    quot = series_div(Series(map(packed, num)), Series(map(packed, den)))
    expected = ref_series_div(num, den)
    assert quot.order == len(expected) - 1
    for coeff, ref in zip(quot.coefficients, expected):
        assert_matches_reference(coeff, ref)
