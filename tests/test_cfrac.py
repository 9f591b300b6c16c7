"""Tests for convergents, tails, and the generating functions built from them."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catwords.catalan import catalan_numbers, catalan_series
from catwords.cfrac import (
    TAIL_CATALAN,
    TAIL_ONE,
    Convergent,
    InsufficientQuotients,
    LetterGF,
    PartialQuotient,
    _divide_one_minus_v,
    _expand_with_tail,
    _letter_parts,
    _letter_rows,
    _path_sum,
    bounded_letter_series,
    convergent,
    generic_quotients,
    gf_full,
    letter_gf_series,
    rational_form,
    unweighted_series,
)
from catwords.oracle import letter_histogram, monomial_multiset
from catwords.polyring import C, Polynomial, Series, V, Z, exponents, letter, monomial
from series_reference import expand_ratio

ONE = Polynomial.one()
z = Polynomial.var(Z)
Vp = Polynomial.var(V)
Cp = Polynomial.var(C)


def vp(i):
    return Polynomial.var(letter(i))


def catalan_polynomial(order):
    """The Catalan series truncated at the order, as a polynomial in z."""
    return sum((c * z**n for n, c in enumerate(catalan_numbers(order))), Polynomial.zero())


def expand_by_substitution(h, k, tail_value, order):
    """Reference route: substitute a value for C in h and k and divide the two series.

    The package expanded convergents this way before the Dyck-path sum."""
    tail = {C: tail_value}
    return expand_ratio(h.specialize(tail), k.specialize(tail), order)


# -- plain convergents --------------------------------------------------------


def test_convergent_table_rows():
    quotients = generic_quotients(4)
    expected = {
        0: (ONE, ONE),
        1: (ONE, ONE - z * vp(1)),
        2: (ONE - z * vp(2), ONE - z * vp(1) - z * vp(2)),
        3: (
            ONE - z * vp(2) - z * vp(3),
            ONE - z * vp(1) - z * vp(2) - z * vp(3) + z**2 * vp(1) * vp(3),
        ),
    }
    for depth, (h, k) in expected.items():
        conv = convergent(depth, quotients)
        assert conv.h == h
        assert conv.k == k


def test_convergent_requires_enough_quotients():
    with pytest.raises(InsufficientQuotients):
        convergent(3, generic_quotients(2))


def test_quotient_and_convergent_validation():
    with pytest.raises(ValueError):
        PartialQuotient(0, z)
    with pytest.raises(ValueError):
        Convergent(1, ONE, z + 2)  # denominator constant term must be 1
    with pytest.raises(ValueError):
        LetterGF(1, ONE, 2 * ONE - z)
    with pytest.raises(ValueError):
        LetterGF(0, ONE, ONE)
    with pytest.raises(ValueError):
        convergent(-1, generic_quotients(1))
    with pytest.raises(ValueError):
        bounded_letter_series(0, 3)


# -- classical identities -------------------------------------------------------


@pytest.mark.parametrize("depth", range(1, 11))
def test_determinant_identity(depth):
    quotients = generic_quotients(depth)
    upper = convergent(depth, quotients)
    lower = convergent(depth - 1, quotients)
    product = ONE
    for q in quotients:
        product = product * q.value
    assert upper.h * lower.k - lower.h * upper.k == product


@pytest.mark.parametrize("n", range(1, 9))
def test_numerator_is_shifted_previous_denominator(n):
    quotients = generic_quotients(n)
    h_n = convergent(n, quotients).h
    k_prev = convergent(n - 1, quotients).k
    assert h_n == k_prev.specialize({letter(j): vp(j + 1) for j in range(1, n)})


# -- full multivariate expansion -------------------------------------------------


def test_gf_full_depth_five_through_order_three():
    series = gf_full(5, TAIL_CATALAN, 3)
    assert series.coefficient(0) == ONE
    assert series.coefficient(1) == vp(1)
    assert series.coefficient(2) == vp(1) * vp(2) + vp(1) ** 2
    assert series.coefficient(3) == (
        vp(1) * vp(2) * vp(3) + vp(1) * vp(2) ** 2 + 2 * vp(1) ** 2 * vp(2) + vp(1) ** 3
    )


def test_gf_full_depth_three_same_low_coefficients():
    series = gf_full(3, TAIL_CATALAN, 3)
    assert series.coefficient(3) == (
        vp(1) * vp(2) * vp(3) + vp(1) * vp(2) ** 2 + 2 * vp(1) ** 2 * vp(2) + vp(1) ** 3
    )


def test_gf_full_single_letter_bounded():
    series = gf_full(1, TAIL_ONE, 4)
    assert series == Series([ONE, vp(1), vp(1) ** 2, vp(1) ** 3, vp(1) ** 4])


def test_gf_full_validation():
    with pytest.raises(ValueError):
        gf_full(0, TAIL_CATALAN, 3)
    with pytest.raises(ValueError):
        gf_full(2, TAIL_CATALAN, -1)
    with pytest.raises(ValueError):
        gf_full(2, "somewhere", 3)
    # The row generator the CLI streams checks its inputs at the call, before
    # the first row is asked for.
    for generic in (True, False):
        with pytest.raises(ValueError):
            _expand_with_tail(0, TAIL_CATALAN, 3, generic)
        with pytest.raises(ValueError):
            _expand_with_tail(2, TAIL_CATALAN, -1, generic)
        with pytest.raises(ValueError):
            _expand_with_tail(2, "somewhere", 3, generic)


@pytest.mark.parametrize("n", range(1, 7))
def test_gf_full_matches_enumerated_multiset(n):
    series = gf_full(n, TAIL_CATALAN, n)
    assert series.coefficient(n) == monomial_multiset(n, n)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 12), st.sampled_from([TAIL_ONE, TAIL_CATALAN]))
@example(10, 12, TAIL_CATALAN)
@example(10, 12, TAIL_ONE)
@example(8, 12, TAIL_CATALAN)
@example(8, 12, TAIL_ONE)
@example(1, 12, TAIL_CATALAN)
@example(1, 12, TAIL_ONE)
@example(1, 0, TAIL_CATALAN)
@example(12, 3, TAIL_CATALAN)
@example(12, 3, TAIL_ONE)
@example(5, 0, TAIL_CATALAN)
@example(5, 0, TAIL_ONE)
def test_tail_parts_match_substitution_route(depth, order, tail_mode):
    # The path sum against the reference route, which multiplies C into the
    # last quotient, runs the plain recurrences and divides the two series.
    tail_value = ONE if tail_mode == TAIL_ONE else catalan_polynomial(order)
    for expand, quotients in (
        (gf_full, generic_quotients(depth)),
        (unweighted_series, [PartialQuotient(i, z) for i in range(1, depth + 1)]),
    ):
        quotients[-1] = PartialQuotient(depth, quotients[-1].value * Cp)
        conv = convergent(depth, quotients)
        reference = expand_by_substitution(conv.h, conv.k, tail_value, order)
        assert expand(depth, tail_mode, order) == reference


def test_expansion_never_runs_deeper_than_the_order(monkeypatch):
    # A word of length at most the order never uses a letter above the order,
    # so every expansion weighs exactly max(order, 1) letters.
    import catwords.cfrac

    path_sum = catwords.cfrac._path_sum
    lengths = []

    def recording(weights, order):
        lengths.append(len(weights))
        return path_sum(weights, order)

    monkeypatch.setattr(catwords.cfrac, "_path_sum", recording)
    for expand in (gf_full, unweighted_series):
        for tail_mode in (TAIL_ONE, TAIL_CATALAN):
            for depth, order in ((40, 3), (7, 0), (10**6, 5)):
                lengths.clear()
                deep = expand(depth, tail_mode, order)
                assert lengths == [max(order, 1)]
                assert deep == expand(max(order, 1), tail_mode, order)


def test_letter_above_the_order_builds_no_closed_form(monkeypatch, capsys):
    # Every coefficient is the constant C_n, so the recurrences never run deep.
    import catwords.cfrac
    from catwords.cli import main

    run_recurrences = catwords.cfrac._run_recurrences

    def capped(values):
        if len(values) > 10:
            raise AssertionError(f"ran the recurrences {len(values)} deep, limit 10")
        return run_recurrences(values)

    monkeypatch.setattr(catwords.cfrac, "_run_recurrences", capped)
    assert letter_gf_series(10**6, 5) == catalan_series(5)
    assert main(["verify", "--max-length", "3", "--letters", "1", "1000000"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("order", range(9))
def test_letter_above_the_order_matches_histograms(order):
    for i in range(order + 1, order + 5):
        series = letter_gf_series(i, order)
        for n in range(order + 1):
            assert series.coefficient(n) == letter_histogram(n, i).as_polynomial()


@pytest.mark.parametrize("n", (2, 4))
def test_bounded_expansion_stabilizes_up_to_depth(n):
    order = n + 3
    narrow = gf_full(n, TAIL_ONE, order)
    wide = gf_full(n + 1, TAIL_ONE, order)
    for m in range(n + 1):
        assert narrow.coefficient(m) == wide.coefficient(m)


# -- per-letter series ------------------------------------------------------------


def test_letter_two_length_three_coefficient():
    # Tally over 111, 112, 121, 122, 123: letter 2 occurs 0,1,1,2,1 times.
    series = letter_gf_series(2, 3)
    assert series.coefficient(3) == ONE + 3 * Vp + Vp**2


def test_letter_five_printed_coefficients():
    series = letter_gf_series(5, 8)
    assert series.coefficient(5) == Polynomial.constant(41) + Vp
    assert series.coefficient(6) == Polynomial.constant(122) + 9 * Vp + Vp**2
    assert series.coefficient(8) == (
        Polynomial.constant(1094) + 247 * Vp + 75 * Vp**2 + 13 * Vp**3 + Vp**4
    )


@pytest.mark.parametrize(
    "letter_index, order, message",
    [
        (0, 0, "letter must be >= 1, got 0"),
        (0, 5, "letter must be >= 1, got 0"),
        (-1, 5, "letter must be >= 1, got -1"),
        (1, -1, "order must be >= 0, got -1"),
        (10**6, -1, "order must be >= 0, got -1"),
        (-3, -2, "order must be >= 0, got -2"),  # the order is checked first
    ],
)
def test_letter_series_validation(letter_index, order, message):
    with pytest.raises(ValueError) as excinfo:
        letter_gf_series(letter_index, order)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        _letter_rows(letter_index, order)  # at the call, before the first row
    assert str(excinfo.value) == message


def v_series(rows):
    """The Series of dense V-rows, built through the public constructors."""
    return Series(
        Polynomial({monomial({V: k} if k else {}): c for k, c in enumerate(row)}) for row in rows
    )


def test_letter_rows_are_final_when_yielded():
    # The CLI writes each row as it comes, so the rows through n must be the
    # series of order n, whatever order the generator runs to.  A row is a
    # tuple, which no caller can change under the division that reads it
    # again, and it has no trailing zeros.
    for i in range(1, 9):
        rows = list(_letter_rows(i, 20))
        assert all(type(row) is tuple and row[-1] for row in rows)
        for n in range(21):
            assert letter_gf_series(i, n) == v_series(rows[: n + 1])
    for i, n in ((21, 20), (9, 0), (10**6, 5)):
        assert list(_letter_rows(i, n)) == [(c,) for c in catalan_numbers(n)]
        assert letter_gf_series(i, n) == catalan_series(n)


@pytest.mark.parametrize("i", range(1, 7))
def test_letter_series_is_specialized_full_expansion(i):
    order = 10
    direct = letter_gf_series(i, order)
    assignment = {letter(j): ONE for j in range(1, i + 1) if j != i}
    assignment[letter(i)] = Vp
    via_full = gf_full(i, TAIL_CATALAN, order).specialize(assignment)
    assert direct == via_full


@pytest.mark.parametrize("i", (1, 2, 4, 10))
def test_letter_series_normalizes_to_catalan(i):
    order = 10
    series = letter_gf_series(i, order).specialize({V: ONE})
    assert series == catalan_series(order)


@pytest.mark.parametrize("i", (2, 5))
def test_letter_series_degree_bound(i):
    order = 10
    series = letter_gf_series(i, order)
    for n in range(order + 1):
        bound = n - i + 1 if n >= i else 0
        degrees = [exponents(key).get(V, 0) for key, _ in series.coefficient(n).sorted_terms()]
        assert max(degrees, default=0) <= bound


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("i", (1, 2, 3))
def test_letter_series_matches_histograms(n, i):
    series = letter_gf_series(i, n)
    assert series.coefficient(n) == letter_histogram(n, i).as_polynomial()


def letter_series_by_dense_tail(i, order):
    """Reference route: substitute the truncated Catalan polynomial for C and
    divide the two dense series."""
    form = rational_form(i)
    return expand_by_substitution(form.numerator, form.denominator, catalan_polynomial(order), order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 48))
@example(12, 0)
@example(7, 3)
@example(12, 11)
@example(1, 48)
@example(20, 40)
@example(24, 48)
def test_letter_series_matches_dense_tail_route(i, order):
    assert letter_gf_series(i, order) == letter_series_by_dense_tail(i, order)


def test_letter_series_matches_dense_tail_route_at_order_128():
    assert letter_gf_series(5, 128) == letter_series_by_dense_tail(5, 128)


def letter_series_by_path_sum(i, order):
    """Reference route: the Dyck-path sum with letter i weighing V and every
    other letter through the order weighing 1."""
    weights = [monomial({V: 1}) if h == i else 0 for h in range(1, order + 1)]
    return Series(map(Polynomial._raw, _path_sum(weights, order)))


@pytest.mark.parametrize(
    "i, order",
    [*((i, order) for i in range(1, 14) for order in (0, 1, 5, 13, 30)), (5, 192), (20, 128)],
)
def test_letter_series_matches_path_sum_route(i, order):
    assert letter_gf_series(i, order) == letter_series_by_path_sum(i, order)


def test_letter_products_fit_the_rows_read_off_them():
    # _letter_rows reads rows 0..i of A and E off Q*P, Q^2 and P^2, taking each
    # key for a z-degree: a term of V, C or a higher power of z would be lost.
    for i in range(1, 65):
        p, q = _letter_parts(i)
        qp, qq, pp = (max(dict((x * y).sorted_terms())) for x, y in ((q, p), (q, q), (p, p)))
        assert qp == i - 1 and qq < i and pp <= i
        assert max(pp, qq + 1) == i  # E = P^2 - V*Q*P + z*V^2*Q^2 has z-degree i


def test_exactness_guards_raise(monkeypatch):
    import catwords.cfrac

    with pytest.raises(ArithmeticError, match=r"^division by 1 - V leaves a remainder$"):
        _divide_one_minus_v([1])

    def doubled_p(i):
        p, q = _letter_parts(i)
        return p + 1, q  # P(0) = 2, so E(0) = 4 - 2V

    monkeypatch.setattr(catwords.cfrac, "_letter_parts", doubled_p)
    with pytest.raises(ArithmeticError, match=r"^expected E\(0\) = 1 - V$"):
        _letter_rows(3, 5)

    def shifted_p(i):
        p, q = _letter_parts(i)
        return p + z, q  # E(0) is still 1 - V, but Q^2 - R*P is no longer z^(i-1)

    monkeypatch.setattr(catwords.cfrac, "_letter_parts", shifted_p)
    with pytest.raises(ArithmeticError, match=r"^expected E\(z, 1\) = z\^i$"):
        _letter_rows(3, 5)


# -- closed rational forms ----------------------------------------------------------


def expected_denominators():
    return {
        1: ONE - z * Vp * Cp,
        2: ONE - z * Vp * Cp - z,
        3: ONE - z * Vp * Cp - 2 * z + z**2 * Vp * Cp,
        4: ONE - z * Vp * Cp - 3 * z + 2 * z**2 * Vp * Cp + z**2,
        5: ONE - z * Vp * Cp - 4 * z + 3 * z**2 * Vp * Cp + 3 * z**2 - z**3 * Vp * Cp,
    }


def test_rational_form_small_letters():
    dens = expected_denominators()
    assert rational_form(1).numerator == ONE
    assert rational_form(1).denominator == dens[1]
    for i in (2, 3, 4, 5):
        form = rational_form(i)
        assert form.numerator == dens[i - 1]
        assert form.denominator == dens[i]


def test_rational_form_letter_ten_denominator():
    den = (
        ONE
        - z * Vp * Cp
        - 9 * z
        + 8 * z**2 * Vp * Cp
        + 28 * z**2
        - 21 * z**3 * Vp * Cp
        - 35 * z**3
        + 20 * z**4 * Vp * Cp
        + 15 * z**4
        - 5 * z**5 * Vp * Cp
        - z**5
    )
    assert rational_form(10).denominator == den


def test_rational_form_is_the_tailed_convergent():
    # The generic recurrence on quotients z, ..., z, z*V*C, not the P, Q, R
    # shortcut that rational_form takes.
    for i in range(1, 31):
        quotients = [PartialQuotient(j, z) for j in range(1, i)]
        quotients.append(PartialQuotient(i, z * Vp * Cp))
        conv = convergent(i, quotients)
        form = rational_form(i)
        assert (form.numerator, form.denominator) == (conv.h, conv.k)


@pytest.mark.parametrize("i", range(1, 10))
def test_rational_form_numerators_chain(i):
    assert rational_form(i + 1).numerator == rational_form(i).denominator


def test_rational_form_validation():
    with pytest.raises(ValueError):
        rational_form(0)


def test_rational_form_expands_to_letter_series():
    # The denominator invariant: substituting the Catalan tail and V -> 1
    # must reproduce the plain Catalan series.
    for i in (1, 3, 6):
        series = letter_gf_series(i, 12).specialize({V: ONE})
        assert series == catalan_series(12)


# -- bounded-letter counting -----------------------------------------------------------


def test_bounded_series_single_letter():
    assert bounded_letter_series(1, 6) == Series([1] * 7)


def test_bounded_series_two_letters():
    assert bounded_letter_series(2, 3) == Series([1, 1, 2, 4])


@pytest.mark.parametrize("n", range(1, 9))
def test_bound_equal_to_length_is_inactive(n):
    series = bounded_letter_series(n, n)
    assert series.coefficient(n) == Polynomial.constant(catalan_numbers(n)[n])


def test_unweighted_catalan_tail_reproduces_catalan_series():
    for depth in (1, 3, 7):
        assert unweighted_series(depth, TAIL_CATALAN, 9) == catalan_series(9)


def test_expand_ratio_uses_given_order():
    series = expand_ratio(ONE, ONE - z, 5)
    assert series == Series([1] * 6)
