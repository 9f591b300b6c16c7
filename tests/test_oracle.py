"""Tests for brute-force enumeration and the exact statistics built on it."""

from collections import Counter
from itertools import product

import pytest

from catwords import oracle
from catwords.catalan import catalan_numbers
from catwords.oracle import (
    Histogram,
    UnderTracked,
    bounded_count,
    bounded_count_of,
    enumerate_words,
    format_word,
    histogram_of,
    is_catalan_word,
    letter_histogram,
    monomial_multiset,
    multiset_of,
    tally,
)
from catwords.polyring import Polynomial, V, letter, monomial

Vp = Polynomial.var(V)


def vp(i):
    return Polynomial.var(letter(i))


def test_words_of_length_three():
    assert [format_word(w) for w in enumerate_words(3)] == ["111", "112", "121", "122", "123"]


def test_length_zero_yields_empty_word():
    assert list(enumerate_words(0)) == [()]
    assert list(enumerate_words(0, max_letter=1)) == [()]


def test_fourteen_words_of_length_four():
    assert sum(1 for _ in enumerate_words(4)) == 14


@pytest.mark.parametrize("n", range(0, 13))
def test_counts_match_catalan_numbers(n):
    assert sum(1 for _ in enumerate_words(n)) == catalan_numbers(12)[n]


def test_enumeration_is_strictly_lexicographic():
    for n in (1, 4, 7):
        words = list(enumerate_words(n))
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(is_catalan_word(w) for w in words)


def test_bounded_enumeration_filters_consistently():
    for n in (3, 5, 7):
        for h in (1, 2, 3):
            bounded = list(enumerate_words(n, max_letter=h))
            filtered = [w for w in enumerate_words(n) if max(w) <= h]
            assert bounded == filtered


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_definition(n):
    # Every word over 1..n in lexicographic order, kept when it is a Catalan
    # word with no letter above the bound.
    candidates = [w for w in product(range(1, n + 1), repeat=n) if is_catalan_word(w)]
    for m in (None, *range(1, n + 2)):
        expected = [w for w in candidates if m is None or max(w, default=0) <= m]
        assert list(enumerate_words(n, m)) == expected


def test_enumeration_validation():
    with pytest.raises(ValueError):
        list(enumerate_words(-1))
    with pytest.raises(ValueError):
        list(enumerate_words(3, max_letter=0))


def test_is_catalan_word():
    assert is_catalan_word(())
    assert is_catalan_word((1, 2, 3))
    assert is_catalan_word((1, 2, 1, 1, 2))
    assert not is_catalan_word((2,))
    assert not is_catalan_word((1, 3))
    assert not is_catalan_word((1, 0))


def test_format_word_dotted_for_double_digit_letters():
    assert format_word((1, 2, 3)) == "123"
    word = tuple(range(1, 11))
    assert is_catalan_word(word)
    assert format_word(word) == "1.2.3.4.5.6.7.8.9.10"
    assert format_word(()) == ""


def test_histogram_letter_five_in_length_five():
    assert letter_histogram(5, 5).counts == {0: 41, 1: 1}


def test_histogram_letter_five_in_length_eight():
    assert letter_histogram(8, 5).counts == {0: 1094, 1: 247, 2: 75, 3: 13, 4: 1}


def test_histogram_letter_one_in_length_three():
    # Direct tally over 111, 112, 121, 122, 123.
    assert letter_histogram(3, 1).counts == {1: 2, 2: 2, 3: 1}


def test_histogram_totals_and_empty_length():
    for n in (0, 1, 4, 6):
        for i in (1, 2, 5):
            hist = letter_histogram(n, i)
            assert sum(hist.counts.values()) == catalan_numbers(6)[n]
            assert all(k <= max(n - i + 1, 0) for k in hist.counts)
    assert letter_histogram(0, 3).counts == {0: 1}
    assert letter_histogram(2, 5).counts == {0: 2}


def test_histogram_as_polynomial():
    hist = Histogram(letter=5, length=5, counts={0: 41, 1: 1})
    assert hist.as_polynomial() == Polynomial.constant(41) + Vp


def test_monomial_multiset_length_three():
    expected = vp(1) * vp(2) * vp(3) + vp(1) * vp(2) ** 2 + 2 * vp(1) ** 2 * vp(2) + vp(1) ** 3
    assert monomial_multiset(3, 3) == expected


def test_monomial_multiset_trivial_cases():
    assert monomial_multiset(1, 1) == vp(1)
    assert monomial_multiset(0, 0) == Polynomial.one()


def test_monomial_multiset_length_four():
    expected = (
        3 * vp(1) ** 2 * vp(2) ** 2
        + 3 * vp(1) ** 3 * vp(2)
        + 2 * vp(1) ** 2 * vp(2) * vp(3)
        + 2 * vp(1) * vp(2) ** 2 * vp(3)
        + vp(1) * vp(2) * vp(3) * vp(4)
        + vp(1) * vp(2) * vp(3) ** 2
        + vp(1) * vp(2) ** 3
        + vp(1) ** 4
    )
    assert monomial_multiset(4, 4) == expected


def test_monomial_multiset_rejects_under_tracking():
    with pytest.raises(UnderTracked):
        monomial_multiset(4, 3)


def test_bounded_count():
    assert bounded_count(3, 2) == 4
    assert bounded_count(3, 3) == 5
    assert bounded_count(5, 1) == 1
    assert bounded_count(0, 1) == 1
    with pytest.raises(ValueError):
        bounded_count(3, 0)


def word_key(word):
    """The monomial key of one word: prod_j v_j^(occurrences of j)."""
    return monomial({letter(j): c for j, c in Counter(word).items()})


def textbook_tally(n):
    return Counter(word_key(word) for word in enumerate_words(n))


def test_tally_keys_are_monomials():
    assert tally(0) == {0: 1}
    assert tally(1) == {monomial({letter(1): 1}): 1}
    # 111 | 112, 121 | 122 | 123
    assert tally(3) == {
        monomial({letter(1): 3}): 1,
        monomial({letter(1): 2, letter(2): 1}): 2,
        monomial({letter(1): 1, letter(2): 2}): 1,
        monomial({letter(1): 1, letter(2): 1, letter(3): 1}): 1,
    }
    with pytest.raises(ValueError):
        tally(-1)


@pytest.mark.parametrize("value", (0, -1))
def test_readers_reject_letters_and_heights_below_one(value):
    counts = tally(3)
    with pytest.raises(ValueError, match=f"^letter must be >= 1, got {value}$"):
        histogram_of(counts, 3, value)
    with pytest.raises(ValueError, match=f"^max letter must be >= 1, got {value}$"):
        bounded_count_of(counts, value)
    with pytest.raises(ValueError, match=f"^letter must be >= 1, got {value}$"):
        letter_histogram(3, value)
    with pytest.raises(ValueError, match=f"^max letter must be >= 1, got {value}$"):
        bounded_count(3, value)


@pytest.mark.parametrize("n", range(14))
def test_tally_matches_textbook_counter(n):
    # The tally's keys, each the sum of its letters' keys, against the
    # textbook tally of one monomial per word.  From n = 3 on every word is an
    # ending of three letters added to a shorter word's key.
    counts = tally(n)
    assert type(counts) is Counter and counts == textbook_tally(n)


@pytest.mark.parametrize("n", range(10))
def test_tally_counts_the_words_of_one_enumeration(monkeypatch, n):
    # The tally walks enumerate_words itself, looked up on the module as a
    # tracer that rebinds it would see: one pass, no longer than the words.
    calls = []

    def recorder(length, *args, **kwargs):
        calls.append(length)
        return enumerate_words(length, *args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_words", recorder)
    counts = tally(n)
    assert len(calls) == 1 and calls[0] <= n
    assert counts == textbook_tally(n)


# Reference loops: each statistic from its own enumeration pass, as the oracle
# computed them before every statistic was read off one tally.


def reference_histogram(n, i):
    counts = {}
    for word in enumerate_words(n):
        k = word.count(i)
        counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def reference_multiset(n):
    acc = {}
    for word in enumerate_words(n):
        occurrences = Counter(word)
        mono = monomial({letter(j): count for j, count in occurrences.items()})
        acc[mono] = acc.get(mono, 0) + 1
    return Polynomial(acc)


def reference_bounded_count(n, h):
    return sum(1 for _ in enumerate_words(n, max_letter=h))


@pytest.mark.parametrize("n", range(10))
def test_tally_statistics_match_per_statistic_enumeration(n):
    counts = tally(n)
    assert sum(counts.values()) == sum(1 for _ in enumerate_words(n))
    assert multiset_of(counts) == monomial_multiset(n, n) == reference_multiset(n)
    for i in range(1, n + 2):
        expected = reference_histogram(n, i)
        assert histogram_of(counts, n, i).counts == letter_histogram(n, i).counts == expected
    for h in range(1, n + 2):
        expected = reference_bounded_count(n, h)
        assert bounded_count_of(counts, h) == bounded_count(n, h) == expected
