"""Brute-force ground truth: enumerate Catalan words and tally exact statistics.

A Catalan word a_1 ... a_n has a_1 = 1 and a_{i+1} <= a_i + 1.  Enumeration
runs an explicit lexicographic-successor loop (no recursion), so long words
are cheap and the strictly increasing yield order is part of the contract.
Every statistic reads off one tally that counts the words by their letters
in ascending order, so a word's key is the word sorted.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping

from .polyring import Polynomial, V, letter, monomial

__all__ = [
    "Histogram",
    "UnderTracked",
    "bounded_count",
    "bounded_count_of",
    "enumerate_words",
    "format_word",
    "histogram_of",
    "is_catalan_word",
    "letter_histogram",
    "monomial_multiset",
    "multiset_of",
    "tally",
]


class UnderTracked(ValueError):
    """monomial_multiset was given fewer variables than a word could use."""


def is_catalan_word(letters: Iterable[int]) -> bool:
    seq = tuple(letters)
    if not seq:
        return True
    if seq[0] != 1:
        return False
    return all(1 <= nxt <= prev + 1 for prev, nxt in zip(seq, seq[1:]))


def enumerate_words(n: int, max_letter: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every Catalan word of length n exactly once, in lexicographic order.

    With ``max_letter`` set, words containing a larger letter are skipped.
    The word count is the n-th Catalan number when unbounded.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if max_letter is not None and max_letter < 1:
        raise ValueError(f"max_letter must be >= 1, got {max_letter}")
    top = max_letter or n
    word, ones = [1] * n, [1] * n
    while True:
        yield tuple(word)
        # The successor bumps the rightmost letter that may still grow (to at
        # most one above its left neighbour, and not past top) and resets every
        # letter after it to 1.
        i = n - 1
        while i > 0 and (word[i] > word[i - 1] or word[i] >= top):
            i -= 1
        if i <= 0:
            return
        word[i] += 1
        word[i + 1 :] = ones[i + 1 :]


def format_word(word: tuple[int, ...]) -> str:
    """Render a word: digits run together, '.'-separated once any letter has two digits."""
    if any(a >= 10 for a in word):
        return ".".join(str(a) for a in word)
    return "".join(str(a) for a in word)


class Histogram(namedtuple("Histogram", "letter length counts")):
    """How many length-n words contain the tracked letter exactly k times, per k; k ascends."""

    __slots__ = ()

    def as_polynomial(self) -> Polynomial:
        """The histogram encoded as a polynomial in V: sum of counts[k] * V^k."""
        return Polynomial({monomial({V: k} if k else {}): c for k, c in self.counts.items()})


def tally(n: int) -> Counter[tuple[int, ...]]:
    """Count the length-n words by their letters in ascending order, in one pass.

    A word's key is ``tuple(sorted(word))``: (1, 1, 2) stands for 112 and 121,
    and ``tally(0)`` is ``{(): 1}``.  Every statistic below reads off this tally.
    The loop is that of ``enumerate_words``, with each word's letter counts kept
    as one packed int (n.bit_length() bits per letter) that the successor
    updates only where it changes the word.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    width = n.bit_length()
    fields = [1 << (width * j) for j in range(n + 2)]  # fields[j] is one letter j
    field = fields.__getitem__
    last = n - 1
    word, ones = [1] * n, [1] * n
    occurrences = n * fields[1]
    counts: dict[int, int] = {}
    get = counts.get
    while True:
        counts[occurrences] = get(occurrences, 0) + 1
        i = last
        while i > 0 and word[i] > word[i - 1]:
            i -= 1
        if i <= 0:
            break
        a = word[i]
        word[i] = a + 1
        occurrences += fields[a + 1] - fields[a]
        if i < last:
            occurrences += (last - i) * fields[1] - sum(map(field, word[i + 1 :]))
            word[i + 1 :] = ones[i + 1 :]
    mask = fields[1] - 1
    return Counter(
        {
            tuple(j for j in range(1, n + 1) for _ in range((key >> (width * j)) & mask)): count
            for key, count in counts.items()
        }
    )


def multiset_of(counts: Mapping[tuple[int, ...], int]) -> Polynomial:
    """The tallied words as a polynomial: sum of prod_j v_j^(occurrences of j)."""
    return Polynomial(
        {
            monomial({letter(j): e for j, e in Counter(key).items()}): count
            for key, count in counts.items()
        }
    )


def histogram_of(counts: Mapping[tuple[int, ...], int], n: int, i: int) -> Histogram:
    """How many of the tallied length-n words hold letter i exactly k times, per k."""
    hist: Counter[int] = Counter()
    for key, count in counts.items():
        hist[key.count(i)] += count
    return Histogram(letter=i, length=n, counts=dict(sorted(hist.items())))


def bounded_count_of(counts: Mapping[tuple[int, ...], int], h: int) -> int:
    """How many of the tallied words have no letter above h."""
    return sum(count for key, count in counts.items() if max(key, default=0) <= h)


def letter_histogram(n: int, i: int) -> Histogram:
    """Occurrence histogram of letter i over all length-n words."""
    if i < 1:
        raise ValueError(f"letter must be >= 1, got {i}")
    return histogram_of(tally(n), n, i)


def monomial_multiset(n: int, num_vars: int) -> Polynomial:
    """Sum over length-n words of prod_j v_j^(occurrences of letter j).

    This is the exact value the symbolic pipeline must reproduce as the z^n
    coefficient of its multivariate expansion.  num_vars must be at least n
    so that no occurring letter escapes tracking.
    """
    if num_vars < n:
        raise UnderTracked(f"need at least {n} tracked variables, got {num_vars}")
    return multiset_of(tally(n))


def bounded_count(n: int, h: int) -> int:
    """Number of length-n Catalan words whose letters never exceed h."""
    if h < 1:
        raise ValueError(f"max letter must be >= 1, got {h}")
    return bounded_count_of(tally(n), h)
