"""Brute-force ground truth: enumerate Catalan words and tally exact statistics.

A Catalan word a_1 ... a_n has a_1 = 1 and a_{i+1} <= a_i + 1.  Enumeration
runs an explicit lexicographic-successor loop (no recursion), so long words
are cheap and the strictly increasing yield order is part of the contract.
Every statistic reads off one tally that counts the words of that loop by
their monomials, so a word's key is the ``monomial`` key of its letters.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping

from .polyring import Polynomial, V, _check_int, letter, monomial

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
    The word count is the n-th Catalan number when unbounded.  The arguments
    are checked at the call; the words are made as they are taken.
    """
    _check_int("length", n, 0)
    if max_letter is not None:
        _check_int("max_letter", max_letter, 1)

    # n and top are passed in, so the loop reads them as locals, not closure cells.
    def successors(n: int, top: int) -> Iterator[tuple[int, ...]]:
        word, ones = [1] * n, [1] * n
        while True:
            yield tuple(word)
            # The successor bumps the rightmost letter that may still grow (to
            # at most one above its left neighbour, and not past top) and
            # resets every letter after it to 1.
            i = n - 1
            while i > 0 and (word[i] > word[i - 1] or word[i] >= top):
                i -= 1
            if i <= 0:
                return
            word[i] += 1
            word[i + 1 :] = ones[i + 1 :]

    return successors(n, max_letter or n)


def format_word(word: tuple[int, ...]) -> str:
    """Render a word: digits run together, '.'-separated once any letter has two digits."""
    if any(a >= 10 for a in word):
        return ".".join(str(a) for a in word)
    return "".join(str(a) for a in word)


class Histogram(namedtuple("Histogram", "letter length counts")):
    """How many length-n words contain the tracked letter exactly k times, per k; k ascends."""

    __slots__ = ()

    def __new__(cls, letter: int, length: int, counts: dict[int, int]) -> Histogram:
        _check_int("letter", letter, 1)
        _check_int("length", length, 0)
        return super().__new__(cls, letter, length, counts)

    def as_polynomial(self) -> Polynomial:
        """The histogram encoded as a polynomial in V: sum of counts[k] * V^k."""
        return Polynomial({monomial({V: k} if k else {}): c for k, c in self.counts.items()})


def tally(n: int) -> Counter[int]:
    """Count the length-n words by their monomials, in one pass.

    A word's key is the ``monomial`` key of prod_j v_j^(occurrences of j), so
    112 and 121 both count under v1^2v2, and ``tally(0)`` is ``{0: 1}``.  Every
    statistic below reads off this tally.  A product of monomials is the sum of
    their keys: each word of ``enumerate_words(n - t)``, t = min(n, 3), is keyed
    once, and each t-letter ending the Catalan rule allows after its last letter
    is added to that key, so the words are counted in lexicographic order.
    """
    _check_int("length", n, 0)
    fields = [0] + [monomial({letter(j): 1}) for j in range(1, n + 1)]  # fields[j] is v_j
    t = min(n, 3)
    # endings[h]: the keys of the k-letter endings allowed after letter h, k = 0..t
    endings = [[0]] * (n + 1)
    for k in range(1, t + 1):
        endings = [
            [fields[a] + end for a in range(1, h + 2) for end in endings[a]]
            for h in range(n - k + 1)
        ]
    counts: dict[int, int] = {}
    get = counts.get
    for prefix in enumerate_words(n - t):
        start = sum(map(fields.__getitem__, prefix))
        for end in endings[prefix[-1] if prefix else 0]:
            key = start + end
            counts[key] = get(key, 0) + 1
    return Counter(counts)


def multiset_of(counts: Mapping[int, int]) -> Polynomial:
    """The tallied words as a polynomial: sum of prod_j v_j^(occurrences of j)."""
    return Polynomial(counts)


def histogram_of(counts: Mapping[int, int], n: int, i: int) -> Histogram:
    """How many of the tallied length-n words hold letter i exactly k times, per k."""
    _check_int("letter", i, 1)
    shift = monomial({letter(i): 1}).bit_length() - 1
    mask = (monomial({letter(i + 1): 1}) >> shift) - 1  # v_i's exponent field
    hist: Counter[int] = Counter()
    for key, count in counts.items():
        hist[(key >> shift) & mask] += count
    return Histogram(letter=i, length=n, counts=dict(sorted(hist.items())))


def bounded_count_of(counts: Mapping[int, int], h: int) -> int:
    """How many of the tallied words have no letter above h."""
    _check_int("max letter", h, 1)
    # A key holds v_j for some j > h exactly when it reaches the key of v_{h+1}.
    bound = monomial({letter(h + 1): 1})
    return sum(count for key, count in counts.items() if key < bound)


def letter_histogram(n: int, i: int) -> Histogram:
    """Occurrence histogram of letter i over all length-n words."""
    return histogram_of(tally(n), n, i)


def monomial_multiset(n: int, num_vars: int) -> Polynomial:
    """Sum over length-n words of prod_j v_j^(occurrences of letter j).

    This is the exact value the symbolic pipeline must reproduce as the z^n
    coefficient of its multivariate expansion.  num_vars must be at least n
    so that no occurring letter escapes tracking.
    """
    _check_int("length", n, 0)
    _check_int("num_vars", num_vars, 0)
    if num_vars < n:
        raise UnderTracked(f"need at least {n} tracked variables, got {num_vars}")
    return multiset_of(tally(n))


def bounded_count(n: int, h: int) -> int:
    """Number of length-n Catalan words whose letters never exceed h."""
    return bounded_count_of(tally(n), h)
