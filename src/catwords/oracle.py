"""Brute-force ground truth: enumerate Catalan words and tally exact statistics.

A Catalan word a_1 ... a_n has a_1 = 1 and a_{i+1} <= a_i + 1.  Enumeration
runs an explicit lexicographic-successor loop (no recursion), so long words
are cheap and the strictly increasing yield order is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .polyring import Polynomial, V, letter, monomial

CatalanWord = tuple[int, ...]

__all__ = [
    "CatalanWord",
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
    if n == 0:
        yield ()
        return
    word = [1] * n
    while True:
        yield tuple(word)
        # Advance to the lexicographic successor: bump the rightmost letter
        # that may still grow, reset everything after it to 1.
        i = n - 1
        while i > 0:
            cap = word[i - 1] + 1
            if max_letter is not None and max_letter < cap:
                cap = max_letter
            if word[i] < cap:
                word[i] += 1
                for j in range(i + 1, n):
                    word[j] = 1
                break
            i -= 1
        else:
            return


def format_word(word: tuple[int, ...]) -> str:
    """Render a word: digits run together, '.'-separated once any letter has two digits."""
    if any(a >= 10 for a in word):
        return ".".join(str(a) for a in word)
    return "".join(str(a) for a in word)


@dataclass(frozen=True)
class Histogram:
    """How many length-n words contain the tracked letter exactly k times, per k."""

    letter: int
    length: int
    counts: Mapping[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def as_polynomial(self) -> Polynomial:
        """The histogram encoded as a polynomial in V: sum of counts[k] * V^k."""
        return Polynomial({monomial({V: k} if k else {}): c for k, c in self.counts.items()})

    def to_csv(self) -> str:
        lines = ["k,count"]
        lines.extend(f"{k},{self.counts[k]}" for k in sorted(self.counts))
        return "\n".join(lines) + "\n"


def tally(n: int) -> dict[tuple[int, ...], int]:
    """Count the length-n words by occurrence vector, in one enumeration pass.

    A word's key is the tuple of the occurrences of letters 1..m, where m is
    its largest letter, so the key's length is that letter and ``tally(0)``
    is ``{(): 1}``.  Every statistic below reads off this one dict.
    """
    counts: dict[tuple[int, ...], int] = {}
    for word in enumerate_words(n):
        occurrences = [0] * max(word, default=0)
        for a in word:
            occurrences[a - 1] += 1
        key = tuple(occurrences)
        counts[key] = counts.get(key, 0) + 1
    return counts


def multiset_of(counts: Mapping[tuple[int, ...], int]) -> Polynomial:
    """The tallied words as a polynomial: sum of prod_j v_j^(occurrences of j)."""
    return Polynomial(
        {
            monomial({letter(j): e for j, e in enumerate(key, 1)}): count
            for key, count in counts.items()
        }
    )


def histogram_of(counts: Mapping[tuple[int, ...], int], n: int, i: int) -> Histogram:
    """How many of the tallied length-n words hold letter i exactly k times, per k."""
    hist: dict[int, int] = {}
    for key, count in counts.items():
        k = key[i - 1] if 0 < i <= len(key) else 0
        hist[k] = hist.get(k, 0) + count
    return Histogram(letter=i, length=n, counts=dict(sorted(hist.items())))


def bounded_count_of(counts: Mapping[tuple[int, ...], int], h: int) -> int:
    """How many of the tallied words have no letter above h."""
    return sum(count for key, count in counts.items() if len(key) <= h)


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
