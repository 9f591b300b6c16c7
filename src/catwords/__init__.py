"""Exact generating functions and brute-force statistics for Catalan words.

A Catalan word a_1 ... a_n has a_1 = 1 and a_{i+1} <= a_i + 1; there are
Catalan-number many of each length.  This package expands the convergents of
the continued fraction whose partial quotients mark each letter with its own
weight variable, producing the full multivariate counting series, per-letter
occurrence series, closed rational forms, and bounded-letter counts -- and it
verifies every coefficient against direct enumeration.
"""

from .catalan import (
    catalan_numbers,
    catalan_series,
    check_functional_equation,
    functional_equation_holds,
)
from .cfrac import (
    TAIL_CATALAN,
    TAIL_ONE,
    Convergent,
    InsufficientQuotients,
    LetterGF,
    PartialQuotient,
    bounded_letter_series,
    convergent,
    expand_ratio,
    generic_quotients,
    gf_full,
    letter_gf_series,
    rational_form,
    tail_convergent,
    uniform_quotients,
    unweighted_series,
)
from .oracle import (
    CatalanWord,
    Histogram,
    UnderTracked,
    bounded_count,
    enumerate_words,
    format_word,
    is_catalan_word,
    letter_histogram,
    monomial_multiset,
)
from .polyring import (
    C,
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

__version__ = "0.1.0"

__all__ = [
    "C",
    "CatalanWord",
    "Convergent",
    "Histogram",
    "InsufficientQuotients",
    "LetterGF",
    "NonUnitConstantTerm",
    "PartialQuotient",
    "Polynomial",
    "RecursiveAssignment",
    "Series",
    "TAIL_CATALAN",
    "TAIL_ONE",
    "UnderTracked",
    "V",
    "Variable",
    "Z",
    "bounded_count",
    "bounded_letter_series",
    "catalan_numbers",
    "catalan_series",
    "check_functional_equation",
    "convergent",
    "enumerate_words",
    "expand_ratio",
    "format_word",
    "functional_equation_holds",
    "generic_quotients",
    "gf_full",
    "is_catalan_word",
    "letter",
    "letter_gf_series",
    "letter_histogram",
    "monomial_multiset",
    "rational_form",
    "series_div",
    "series_from_poly",
    "series_inverse",
    "series_mul",
    "tail_convergent",
    "uniform_quotients",
    "unweighted_series",
]
