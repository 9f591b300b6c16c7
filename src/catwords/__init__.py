"""Exact generating functions and brute-force statistics for Catalan words.

A Catalan word a_1 ... a_n has a_1 = 1 and a_{i+1} <= a_i + 1; there are
Catalan-number many of each length.  This package expands the convergents of
the continued fraction whose partial quotients mark each letter with its own
weight variable, producing the full multivariate counting series, per-letter
occurrence series, closed rational forms, and bounded-letter counts -- and it
verifies every coefficient against direct enumeration.
"""

from .catalan import *
from .cfrac import *
from .oracle import *
from .polyring import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = catalan.__all__ + cfrac.__all__ + oracle.__all__ + polyring.__all__
