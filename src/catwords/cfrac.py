"""Continued-fraction convergents and the generating functions they produce.

With partial quotients a_h = z*w_h, the fraction 1/(1 - a1/(1 - a2/(1 - ...)))
is a sum over Dyck paths (Flajolet 1980): its z^n coefficient sums, over the
paths of semilength n, the product of w_h over the up-steps, h being the
height an up-step ends at.  Read left to right, those heights are exactly the
Catalan words of length n, so with w_h = v_h the expansion counts words by
length and by letter occurrences.  It is computed one power of z at a time:
with E_n[h] the weighted sum of the length-n words that end in letter h,

    E_{n+1}[h] = w_h * sum_{g >= h-1} E_n[g],

taken as a running suffix sum, and the z^n coefficient is sum_h E_n[h].  Each
w_h is a monomial, so multiplying by it adds one constant to every packed key
and no polynomial product is ever formed.  The tail closes the fraction
beyond the truncation depth: tail 1 stops the letters at the depth, and the
Catalan tail lets them run on up to the order with weight 1 above the depth.

The convergents themselves come from the three-term recurrences

    h_i = h_{i-1} - a_i * h_{i-2},    k_i = k_{i-1} - a_i * k_{i-2}

with seeds h_{-1} = 0, h_0 = 1, k_{-1} = 1, k_0 = 1, giving h_n / k_n.  A tail
C multiplied onto the final quotient makes the convergent a linear fraction
in C:

    h = h0 + h1*C,  k = k0 + k1*C,  with h0 = h_{n-1}, h1 = -a_n * h_{n-2}

and k0, k1 alike.  The closed forms of ``rational_form`` are these fractions.

## Per-letter series

The closed form of one tracked letter is N/D with N = n0 + n1*C and
D = d0 + d1*C, both linear in C, where n0, n1, d0, d1 lie in Z[z, V].  The
Catalan series C satisfies z*C^2 - C + 1 = 0, so C and its conjugate C'
satisfy C + C' = C*C' = 1/z.  Multiplying N and D by D' = d0 + d1*C' gives
N/D = (A + B*C)/E with

    A = (z*n0*d0 + n0*d1 + n1*d1) / z
    B = n1*d0 - n0*d1
    E = (z*d0^2 + d0*d1 + d1^2) / z

Both z-divisions are exact because d1 carries a factor z.  A, B and E have
z-degree about equal to the letter, so the series is A plus the short
convolution of B with the Catalan numbers, followed by a long division by E
that takes deg_z(E) terms per step.  E(0) = 1 - V is not a unit, but every
coefficient of the quotient lies in Z[V], so each step divides exactly by
1 - V.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .catalan import catalan_numbers, catalan_series
from .polyring import (
    C,
    Polynomial,
    Series,
    V,
    Z,
    _json_int,
    exponents,
    letter,
    monomial,
)

__all__ = [
    "Convergent",
    "InsufficientQuotients",
    "LetterGF",
    "PartialQuotient",
    "TAIL_CATALAN",
    "TAIL_ONE",
    "bounded_letter_series",
    "convergent",
    "generic_quotients",
    "gf_full",
    "letter_gf_series",
    "rational_form",
    "uniform_quotients",
    "unweighted_series",
]

TAIL_ONE = "one"
TAIL_CATALAN = "catalan"

_Z = Polynomial.var(Z)
_V = Polynomial.var(V)
_C = Polynomial.var(C)
_ONE = Polynomial.one()
_Z_KEY = monomial({Z: 1})


class InsufficientQuotients(ValueError):
    """Fewer partial quotients were supplied than the requested depth."""


@dataclass(frozen=True)
class PartialQuotient:
    """Numerator a_i at depth i of the continued fraction."""

    index: int
    value: Polynomial

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"quotient index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Convergent:
    """The numerator/denominator pair (h, k) at a truncation depth."""

    depth: int
    h: Polynomial
    k: Polynomial

    def __post_init__(self) -> None:
        if self.k.constant_term != 1:
            raise ValueError("convergent denominator must have constant term 1")


@dataclass(frozen=True)
class LetterGF:
    """Closed rational form over {z, V, C} tracking one letter's occurrences."""

    letter: int
    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        if self.letter < 1:
            raise ValueError(f"letter must be >= 1, got {self.letter}")
        if self.denominator.constant_term != 1:
            raise ValueError("denominator must have constant term 1")

    def to_json_obj(self) -> dict:
        return {
            "letter": self.letter,
            "numerator": self.numerator.to_json_obj(),
            "denominator": self.denominator.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LetterGF":
        return cls(
            letter=_json_int(obj["letter"]),
            numerator=Polynomial.from_json_obj(obj["numerator"]),
            denominator=Polynomial.from_json_obj(obj["denominator"]),
        )


def generic_quotients(n: int) -> list[PartialQuotient]:
    """Partial quotients z*v_1, ..., z*v_n: every letter is tracked separately."""
    return [PartialQuotient(i, _Z * Polynomial.var(letter(i))) for i in range(1, n + 1)]


def uniform_quotients(n: int) -> list[PartialQuotient]:
    """Partial quotients z, ..., z: letters carry no weight."""
    return [PartialQuotient(i, _Z) for i in range(1, n + 1)]


def _quotient_values(depth: int, quotients: Sequence[PartialQuotient]) -> list[Polynomial]:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if len(quotients) < depth:
        raise InsufficientQuotients(f"need {depth} quotients, got {len(quotients)}")
    return [q.value for q in quotients[:depth]]


def _run_recurrences(values: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The last two rows of both recurrences: (h_{n-1}, h_n, k_{n-1}, k_n)."""
    h_prev, h_cur = Polynomial.zero(), _ONE
    k_prev, k_cur = _ONE, _ONE
    for a in values:
        h_prev, h_cur = h_cur, h_cur - a * h_prev
        k_prev, k_cur = k_cur, k_cur - a * k_prev
    return h_prev, h_cur, k_prev, k_cur


def _tail_parts(depth: int, quotients: Sequence[PartialQuotient]) -> tuple[Polynomial, ...]:
    """(h0, h1, k0, k1) with h = h0 + h1*C and k = k0 + k1*C at a tailed depth >= 1."""
    *values, last = _quotient_values(depth, quotients)
    h_before, h0, k_before, k0 = _run_recurrences(values)
    return h0, -last * h_before, k0, -last * k_before


def convergent(depth: int, quotients: Sequence[PartialQuotient]) -> Convergent:
    """The plain convergent h_depth / k_depth."""
    _, h, _, k = _run_recurrences(_quotient_values(depth, quotients))
    return Convergent(depth, h, k)


def _weight(a: Polynomial) -> int:
    """The key of the monomial w in a partial quotient a = z*w."""
    terms = a.sorted_terms()
    if len(terms) != 1 or terms[0][1] != 1 or exponents(terms[0][0]).get(Z) != 1:
        raise ValueError(f"partial quotient must be z times a monomial, got {a}")
    return terms[0][0] - _Z_KEY


def _path_sum(weights: Sequence[int], order: int) -> Iterator[dict[int, int]]:
    """The terms of the z^0..z^order coefficients when letter h weighs the
    monomial keyed weights[h - 1] and no letter exceeds len(weights)."""
    ends: list[dict[int, int]] = [{0: 1}]  # by last letter; the empty word ends in 0
    for n in range(order + 1):
        total: dict[int, int] = {}  # the running suffix sum over the last letters
        grown = []
        for h in reversed(range(len(ends))):
            for key, count in ends[h].items():
                total[key] = total.get(key, 0) + count
            if n < order and h < len(weights):
                weight = weights[h]  # letter h + 1 may follow letters h and above
                grown.append({key + weight: count for key, count in total.items()})
        yield total
        ends = [{}, *reversed(grown)]


def _expand_with_tail(make_quotients, depth: int, tail_mode: str, order: int) -> Series:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if tail_mode not in (TAIL_ONE, TAIL_CATALAN):
        raise ValueError(f"unknown tail mode: {tail_mode!r}")
    # A word of length at most the order never uses a letter above the order,
    # so a deeper convergent has the same coefficients through that order.
    depth = min(depth, max(order, 1))
    weights = [_weight(a) for a in _quotient_values(depth, make_quotients(depth))]
    if tail_mode == TAIL_CATALAN:
        weights += [0] * (order - depth)  # the letters above the depth weigh 1
    return Series(map(Polynomial._raw, _path_sum(weights, order)))


def gf_full(depth: int, tail_mode: str, order: int) -> Series:
    """Multivariate expansion of the depth-n convergent.

    The z^m coefficient is the sum, over Catalan words of length m (letters
    restricted to <= depth when tail_mode is "one"), of prod_j v_j^(number of
    occurrences of letter j).
    """
    return _expand_with_tail(generic_quotients, depth, tail_mode, order)


def unweighted_series(depth: int, tail_mode: str, order: int) -> Series:
    """Expansion of the depth-n convergent with every letter weight set to 1."""
    return _expand_with_tail(uniform_quotients, depth, tail_mode, order)


def rational_form(letter_index: int) -> LetterGF:
    """Closed rational form for one tracked letter.

    The convergent depth equals the letter: quotients below it are z, the
    final quotient is z*V, and the tail symbol C absorbs everything deeper.
    """
    n0, n1, d0, d1 = _letter_parts(letter_index)
    return LetterGF(letter_index, n0 + n1 * _C, d0 + d1 * _C)


def _letter_parts(letter_index: int) -> tuple[Polynomial, ...]:
    """The C-free and C-linear parts (n0, n1, d0, d1) of one letter's closed form."""
    if letter_index < 1:
        raise ValueError(f"letter must be >= 1, got {letter_index}")
    quotients = uniform_quotients(letter_index - 1)
    quotients.append(PartialQuotient(letter_index, _Z * _V))
    return _tail_parts(letter_index, quotients)


# The per-letter series keeps its V-polynomials as dense lists of ints indexed
# by the power of V, with no trailing zeros (the zero polynomial is []).


def _v_rows(p: Polynomial, z_shift: int = 0) -> list[list[int]]:
    """Dense V-coefficients of p / z^z_shift, one row per power of z; p is in Z[z, V]."""
    rows: list[list[int]] = []
    for key, coeff in p.sorted_terms():
        powers = exponents(key)
        zdeg = powers.get(Z, 0) - z_shift
        if zdeg < 0:
            raise ArithmeticError("division by z is not exact")
        vdeg = powers.get(V, 0)
        rows.extend([] for _ in range(zdeg + 1 - len(rows)))
        rows[zdeg].extend([0] * (vdeg + 1 - len(rows[zdeg])))
        rows[zdeg][vdeg] = coeff
    return rows


def _add_product(acc: list[int], p: list[int], q: list[int], sign: int = 1) -> None:
    """acc += sign * p * q, in place (acc may be left with trailing zeros)."""
    if not p or not q:
        return
    acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for i, a in enumerate(p):
        if a:
            a *= sign
            for j, b in enumerate(q):
                acc[i + j] += a * b


def _divide_one_minus_v(r: list[int]) -> list[int]:
    """Exact quotient r / (1 - V): the running prefix sums of r."""
    while r and not r[-1]:
        r.pop()
    quotient = list(accumulate(r))
    if quotient and quotient.pop():
        raise ArithmeticError("division by 1 - V leaves a remainder")
    return quotient


def letter_gf_series(letter_index: int, order: int) -> Series:
    """Series whose z^n coefficient records, per power of V, how many length-n
    words contain the tracked letter exactly that many times.

    Computed as (A + B*C)/E from the conjugate-rationalized closed form (see
    the module docstring), in O(order * letter) V-polynomial operations.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if letter_index < 1:
        raise ValueError(f"letter must be >= 1, got {letter_index}")
    if letter_index > order:
        # A word of length at most the order never uses a larger letter, so
        # every coefficient is the constant C_n; the closed form is not built.
        return catalan_series(order)
    n0, n1, d0, d1 = _letter_parts(letter_index)
    a = _v_rows(_Z * n0 * d0 + (n0 + n1) * d1, z_shift=1)
    b = _v_rows(n1 * d0 - n0 * d1)
    e = _v_rows(_Z * d0 * d0 + (d0 + d1) * d1, z_shift=1)
    if not e or e[0] != [1, -1]:
        raise ArithmeticError("expected E(0) = 1 - V")

    catalan = catalan_numbers(order)
    monomials = [monomial()]  # the key of V^k, shared by every row
    recent: deque[list[int]] = deque(maxlen=len(e) - 1)  # series rows n-1, n-2, ...
    coeffs: list[Polynomial] = []
    for n in range(order + 1):
        acc = list(a[n]) if n < len(a) else []
        for j in range(min(n + 1, len(b))):
            _add_product(acc, b[j], [catalan[n - j]])
        for j in range(1, min(n + 1, len(e))):
            _add_product(acc, e[j], recent[-j], -1)
        row = _divide_one_minus_v(acc)
        recent.append(row)
        while len(monomials) < len(row):
            monomials.append(monomial({V: len(monomials)}))
        coeffs.append(Polynomial._raw({monomials[k]: c for k, c in enumerate(row) if c}))
    return Series(coeffs)


def bounded_letter_series(max_letter: int, order: int) -> Series:
    """Counting series for Catalan words whose letters never exceed max_letter."""
    if max_letter < 1:
        raise ValueError(f"max_letter must be >= 1, got {max_letter}")
    return unweighted_series(max_letter, TAIL_ONE, order)
