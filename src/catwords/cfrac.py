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

with seeds h_{-1} = 0, h_0 = 1, k_{-1} = 1, k_0 = 1, giving h_n / k_n.  When
every quotient is z the two recurrences differ only by a shift: h_j = k_{j-1},
with k_{-2} = h_{-1} = 0.

## Per-letter series

The closed form of letter i takes the quotients z below depth i and z*V*C at
depth i, where the Catalan series C stands for the whole fraction beneath.
One run of the recurrences through depth i - 1 gives P, Q, R = k_{i-1},
k_{i-2}, k_{i-3}, and the convergent is

    N/D = (Q - z*V*C*R) / (P - z*V*C*Q),

the closed form of ``rational_form``.  C satisfies z*C^2 - C + 1 = 0, so C
and its conjugate C' satisfy C + C' = C*C' = 1/z.  Multiplying N and D by
D' = P - z*V*C'*Q gives N/D = (A + B*C)/E with

    A = Q*P - V*Q^2 + z*V^2*R*Q
    B = z*V*(Q^2 - R*P) = V*z^i
    E = P^2 - V*P*Q + z*V^2*Q^2

where B is a single monomial by the determinant identity Q^2 - R*P = z^(i-1).
A and E have z-degree about equal to the letter, so the series is A plus V
times the Catalan numbers shifted by i, followed by a long division by E that
takes deg_z(E) terms per step.  E(0) = 1 - V is not a unit, but every
coefficient of the quotient lies in Z[V], so each step divides exactly by
1 - V.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate

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
    "unweighted_series",
]

TAIL_ONE = "one"
TAIL_CATALAN = "catalan"

_Z = Polynomial.var(Z)
_V = Polynomial.var(V)
_C = Polynomial.var(C)
_ONE = Polynomial.one()


class InsufficientQuotients(ValueError):
    """Fewer partial quotients were supplied than the requested depth."""


class PartialQuotient(namedtuple("PartialQuotient", "index value")):
    """Numerator a_i at depth i of the continued fraction."""

    __slots__ = ()

    def __new__(cls, index: int, value: Polynomial) -> PartialQuotient:
        if index < 1:
            raise ValueError(f"quotient index must be >= 1, got {index}")
        return super().__new__(cls, index, value)


class Convergent(namedtuple("Convergent", "depth h k")):
    """The numerator/denominator pair (h, k) at a truncation depth."""

    __slots__ = ()

    def __new__(cls, depth: int, h: Polynomial, k: Polynomial) -> Convergent:
        if k.constant_term != 1:
            raise ValueError("convergent denominator must have constant term 1")
        return super().__new__(cls, depth, h, k)


class LetterGF(namedtuple("LetterGF", "letter numerator denominator")):
    """Closed rational form over {z, V, C} tracking one letter's occurrences."""

    __slots__ = ()

    def __new__(cls, letter: int, numerator: Polynomial, denominator: Polynomial) -> LetterGF:
        if letter < 1:
            raise ValueError(f"letter must be >= 1, got {letter}")
        if denominator.constant_term != 1:
            raise ValueError("denominator must have constant term 1")
        return super().__new__(cls, letter, numerator, denominator)

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


def _run_recurrences(values: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The last two rows of both recurrences: (h_{n-1}, h_n, k_{n-1}, k_n)."""
    h_prev, h_cur = Polynomial.zero(), _ONE
    k_prev, k_cur = _ONE, _ONE
    for a in values:
        h_prev, h_cur = h_cur, h_cur - a * h_prev
        k_prev, k_cur = k_cur, k_cur - a * k_prev
    return h_prev, h_cur, k_prev, k_cur


def convergent(depth: int, quotients: Sequence[PartialQuotient]) -> Convergent:
    """The plain convergent h_depth / k_depth."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if len(quotients) < depth:
        raise InsufficientQuotients(f"need {depth} quotients, got {len(quotients)}")
    _, h, _, k = _run_recurrences([q.value for q in quotients[:depth]])
    return Convergent(depth, h, k)


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
        ends = [{}, *reversed(grown)]  # frees E_n before the caller renders the row
        yield total


def _expand_with_tail(
    depth: int, tail_mode: str, order: int, generic: bool
) -> Iterator[Polynomial]:
    """The z^0..z^order coefficients of the path sum under the given tail, each
    computed as it is taken; letter h <= depth weighs v_h when generic, else 1.
    The inputs are checked at the call."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if tail_mode not in (TAIL_ONE, TAIL_CATALAN):
        raise ValueError(f"unknown tail mode: {tail_mode!r}")
    # A word of length at most the order never uses a letter above the order,
    # so a deeper convergent has the same coefficients through that order.
    depth = min(depth, max(order, 1))
    weights = [monomial({letter(h): 1}) if generic else 0 for h in range(1, depth + 1)]
    if tail_mode == TAIL_CATALAN:
        weights += [0] * (order - depth)  # the letters above the depth weigh 1
    return map(Polynomial._raw, _path_sum(weights, order))


def gf_full(depth: int, tail_mode: str, order: int) -> Series:
    """Multivariate expansion of the depth-n convergent.

    The z^m coefficient is the sum, over Catalan words of length m (letters
    restricted to <= depth when tail_mode is "one"), of prod_j v_j^(number of
    occurrences of letter j).
    """
    return Series(_expand_with_tail(depth, tail_mode, order, generic=True))


def unweighted_series(depth: int, tail_mode: str, order: int) -> Series:
    """Expansion of the depth-n convergent with every letter weight set to 1."""
    return Series(_expand_with_tail(depth, tail_mode, order, generic=False))


def rational_form(letter_index: int) -> LetterGF:
    """Closed rational form for one tracked letter.

    The convergent depth equals the letter: quotients below it are z, the
    final quotient is z*V, and the tail symbol C absorbs everything deeper.
    """
    p, q, r = _letter_parts(letter_index)
    zvc = _Z * _V * _C
    return LetterGF(letter_index, q - zvc * r, p - zvc * q)


def _letter_parts(letter_index: int) -> tuple[Polynomial, ...]:
    """P, Q, R = k_{i-1}, k_{i-2}, k_{i-3} of the all-z recurrence, for letter i."""
    if letter_index < 1:
        raise ValueError(f"letter must be >= 1, got {letter_index}")
    r, q, _, p = _run_recurrences([_Z] * (letter_index - 1))  # h_j = k_{j-1}
    return p, q, r


# The per-letter series keeps its V-polynomials as dense lists of ints indexed
# by the power of V, with no trailing zeros (the zero polynomial is []).


def _v_rows(p: Polynomial) -> list[list[int]]:
    """Dense V-coefficients of p, one row per power of z; p is in Z[z, V]."""
    rows: list[list[int]] = []
    for key, coeff in p.sorted_terms():
        powers = exponents(key)
        zdeg = powers.get(Z, 0)
        vdeg = powers.get(V, 0)
        rows.extend([] for _ in range(zdeg + 1 - len(rows)))
        rows[zdeg].extend([0] * (vdeg + 1 - len(rows[zdeg])))
        rows[zdeg][vdeg] = coeff
    return rows


def _subtract_product(acc: list[int], p: list[int], q: list[int]) -> None:
    """acc -= p * q, in place (acc may be left with trailing zeros)."""
    acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                acc[i + j] -= a * b


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
    return Series(_letter_rows(letter_index, order))


def _letter_rows(letter_index: int, order: int) -> Iterator[Polynomial]:
    """The z^0..z^order coefficients of ``letter_gf_series``, each computed as
    it is taken.  The inputs are checked, and the closed form built, at the call."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if letter_index > order:
        # A word of length at most the order never uses a larger letter, so
        # every coefficient is the constant C_n; the closed form is not built.
        return iter(catalan_series(order).coefficients)
    p, q, r = _letter_parts(letter_index)
    zvv = _Z * _V * _V
    a = _v_rows(q * p - _V * q * q + zvv * r * q)
    e = _v_rows(p * p - _V * p * q + zvv * q * q)
    if not e or e[0] != [1, -1]:
        raise ArithmeticError("expected E(0) = 1 - V")
    return _divide_rows(a, e, letter_index, order)


def _divide_rows(
    a: list[list[int]], e: list[list[int]], letter_index: int, order: int
) -> Iterator[Polynomial]:
    """The rows of (A + V*z^i*C)/E through the order, each yielded once final;
    only the last deg_z(E) rows are kept."""
    catalan = catalan_numbers(order)
    monomials = [monomial()]  # the key of V^k, shared by every row
    recent: deque[list[int]] = deque(maxlen=len(e) - 1)  # series rows n-1, n-2, ...
    for n in range(order + 1):
        acc = list(a[n]) if n < len(a) else []
        if n >= letter_index:  # B*C with B = V*z^i adds C_{n-i} to the V coefficient
            acc.extend([0] * (2 - len(acc)))
            acc[1] += catalan[n - letter_index]
        for j in range(1, min(n + 1, len(e))):
            _subtract_product(acc, e[j], recent[-j])
        row = _divide_one_minus_v(acc)
        recent.append(row)
        while len(monomials) < len(row):
            monomials.append(monomial({V: len(monomials)}))
        yield Polynomial._raw({monomials[k]: c for k, c in enumerate(row) if c})


def bounded_letter_series(max_letter: int, order: int) -> Series:
    """Counting series for Catalan words whose letters never exceed max_letter."""
    if max_letter < 1:
        raise ValueError(f"max_letter must be >= 1, got {max_letter}")
    return unweighted_series(max_letter, TAIL_ONE, order)
