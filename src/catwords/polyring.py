"""Exact sparse arithmetic: multivariate integer polynomials and truncated power series.

Coefficients are Python ints, so nothing ever rounds.  The variables are the
series marker ``Z``, the standalone symbols ``V`` and ``C``, and the letter
variables ``letter(i)`` = v_i, made by slot: z = 0, C = 1, V = 2, v_i = 2 + i.
A monomial is one int, its key, with the exponent of slot s in bits 32*s ..
32*s + 31: z^2*V*v1 is 2 + (1 << 64) + (1 << 96), the unit is 0, and a
product of monomials is the sum of their keys.  Exponents stay below 2^31, so
the top bit of every field is clear and two keys add without a carry between
fields; a product whose exponent reaches 2^31 raises OverflowError instead of
wrapping.  ``monomial`` builds a key, ``exponents`` reads it back and
``monomial_str`` prints it.  Variables are not ordered: terms are sorted and
serialized by key, in slot order, and printed monomials use the display order
z, V, v1, v2, ..., C.  Every operation returns a canonical form (no zero
coefficients) in one term order, so output is deterministic.  A series
product takes two series.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce
from operator import methodcaller, or_

__all__ = [
    "C",
    "Polynomial",
    "Series",
    "V",
    "Variable",
    "Z",
    "exponents",
    "letter",
    "monomial",
    "monomial_str",
    "series_mul",
]


_WIDTH = 32  # bits per slot: one little-endian struct "I" field
_MASK = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)  # the bit no stored exponent may reach


def _check_int(name: str, value: object, minimum: int) -> None:
    """Raise ValueError unless value is an int (a bool is not) of at least minimum."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _slot_name(slot: int) -> str:
    return "zCV"[slot] if slot < 3 else f"v{slot - 2}"


class Variable:
    """A formal variable with a fixed slot: z = 0, C = 1, V = 2, v_i = 2 + i.

    Made by slot, as ``Z``, ``C``, ``V`` and ``letter(i)``, and equal and
    hashed by slot; variables are not ordered.  The slots lay out the packed
    keys, so terms are sorted and serialized in slot order (z, C, V, v1, v2,
    ...).  Inside a printed monomial the factors appear in display order
    instead (z first, then V, then v1, v2, ..., then C), which is how these
    generating functions are conventionally written.
    """

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        _check_int("variable slot", slot, 0)
        self.slot = slot

    @property
    def name(self) -> str:
        return _slot_name(self.slot)

    def __eq__(self, other: object) -> bool:
        return self.slot == other.slot if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.slot)

    def __repr__(self) -> str:
        return self.name


Z = Variable(0)
C = Variable(1)
V = Variable(2)


def letter(i: int) -> Variable:
    """The variable v_i marking occurrences of letter i (an int i >= 1)."""
    _check_int("letter index", i, 1)
    return Variable(2 + i)


def monomial(powers: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()) -> int:
    """The key of the product of var^exp over powers; the unit monomial is 0."""
    key = 0
    for var, exp in dict(powers).items():
        if type(exp) is not int or exp < 1:
            raise ValueError(f"exponent of {var} must be a positive int, got {exp!r}")
        if exp >= _GUARD:
            raise OverflowError(f"exponent of {var} must be below 2^{_WIDTH - 1}, got {exp}")
        key |= exp << (_WIDTH * var.slot)
    return key


@lru_cache
def _reader(fields: int):
    """(unpack, size): unpack(key.to_bytes(size, "little")) gives the exponents by
    slot of a key of at most this many fields, padded with zeros to that many."""
    return struct.Struct(f"<{fields}I").unpack, fields * _WIDTH // 8


def _slots(key: int) -> tuple[int, ...]:
    """The exponents of a key by slot, up to its last nonzero one."""
    unpack, size = _reader(-(-key.bit_length() // _WIDTH))
    return unpack(key.to_bytes(size, "little"))


def exponents(key: int) -> dict[Variable, int]:
    """The powers of a key's monomial, in slot order: the inverse of ``monomial``."""
    return {Variable(slot): e for slot, e in enumerate(_slots(key)) if e}


@lru_cache(maxsize=1024)  # bounded: the keys of a multivariate series rarely repeat
def monomial_str(key: int) -> str:
    """A key's monomial as printed, factors in display order: ``z^2Vv1`` or ``1``."""
    exps = _slots(key)
    factors = [(name, exps[slot]) for slot, name in _display_names(len(exps)) if exps[slot]]
    return "".join([name if e == 1 else f"{name}^{e}" for name, e in factors]) or "1"


@lru_cache
def _display_names(fields: int) -> tuple[tuple[int, str], ...]:
    """(slot, name) for the first ``fields`` slots in display order: z, V, v1, v2, ..., C."""
    return tuple((slot, _slot_name(slot)) for slot in [0, *range(2, fields), 1][:fields])


@lru_cache(maxsize=1024)  # bounded: the keys of a multivariate series rarely repeat
def _json_term_tail(depth: int, key: int) -> str:
    """What follows a term's coefficient digits in ``Polynomial.format_json(depth)``:
    the closing quote, the key's ``"monomial": {...}`` and the term's closing brace."""
    pad1 = "\n" + "  " * (depth + 1)
    pad2 = pad1 + "  "
    exps = _slots(key)
    names = _json_names(len(exps), depth)
    fields = "".join([names[slot] + str(e) for slot, e in enumerate(exps) if e])
    monomial = f"{{{fields[1:]}{pad2}}}" if key else "{}"
    return f'",{pad2}"monomial": {monomial}{pad1}}}'


@lru_cache
def _json_names(fields: int, depth: int) -> tuple[str, ...]:
    """Per slot, the separator and name that open its field in ``_json_term_tail``."""
    pad3 = "\n" + "  " * (depth + 3)
    return tuple(f',{pad3}"{_slot_name(slot)}": ' for slot in range(fields))


def _json_array(depth: int, terms: list[str]) -> str:
    """The array of ``Polynomial.format_json(depth)`` around its terms' texts, each
    a coefficient's digits followed by the ``_json_term_tail`` of its key.  The
    list is used up: framing its end terms in place saves two copies of the text."""
    if not terms:
        return "[]"
    pad0, pad1, pad2 = ("\n" + "  " * (depth + i) for i in range(3))
    head = f'{{{pad2}"coeff": "'
    terms[0] = f"[{pad1}{head}{terms[0]}"
    terms[-1] += f"{pad0}]"
    return f",{pad1}{head}".join(terms)


def _check_guards(keys: Iterable[int]) -> None:
    """Raise OverflowError if any key has an exponent at or above 2^31."""
    if max(_slots(reduce(or_, keys, 0)), default=0) >= _GUARD:
        raise OverflowError(f"an exponent reached 2^{_WIDTH - 1}")


class Polynomial:
    """A sparse multivariate polynomial with integer coefficients.

    Internally a map from monomial key to nonzero int; two polynomials are
    equal exactly when those maps are equal.  Instances are immutable and all
    arithmetic returns new values, so they are safe to share freely.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> None:
        terms = dict(terms)
        if set(map(type, terms)) - {int} or min(terms, default=0) < 0:
            raise ValueError("monomial keys must be ints >= 0, as made by monomial()")
        if set(map(type, terms.values())) - {int}:
            raise TypeError("polynomial coefficients must be ints")
        _check_guards(terms)
        self._terms = {key: coeff for key, coeff in terms.items() if coeff}

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "Polynomial":
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({0: value})

    @classmethod
    def var(cls, variable: Variable) -> "Polynomial":
        return cls._raw({monomial({variable: 1}): 1})

    # -- inspection -------------------------------------------------------

    @property
    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def coefficient(self, key: int) -> int:
        return self._terms.get(key, 0)

    def sorted_terms(self) -> list[tuple[int, int]]:
        """Terms in the canonical order used for printing and serialization:
        z-degree ascending, then the other exponents in slot order, higher first."""
        unpack, size = _reader(-(-reduce(or_, self._terms, 0).bit_length() // _WIDTH))
        # Complementing every field but z's makes that order ascending field by field.
        flip = ((1 << (8 * size)) - 1) & ~_MASK
        return sorted(
            self._terms.items(), key=lambda item: unpack((item[0] ^ flip).to_bytes(size, "little"))
        )

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Polynomial | int) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        if not other_poly._terms:
            return self
        if not self._terms:
            return other_poly
        acc = dict(self._terms)
        _accumulate(acc, other_poly._terms.items())
        return Polynomial._raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: Polynomial | int) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        return self + (-other_poly)

    def __rsub__(self, other: Polynomial | int) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        return other_poly + (-self)

    def __mul__(self, other: Polynomial | int) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        if not self._terms or not other_poly._terms:
            return _ZERO
        acc: dict[int, int] = {}
        right = other_poly._terms.items()
        for key_a, coeff_a in self._terms.items():
            _accumulate(acc, ((key_a + key_b, coeff_a * coeff_b) for key_b, coeff_b in right))
        _check_guards(acc)
        return Polynomial._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        _check_int("exponent", exponent, 0)
        result = _ONE
        for _ in range(exponent):
            result = result * self
        return result

    def specialize(self, assignment: Mapping[Variable, Polynomial | int]) -> "Polynomial":
        """Simultaneously replace assigned variables by polynomial values.

        Each value is substituted into the original terms, so a value may
        mention assigned variables: {v1: v2, v2: v1} swaps v1 and v2.
        Unassigned variables pass through unchanged.
        """
        if not assignment:
            return self
        values: dict[int, Polynomial] = {}
        for var, val in assignment.items():
            poly = _as_poly(val)
            if poly is None:
                raise TypeError(f"assignment for {var} must be a Polynomial or int")
            values[var.slot] = poly
        assigned = sum(_MASK << (_WIDTH * slot) for slot in values)  # the assigned fields
        acc: dict[int, int] = {}
        for key, coeff in self._terms.items():
            piece = Polynomial._raw({key & ~assigned: coeff})
            for slot, value in values.items():
                piece = piece * value ** ((key >> (_WIDTH * slot)) & _MASK)
            _accumulate(acc, piece._terms.items())
        return Polynomial._raw(acc)

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        return self._terms == other_poly._terms

    def format_plain(self, ascending: bool = False) -> str:
        """Compact rendering such as ``1-zVC-2z+z^2VC``.

        ``ascending`` reverses the canonical term order; series coefficients
        are printed that way (constant first, rising powers of V).
        """
        if not self._terms:
            return "0"
        items = self.sorted_terms()
        if ascending:
            items.reverse()
        parts: list[str] = []
        for key, coeff in items:
            magnitude = abs(coeff)
            if not key:
                body = str(magnitude)
            elif magnitude == 1:
                body = monomial_str(key)
            else:
                body = f"{magnitude}{monomial_str(key)}"
            parts.append(f"+{body}" if coeff > 0 else f"-{body}")
        return "".join(parts).removeprefix("+")

    def __repr__(self) -> str:
        return self.format_plain()

    # -- serialization ----------------------------------------------------

    def format_json(self, depth: int = 0) -> str:
        """The terms as a JSON array in ``sorted_terms`` order, each ``{"coeff":
        "<decimal>", "monomial": {"<name>": <exponent>, ...}}`` with the names in
        slot order, laid out as ``json.dumps(..., indent=2)`` lays out a value
        ``depth`` levels deep, written straight from the keys (nothing needs escaping)."""
        terms = [f"{coeff}{_json_term_tail(depth, key)}" for key, coeff in self.sorted_terms()]
        return _json_array(depth, terms)


_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({0: 1})


def _accumulate(acc: dict[int, int], terms: Iterable[tuple[int, int]]) -> None:
    """acc += terms, in place, dropping every coefficient that cancels to zero."""
    for key, coeff in terms:
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)


def _as_poly(value: object) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if type(value) is int:
        return Polynomial.constant(value)
    return None


class Series:
    """A power series in z truncated at a fixed order.

    ``coefficients[n]`` is the coefficient of z^n and is a polynomial free of
    z.  A product takes two series and truncates to the smaller order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Polynomial | int]) -> None:
        out: list[Polynomial] = []
        for c in coeffs:
            poly = _as_poly(c)
            if poly is None:
                raise TypeError("series coefficients must be Polynomial or int")
            if reduce(or_, poly._terms, 0) & _MASK:  # a term with z
                raise ValueError("series coefficients must not contain z")
            out.append(poly)
        if not out:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(out)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Polynomial, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Polynomial:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside order {self.order}")
        return self._coeffs[n]

    # -- arithmetic -------------------------------------------------------

    def specialize(self, assignment: Mapping[Variable, Polynomial | int]) -> "Series":
        """Apply a substitution to every coefficient (must stay z-free)."""
        return Series([c.specialize(assignment) for c in self._coeffs])

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def format_plain(self) -> str:
        """Rendering such as ``1 + z + 2 z^2 + (41+V) z^5`` (zero terms skipped)."""
        return "".join(_plain_series(self._coeffs, methodcaller("format_plain", True)))

    def __repr__(self) -> str:
        return self.format_plain()


def _plain_series(coefficients: Iterable, text: Callable[..., str]) -> Iterator[str]:
    """``Series.format_plain`` in pieces, one per nonzero coefficient (``1``,
    `` + z``, ...), each taken as it is needed; text(coefficient) is its
    ``format_plain(ascending=True)``."""
    separator = ""
    for n, coeff in enumerate(coefficients):
        # The text replaces the coefficient, and the piece its text, so that one
        # copy is held while the piece is written and the next text is made.
        coeff = text(coeff)
        if coeff == "0":
            continue
        zpow = "" if n == 0 else " z" if n == 1 else f" z^{n}"
        # Only a sum of terms or a negative term holds a sign: no monomial does.
        if "+" in coeff or "-" in coeff:
            coeff = f"{separator}({coeff}){zpow}"
        elif coeff == "1" and zpow:
            coeff = separator + zpow[1:]
        else:
            coeff = f"{separator}{coeff}{zpow}"
        yield coeff
        separator = " + "
    if not separator:
        yield "0"


def _v_row_text(as_json: bool) -> Callable[[Sequence[int]], str]:
    """The text of a dense V-row, a sequence of ints indexed by the power of V,
    as the Polynomial with those coefficients gives it: ``format_json(2)`` when
    as_json, else ``format_plain(ascending=True)``.  JSON lists the powers from
    high to low, as ``sorted_terms`` orders keys in V alone; plain text lists
    them from low to high.  No key is built or decoded for a term: the text of
    each power comes from a table that grows with the rows."""
    v = monomial({V: 1})  # a product of monomials adds their keys, so V^k has k*v
    after: list[str] = []  # by k, the text that follows the coefficient of V^k
    # The table holds each text once: the key-text caches are bypassed.
    tail, name = _json_term_tail.__wrapped__, monomial_str.__wrapped__

    def text(row: Sequence[int]) -> str:
        for k in range(len(after), len(row)):
            key = k * v
            after.append(tail(2, key) if as_json else name(key) if k else "")
        if as_json:
            terms = [f"{c}{t}" for c, t in zip(reversed(row), reversed(after[: len(row)])) if c]
            return _json_array(2, terms)
        # A coefficient of 1 or -1 is written as its sign alone, but on V^0.
        terms = [
            f"{'+' if c > 0 else '-'}{t}"
            if c in (1, -1) and t
            else f"+{c}{t}" if c > 0 else f"{c}{t}"
            for c, t in zip(row, after)
            if c
        ]
        return "".join(terms).removeprefix("+") or "0"

    return text


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller operand order."""
    order = min(a.order, b.order)
    ac, bc = a.coefficients, b.coefficients
    out: list[Polynomial] = []
    for n in range(order + 1):
        acc: dict[int, int] = {}
        for j in range(n + 1):
            _accumulate(acc, (ac[j] * bc[n - j])._terms.items())
        out.append(Polynomial._raw(acc))
    return Series(out)
