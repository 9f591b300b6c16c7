"""Exact sparse arithmetic: multivariate integer polynomials and truncated power series.

Coefficients are Python ints, so nothing ever rounds.  The variables are the
series marker ``z``, the standalone symbols ``V`` and ``C``, and the indexed
letter variables ``v1, v2, ...``, with fixed slots z = 0, C = 1, V = 2 and
v_i = 2 + i.  A monomial is one int, its key, with the exponent of slot s in
bits 32*s .. 32*s + 31: z^2*V*v1 is 2 + (1 << 64) + (1 << 96), the unit is 0,
and a product of monomials is the sum of their keys.  Exponents stay below
2^31, so the top bit of every field is clear and two keys add without a carry
between fields; a product whose exponent reaches 2^31 raises OverflowError
instead of wrapping.  ``monomial`` builds a key, ``exponents`` reads it back
and ``monomial_str`` prints it.  Terms are sorted and serialized in slot
order; printed monomials use the display order z, V, v1, v2, ..., C.  Every
operation returns a canonical form (no zero coefficients) in one term order,
so output is deterministic.  A series product takes two series.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache, reduce, total_ordering
from operator import or_

__all__ = [
    "C",
    "Polynomial",
    "RecursiveAssignment",
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


class RecursiveAssignment(ValueError):
    """A substitution value mentions a variable that is itself being substituted."""


_NAMED_SLOTS = {"z": 0, "C": 1, "V": 2}
_LETTER_NAME = re.compile("v[1-9][0-9]*")
_DECIMAL = re.compile("-?[0-9]+")

_WIDTH = 32  # bits per slot: one little-endian struct "I" field
_MASK = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)  # the bit no stored exponent may reach


def _slot_name(slot: int) -> str:
    return "zCV"[slot] if slot < 3 else f"v{slot - 2}"


@total_ordering
class Variable:
    """A formal variable with a fixed slot: z = 0, C = 1, V = 2, v_i = 2 + i.

    Variables are totally ordered by slot, z < C < V < v1 < v2 < ..., and
    that order fixes how monomials are sorted and serialized.  Inside a
    printed monomial the factors appear in display order instead (z first,
    then V, then v1, v2, ..., then C), which is how these generating
    functions are conventionally written.
    """

    __slots__ = ("slot",)

    def __init__(self, name: str) -> None:
        slot = _NAMED_SLOTS.get(name)
        if slot is None:
            if not _LETTER_NAME.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")
            slot = 2 + int(name[1:])
        self.slot = slot

    @classmethod
    def _at(cls, slot: int) -> "Variable":
        var = object.__new__(cls)
        var.slot = slot
        return var

    @property
    def name(self) -> str:
        return _slot_name(self.slot)

    def __eq__(self, other: object) -> bool:
        return self.slot == other.slot if other.__class__ is self.__class__ else NotImplemented

    def __lt__(self, other: Variable) -> bool:
        return self.slot < other.slot if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.slot)

    def __repr__(self) -> str:
        return self.name


Z = Variable("z")
V = Variable("V")
C = Variable("C")


def letter(i: int) -> Variable:
    """The variable v_i marking occurrences of letter i (i >= 1)."""
    if i < 1:
        raise ValueError(f"letter index must be >= 1, got {i}")
    return Variable._at(2 + i)


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
    return {Variable._at(slot): e for slot, e in enumerate(_slots(key)) if e}


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
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        result = _ONE
        for _ in range(exponent):
            result = result * self
        return result

    def specialize(self, assignment: Mapping[Variable, Polynomial | int]) -> "Polynomial":
        """Simultaneously replace assigned variables by polynomial values.

        No value may mention a variable that is itself assigned (raises
        RecursiveAssignment), so the result does not depend on any ordering.
        Unassigned variables pass through unchanged.
        """
        if not assignment:
            return self
        keyed = set(assignment)
        values: dict[int, Polynomial] = {}
        for var, val in assignment.items():
            poly = _as_poly(val)
            if poly is None:
                raise TypeError(f"assignment for {var} must be a Polynomial or int")
            values[var.slot] = poly
            clash = exponents(reduce(or_, poly._terms, 0)).keys() & keyed
            if clash:
                names = ", ".join(sorted(v.name for v in clash))
                raise RecursiveAssignment(
                    f"value for {var.name} mentions assigned variable(s): {names}"
                )
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
        """``json.dumps(self.to_json_obj(), indent=2)`` for a value nested ``depth``
        levels deep, written straight from the keys.  Coefficient strings,
        variable names and exponents need no escaping."""
        if not self._terms:
            return "[]"
        pad0, pad1, pad2 = ("\n" + "  " * (depth + i) for i in range(3))
        head = f'{{{pad2}"coeff": "'
        terms = [f"{coeff}{_json_term_tail(depth, key)}" for key, coeff in self.sorted_terms()]
        return f"[{pad1}{head}" + f",{pad1}{head}".join(terms) + f"{pad0}]"

    def to_json_obj(self) -> list:
        fields = -(-reduce(or_, self._terms, 0).bit_length() // _WIDTH)
        unpack, size = _reader(fields)
        names = [_slot_name(slot) for slot in range(fields)]
        return [
            {
                "coeff": str(coeff),
                "monomial": {
                    names[slot]: e for slot, e in enumerate(unpack(key.to_bytes(size, "little"))) if e
                },
            }
            for key, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: list) -> "Polynomial":
        acc: dict[int, int] = {}
        for item in obj:
            powers = {Variable(name): _json_int(e) for name, e in item["monomial"].items()}
            key = monomial(powers)
            acc[key] = acc.get(key, 0) + _json_int(item["coeff"], text=True)
        return cls(acc)


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


def _json_int(value: object, text: bool = False) -> int:
    """An int read from JSON; with text set, also a string of ASCII decimal digits."""
    if type(value) is int or (text and isinstance(value, str) and _DECIMAL.fullmatch(value)):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


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
        return "".join(_plain_series(self._coeffs))

    def __repr__(self) -> str:
        return self.format_plain()

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json_obj() for c in self._coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Series":
        coeffs = [Polynomial.from_json_obj(item) for item in obj["coeffs"]]
        if len(coeffs) != _json_int(obj["order"]) + 1:
            raise ValueError("coefficient count does not match declared order")
        return cls(coeffs)


def _plain_series(coefficients: Iterable[Polynomial]) -> Iterator[str]:
    """``Series.format_plain`` of these coefficients in pieces, one per nonzero
    coefficient (``1``, `` + z``, ...), each formatted as it is taken."""
    separator = ""
    for n, coeff in enumerate(coefficients):
        if coeff.is_zero():
            continue
        text = coeff.format_plain(ascending=True)
        wrapped = f"({text})" if len(coeff) > 1 or text.startswith("-") else text
        if n == 0:
            term = wrapped
        else:
            zpow = "z" if n == 1 else f"z^{n}"
            term = zpow if coeff.is_one() else f"{wrapped} {zpow}"
        yield separator + term
        separator = " + "
    if not separator:
        yield "0"


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
