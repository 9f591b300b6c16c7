"""Exact sparse arithmetic: multivariate integer polynomials and truncated power series.

Coefficients are Python ints, so nothing ever overflows or rounds.  The
variables are the series marker ``z``, the standalone symbols ``V`` and ``C``,
and the indexed letter variables ``v1, v2, ...``.  Each has a fixed slot,
z = 0, C = 1, V = 2 and v_i = 2 + i, and a monomial is the tuple of its
exponents by slot with no trailing zeros, so z^2*V*v1 is (2, 0, 1, 1).  Terms
are sorted and serialized in slot order; printed monomials use a separate
display order, z, V, v1, v2, ..., C.  Every operation returns a canonical form
(no stored zero coefficients, no trailing zero exponents) and keeps terms in
one fixed order, so printed and serialized output is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping, Union

__all__ = [
    "C",
    "Monomial",
    "NonUnitConstantTerm",
    "Polynomial",
    "RecursiveAssignment",
    "Series",
    "V",
    "Variable",
    "Z",
    "letter",
    "series_div",
    "series_from_poly",
    "series_inverse",
    "series_mul",
]


class RecursiveAssignment(ValueError):
    """A substitution value mentions a variable that is itself being substituted."""


class NonUnitConstantTerm(ValueError):
    """Series inversion needs the constant coefficient to be exactly 1."""


_NAMED_SLOTS = {"z": 0, "C": 1, "V": 2}
_LETTER_NAME = re.compile("v[1-9][0-9]*")
_DECIMAL = re.compile("-?[0-9]+")


def _slot_name(slot: int) -> str:
    return "zCV"[slot] if slot < 3 else f"v{slot - 2}"


@dataclass(order=True, slots=True)
class Variable:
    """A formal variable with a fixed slot: z = 0, C = 1, V = 2, v_i = 2 + i.

    Variables are totally ordered by slot, z < C < V < v1 < v2 < ..., and
    that order fixes how monomials are sorted and serialized.  Inside a
    printed monomial the factors appear in display order instead (z first,
    then V, then v1, v2, ..., then C), which is how these generating
    functions are conventionally written.
    """

    slot: int

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

    @property
    def index(self) -> int | None:
        """Letter index for v1, v2, ...; None for z, V, C."""
        return self.slot - 2 if self.slot > 2 else None

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


class Monomial(tuple):
    """A product of variable powers: the exponents indexed by variable slot,
    with no trailing zeros, so the empty tuple is the unit monomial."""

    __slots__ = ()

    def __new__(
        cls, powers: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()
    ) -> "Monomial":
        exps: list[int] = []
        for var, exp in dict(powers).items():
            if not isinstance(exp, int) or exp < 1:
                raise ValueError(f"exponent of {var} must be a positive int, got {exp!r}")
            exps.extend([0] * (var.slot + 1 - len(exps)))
            exps[var.slot] = exp
        return tuple.__new__(cls, exps)

    def __getnewargs__(self):  # pickle and copy rebuild a Monomial from its powers
        return (self.powers,)

    @property
    def powers(self) -> tuple[tuple[Variable, int], ...]:
        return tuple((Variable._at(slot), e) for slot, e in enumerate(self) if e)

    def is_unit(self) -> bool:
        return not self

    def degree(self, var: Variable) -> int:
        return self[var.slot] if var.slot < len(self) else 0

    def times(self, other: "Monomial") -> "Monomial":
        if len(self) < len(other):
            self, other = other, self
        if not other:
            return self
        return tuple.__new__(Monomial, (*map(add, self, other), *self[len(other) :]))

    def sort_key(self):
        """Canonical term key: z-degree ascending, then the remaining slots
        compared in order with higher exponents first; the closing 1 outranks
        every negated exponent, so a term sorts before each prefix of it."""
        return (self[0] if self else 0, tuple([-e for e in self[1:]]) + (1,))

    def display_str(self) -> str:
        factors = [*enumerate(self[:1]), *enumerate(self[2:], 2), *enumerate(self[1:2], 1)]
        names = ((_slot_name(slot), e) for slot, e in factors if e)
        return "".join(name if e == 1 else f"{name}^{e}" for name, e in names) or "1"

    def __repr__(self) -> str:
        return self.display_str()


def _monomial(exps: list[int]) -> Monomial:
    """The monomial with these exponents by slot (trailing zeros are dropped)."""
    while exps and not exps[-1]:
        exps.pop()
    return tuple.__new__(Monomial, exps)


_UNIT_MONOMIAL = Monomial()

PolynomialLike = Union["Polynomial", int]


class Polynomial:
    """A sparse multivariate polynomial with integer coefficients.

    Internally a map from Monomial to nonzero int; two polynomials are equal
    exactly when those maps are equal.  Instances are immutable and all
    arithmetic returns new values, so they are safe to share freely.
    """

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()
    ) -> None:
        self._terms = {mono: coeff for mono, coeff in dict(terms).items() if coeff != 0}

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Polynomial":
        assert all(coeff != 0 for coeff in terms.values())  # canonical-form closure
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
        if value == 0:
            return _ZERO
        return cls._raw({_UNIT_MONOMIAL: value})

    @classmethod
    def var(cls, variable: Variable) -> "Polynomial":
        return cls._raw({Monomial({variable: 1}): 1})

    # -- inspection -------------------------------------------------------

    @property
    def constant_term(self) -> int:
        return self._terms.get(_UNIT_MONOMIAL, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {_UNIT_MONOMIAL: 1}

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _UNIT_MONOMIAL in self._terms)

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def variables(self) -> frozenset[Variable]:
        slots = {slot for mono in self._terms for slot, e in enumerate(mono) if e}
        return frozenset(map(Variable._at, slots))

    def degree_in(self, var: Variable) -> int:
        slot = var.slot
        return max((mono[slot] for mono in self._terms if slot < len(mono)), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical order used for printing and serialization."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: PolynomialLike) -> "Polynomial":
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
        return Polynomial._raw({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: PolynomialLike) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        return self + (-other_poly)

    def __rsub__(self, other: PolynomialLike) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        return other_poly + (-self)

    def __mul__(self, other: PolynomialLike) -> "Polynomial":
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        if not self._terms or not other_poly._terms:
            return _ZERO
        acc: dict[Monomial, int] = {}
        right = other_poly._terms.items()
        for mono_a, coeff_a in self._terms.items():
            products = ((mono_a.times(mono_b), coeff_a * coeff_b) for mono_b, coeff_b in right)
            _accumulate(acc, products)
        return Polynomial._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        result = _ONE
        for _ in range(exponent):
            result = result * self
        return result

    def specialize(self, assignment: Mapping[Variable, PolynomialLike]) -> "Polynomial":
        """Simultaneously replace assigned variables by polynomial values.

        No value may mention a variable that is itself assigned (raises
        RecursiveAssignment), so the result does not depend on any ordering.
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
        keyed = set(assignment)
        for var in assignment:
            clash = values[var.slot].variables() & keyed
            if clash:
                names = ", ".join(sorted(v.name for v in clash))
                raise RecursiveAssignment(
                    f"value for {var.name} mentions assigned variable(s): {names}"
                )
        acc: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            kept = list(mono)
            factors = []
            for slot, exp in enumerate(mono):
                if exp and slot in values:
                    kept[slot] = 0
                    factors.append(values[slot] ** exp)
            piece = Polynomial._raw({_monomial(kept): coeff})
            for factor in factors:
                piece = piece * factor
            _accumulate(acc, piece._terms.items())
        return Polynomial._raw(acc)

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        other_poly = _as_poly(other)
        if other_poly is None:
            return NotImplemented
        return self._terms == other_poly._terms

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.constant_term)
        return hash(frozenset(self._terms.items()))

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
        for position, (mono, coeff) in enumerate(items):
            magnitude = abs(coeff)
            if mono.is_unit():
                body = str(magnitude)
            elif magnitude == 1:
                body = mono.display_str()
            else:
                body = f"{magnitude}{mono.display_str()}"
            if position == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if coeff > 0 else f"-{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return self.format_plain()

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> list:
        return [
            {
                "coeff": str(coeff),
                "monomial": {_slot_name(slot): e for slot, e in enumerate(mono) if e},
            }
            for mono, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: list) -> "Polynomial":
        acc: dict[Monomial, int] = {}
        for item in obj:
            powers = {Variable(name): _json_int(e) for name, e in item["monomial"].items()}
            mono = Monomial(powers)
            acc[mono] = acc.get(mono, 0) + _json_int(item["coeff"], text=True)
        return cls(acc)


_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({_UNIT_MONOMIAL: 1})


def _accumulate(
    acc: dict[Monomial, int], terms: Iterable[tuple[Monomial, int]], sign: int = 1
) -> None:
    """acc += sign * terms, in place, dropping every coefficient that cancels to zero."""
    for mono, coeff in terms:
        total = acc.get(mono, 0) + sign * coeff
        if total:
            acc[mono] = total
        else:
            acc.pop(mono, None)


def _json_int(value: object, text: bool = False) -> int:
    """An int read from JSON; with text set, also a string of ASCII decimal digits."""
    if type(value) is int or (text and isinstance(value, str) and _DECIMAL.fullmatch(value)):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _as_poly(value: object) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return None


class Series:
    """A power series in z truncated at a fixed order.

    ``coefficients[n]`` is the coefficient of z^n and is a polynomial free of
    z.  Mixed-order arithmetic truncates to the smaller order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[PolynomialLike]) -> None:
        out: list[Polynomial] = []
        for c in coeffs:
            poly = _as_poly(c)
            if poly is None:
                raise TypeError("series coefficients must be Polynomial or int")
            if poly.degree_in(Z):
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

    def __add__(self, other: "Series" | PolynomialLike) -> "Series":
        if isinstance(other, Series):
            order = min(self.order, other.order)
            return Series(
                [self._coeffs[n] + other._coeffs[n] for n in range(order + 1)]
            )
        poly = _as_poly(other)
        if poly is None:
            return NotImplemented
        return Series([self._coeffs[0] + poly, *self._coeffs[1:]])

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def __sub__(self, other: "Series" | PolynomialLike) -> "Series":
        if isinstance(other, Series):
            return self + (-other)
        poly = _as_poly(other)
        if poly is None:
            return NotImplemented
        return self + (-poly)

    def __rsub__(self, other: PolynomialLike) -> "Series":
        return (-self) + other

    def __mul__(self, other: "Series" | PolynomialLike) -> "Series":
        if isinstance(other, Series):
            return series_mul(self, other)
        poly = _as_poly(other)
        if poly is None:
            return NotImplemented
        return Series([c * poly for c in self._coeffs])

    __rmul__ = __mul__

    def shift(self, k: int = 1) -> "Series":
        """Multiply by z^k, keeping the truncation order."""
        if k < 0:
            raise ValueError(f"shift must be >= 0, got {k}")
        size = self.order + 1
        kept = self._coeffs[: max(size - k, 0)]
        return Series([_ZERO] * min(k, size) + list(kept))

    def specialize(self, assignment: Mapping[Variable, PolynomialLike]) -> "Series":
        """Apply a substitution to every coefficient (must stay z-free)."""
        return Series([c.specialize(assignment) for c in self._coeffs])

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def format_plain(self) -> str:
        """Rendering such as ``1 + z + 2 z^2 + (41+V) z^5`` (zero terms skipped)."""
        parts: list[str] = []
        for n, coeff in enumerate(self._coeffs):
            if coeff.is_zero():
                continue
            text = coeff.format_plain(ascending=True)
            wrapped = f"({text})" if len(coeff) > 1 or text.startswith("-") else text
            if n == 0:
                parts.append(wrapped)
                continue
            zpow = "z" if n == 1 else f"z^{n}"
            parts.append(zpow if coeff.is_one() else f"{wrapped} {zpow}")
        return " + ".join(parts) if parts else "0"

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


def series_from_poly(p: Polynomial, order: int) -> Series:
    """Split p by powers of z into slots 0..order; higher powers are dropped."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    buckets: list[dict[Monomial, int]] = [{} for _ in range(order + 1)]
    for mono, coeff in p._terms.items():
        zdeg = mono[0] if mono else 0
        if zdeg <= order:
            # Distinct monomials of p differ off slot 0 when their z-degrees agree.
            buckets[zdeg][_monomial([0, *mono[1:]])] = coeff
    return Series([Polynomial._raw(b) for b in buckets])


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller operand order."""
    order = min(a.order, b.order)
    ac, bc = a.coefficients, b.coefficients
    out: list[Polynomial] = []
    for n in range(order + 1):
        acc: dict[Monomial, int] = {}
        for j in range(n + 1):
            _accumulate(acc, (ac[j] * bc[n - j])._terms.items())
        out.append(Polynomial._raw(acc))
    return Series(out)


def series_inverse(s: Series) -> Series:
    """Invert a series with constant coefficient 1: the quotient 1 / s, so
    that s * t == 1 exactly through the order of s."""
    if not s.coefficient(0).is_one():
        raise NonUnitConstantTerm("series inversion requires constant coefficient 1")
    return series_div(Series([_ONE] + [_ZERO] * s.order), s)


def series_div(num: Series, den: Series) -> Series:
    """Quotient of two series; den must have constant coefficient 1.

    Long division q_n = num_n - sum_{j=1..n} den_j q_{n-j} gives the same
    exact result as multiplying by the inverse of den, but the intermediate
    polynomials stay as small as the answer, which matters when the bare
    inverse would be far denser than the quotient.
    """
    if not den.coefficient(0).is_one():
        raise NonUnitConstantTerm("series division requires denominator constant 1")
    order = min(num.order, den.order)
    nc, dc = num.coefficients, den.coefficients
    quot: list[Polynomial] = [nc[0]]
    for n in range(1, order + 1):
        acc: dict[Monomial, int] = dict(nc[n]._terms)
        for j in range(1, n + 1):
            dj = dc[j]
            if dj.is_zero():
                continue
            _accumulate(acc, (dj * quot[n - j])._terms.items(), -1)
        quot.append(Polynomial._raw(acc))
    return Series(quot)
