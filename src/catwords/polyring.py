"""Exact sparse arithmetic: multivariate integer polynomials and truncated power series.

Coefficients are Python ints, so nothing ever overflows or rounds.  The
variables are the series marker ``z``, the standalone symbols ``V`` and ``C``,
and the indexed letter variables ``v1, v2, ...``.  Every operation returns a
canonical form (no stored zero coefficients, no zero exponents) and keeps
terms in one fixed order, so printed and serialized output is deterministic.
"""

from __future__ import annotations

from functools import total_ordering
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


_NAMED_SORT_RANKS = {"z": (0, 0), "C": (1, 0), "V": (2, 0)}
_NAMED_DISPLAY_RANKS = {"z": (0, 0), "V": (1, 0), "C": (3, 0)}


@total_ordering
class Variable:
    """A formal variable, totally ordered z < C < V < v1 < v2 < ...

    That order fixes how monomials are sorted and serialized.  Inside a
    printed monomial the factors appear in display order instead (z first,
    then V, then v1, v2, ..., then C), which is how these generating
    functions are conventionally written.
    """

    __slots__ = ("name", "_sort_rank", "_display_rank")

    def __init__(self, name: str) -> None:
        if name in _NAMED_SORT_RANKS:
            sort_rank = _NAMED_SORT_RANKS[name]
            display_rank = _NAMED_DISPLAY_RANKS[name]
        elif len(name) > 1 and name[0] == "v" and name[1:].isdigit() and name[1] != "0":
            index = int(name[1:])
            sort_rank = (3, index)
            display_rank = (2, index)
        else:
            raise ValueError(f"invalid variable name: {name!r}")
        self.name = name
        self._sort_rank = sort_rank
        self._display_rank = display_rank

    @property
    def index(self) -> int | None:
        """Letter index for v1, v2, ...; None for z, V, C."""
        return self._sort_rank[1] if self._sort_rank[0] == 3 else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other._sort_rank == self._sort_rank

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self._sort_rank < other._sort_rank

    def __hash__(self) -> int:
        return hash(self._sort_rank)

    def __repr__(self) -> str:
        return self.name


Z = Variable("z")
V = Variable("V")
C = Variable("C")


def letter(i: int) -> Variable:
    """The variable v_i marking occurrences of letter i (i >= 1)."""
    if i < 1:
        raise ValueError(f"letter index must be >= 1, got {i}")
    return Variable(f"v{i}")


# Sentinel that sorts after every variable rank, so that within one z-degree a
# term with more remaining factors compares before a prefix of it.
_TERM_KEY_SENTINEL = ((4, 0), 0)


class Monomial:
    """A product of variable powers; the empty product is the unit monomial."""

    __slots__ = ("_powers", "_hash")

    def __init__(
        self, powers: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()
    ) -> None:
        merged = dict(powers)
        for var, exp in merged.items():
            if not isinstance(exp, int) or exp < 1:
                raise ValueError(f"exponent of {var} must be a positive int, got {exp!r}")
        ordered = tuple(sorted(merged.items(), key=lambda item: item[0]._sort_rank))
        self._powers = ordered
        self._hash = hash(ordered)

    @classmethod
    def _raw(cls, ordered: tuple[tuple[Variable, int], ...]) -> "Monomial":
        assert all(exp > 0 for _, exp in ordered)  # canonical-form closure
        mono = object.__new__(cls)
        mono._powers = ordered
        mono._hash = hash(ordered)
        return mono

    @property
    def powers(self) -> tuple[tuple[Variable, int], ...]:
        return self._powers

    def is_unit(self) -> bool:
        return not self._powers

    def degree(self, var: Variable) -> int:
        for candidate, exp in self._powers:
            if candidate == var:
                return exp
        return 0

    def times(self, other: "Monomial") -> "Monomial":
        if not other._powers:
            return self
        if not self._powers:
            return other
        left, right = self._powers, other._powers
        out: list[tuple[Variable, int]] = []
        i = j = 0
        while i < len(left) and j < len(right):
            lv, le = left[i]
            rv, re = right[j]
            if lv._sort_rank == rv._sort_rank:
                out.append((lv, le + re))
                i += 1
                j += 1
            elif lv._sort_rank < rv._sort_rank:
                out.append(left[i])
                i += 1
            else:
                out.append(right[j])
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return Monomial._raw(tuple(out))

    def sort_key(self):
        """Canonical term key: z-degree ascending, then remaining factors compared
        variable-by-variable with higher exponents first."""
        powers = self._powers
        if powers and powers[0][0]._sort_rank == (0, 0):
            zdeg = powers[0][1]
            rest = powers[1:]
        else:
            zdeg = 0
            rest = powers
        return (zdeg, tuple((v._sort_rank, -e) for v, e in rest) + (_TERM_KEY_SENTINEL,))

    def display_str(self) -> str:
        if not self._powers:
            return "1"
        factors = sorted(self._powers, key=lambda item: item[0]._display_rank)
        return "".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and other._powers == self._powers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.display_str()


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
        return frozenset(v for mono in self._terms for v, _ in mono.powers)

    def degree_in(self, var: Variable) -> int:
        return max((mono.degree(var) for mono in self._terms), default=0)

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
        for mono, coeff in other_poly._terms.items():
            total = acc.get(mono, 0) + coeff
            if total:
                acc[mono] = total
            else:
                acc.pop(mono, None)
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
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other_poly._terms.items():
                mono = mono_a.times(mono_b)
                total = acc.get(mono, 0) + coeff_a * coeff_b
                if total:
                    acc[mono] = total
                else:
                    acc.pop(mono, None)
        return Polynomial._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def specialize(self, assignment: Mapping[Variable, PolynomialLike]) -> "Polynomial":
        """Simultaneously replace assigned variables by polynomial values.

        No value may mention a variable that is itself assigned (raises
        RecursiveAssignment), so the result does not depend on any ordering.
        Unassigned variables pass through unchanged.
        """
        if not assignment:
            return self
        values: dict[Variable, Polynomial] = {}
        for var, val in assignment.items():
            poly = _as_poly(val)
            if poly is None:
                raise TypeError(f"assignment for {var} must be a Polynomial or int")
            values[var] = poly
        keyed = set(values)
        for var, poly in values.items():
            clash = poly.variables() & keyed
            if clash:
                names = ", ".join(sorted(v.name for v in clash))
                raise RecursiveAssignment(
                    f"value for {var.name} mentions assigned variable(s): {names}"
                )
        acc: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            kept = tuple(pw for pw in mono.powers if pw[0] not in keyed)
            piece = Polynomial._raw({Monomial._raw(kept): coeff})
            for var, exp in mono.powers:
                if var in keyed:
                    piece = piece * (values[var] ** exp)
            for m, c in piece._terms.items():
                total = acc.get(m, 0) + c
                if total:
                    acc[m] = total
                else:
                    acc.pop(m, None)
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
            {"coeff": str(coeff), "monomial": {v.name: e for v, e in mono.powers}}
            for mono, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: list) -> "Polynomial":
        acc: dict[Monomial, int] = {}
        for item in obj:
            mono = Monomial({Variable(name): int(exp) for name, exp in item["monomial"].items()})
            acc[mono] = acc.get(mono, 0) + int(item["coeff"])
        return cls(acc)


_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({_UNIT_MONOMIAL: 1})


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

    def inverse(self) -> "Series":
        return series_inverse(self)

    def specialize(self, assignment: Mapping[Variable, PolynomialLike]) -> "Series":
        """Apply a substitution to every coefficient (must stay z-free)."""
        return Series([c.specialize(assignment) for c in self._coeffs])

    def as_polynomial(self) -> Polynomial:
        """Reassemble the truncation as a polynomial in z."""
        acc: dict[Monomial, int] = {}
        for n, coeff in enumerate(self._coeffs):
            zpart = Monomial({Z: n}) if n else _UNIT_MONOMIAL
            for mono, value in coeff._terms.items():
                acc[zpart.times(mono)] = value
        return Polynomial._raw(acc)

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
        if len(coeffs) != int(obj["order"]) + 1:
            raise ValueError("coefficient count does not match declared order")
        return cls(coeffs)


def series_from_poly(p: Polynomial, order: int) -> Series:
    """Split p by powers of z into slots 0..order; higher powers are dropped."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    buckets: list[dict[Monomial, int]] = [{} for _ in range(order + 1)]
    for mono, coeff in p._terms.items():
        zdeg = mono.degree(Z)
        if zdeg > order:
            continue
        rest = Monomial._raw(tuple(pw for pw in mono.powers if pw[0] != Z))
        bucket = buckets[zdeg]
        bucket[rest] = bucket.get(rest, 0) + coeff
    return Series([Polynomial._raw({m: c for m, c in b.items() if c}) for b in buckets])


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller operand order."""
    order = min(a.order, b.order)
    ac, bc = a.coefficients, b.coefficients
    out: list[Polynomial] = []
    for n in range(order + 1):
        acc: dict[Monomial, int] = {}
        for j in range(n + 1):
            left = ac[j]
            if left.is_zero():
                continue
            right = bc[n - j]
            if right.is_zero():
                continue
            for mono, coeff in (left * right)._terms.items():
                total = acc.get(mono, 0) + coeff
                if total:
                    acc[mono] = total
                else:
                    acc.pop(mono, None)
        out.append(Polynomial._raw(acc))
    return Series(out)


def series_inverse(s: Series) -> Series:
    """Invert a series with constant coefficient 1.

    Uses the linear recurrence t_0 = 1, t_n = -sum_{j=1..n} s_j t_{n-j};
    the result satisfies s * t == 1 exactly through the order of s.
    """
    if not s.coefficient(0).is_one():
        raise NonUnitConstantTerm("series inversion requires constant coefficient 1")
    sc = s.coefficients
    inv: list[Polynomial] = [_ONE]
    for n in range(1, s.order + 1):
        acc: dict[Monomial, int] = {}
        for j in range(1, n + 1):
            sj = sc[j]
            if sj.is_zero():
                continue
            for mono, coeff in (sj * inv[n - j])._terms.items():
                total = acc.get(mono, 0) + coeff
                if total:
                    acc[mono] = total
                else:
                    acc.pop(mono, None)
        inv.append(Polynomial._raw({mono: -coeff for mono, coeff in acc.items()}))
    return Series(inv)


def series_div(num: Series, den: Series) -> Series:
    """Quotient of two series; den must have constant coefficient 1.

    Long division q_n = num_n - sum_{j=1..n} den_j q_{n-j} gives the same
    exact result as multiplying by series_inverse(den), but the intermediate
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
            for mono, coeff in (dj * quot[n - j])._terms.items():
                total = acc.get(mono, 0) - coeff
                if total:
                    acc[mono] = total
                else:
                    acc.pop(mono, None)
        quot.append(Polynomial._raw(acc))
    return Series(quot)
