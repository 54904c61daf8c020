"""Exact sparse polynomial arithmetic over the rationals in named variables.

An Expression is a sparse map from monomials to nonzero Fraction
coefficients.  Each monomial is a tuple of (variable, exponent) pairs sorted
by variable name (exponents are positive); the empty tuple is the constant
monomial, and the zero polynomial is the empty map.  Because only nonzero
coefficients are stored, map equality coincides with equality in the
polynomial ring, which is what makes every identity check in this package
an exact, decidable test.

The map is unordered, so ring operations never sort.  The canonical order,
descending graded lexicographic (total degree first, then lexicographically
by variable name), is produced the first time `terms` is read, the
expression is iterated or it is printed, and is cached on the immutable
object.  Printing is therefore canonical too:

    Expression.variable("z1") ** 2 - Expression.variable("z2") ** 2
    # prints as "z1^2 - z2^2"

The printed text is valid input for folicalc.dsl.parse_expression and parses
back to an equal Expression.

Coefficients are exact: constructors accept only int (not bool) and Fraction
scalars and raise InputError for anything else, floats included.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Number
from typing import Iterable, Iterator, Mapping, Union

from .errors import InputError

# The exact scalar field.  Fraction already maintains the invariants we need:
# reduced terms, positive denominator, arbitrary-precision integers.
Rational = Fraction

# Monomial: ((variable, exponent), ...) sorted by variable, every exponent >= 1.
# The empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def is_identifier(name: str) -> bool:
    """True if name is a legal variable name in the expression grammar."""
    return isinstance(name, str) and _IDENT_RE.match(name) is not None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(value) -> Fraction:
    # The exactness boundary: a float would silently become its binary value.
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise InputError(
        f"coefficient must be an int or Fraction, not {type(value).__name__}"
    )


def _term_order_key(item: tuple[Monomial, Fraction]):
    # Ascending sort by this key = descending graded lex order.  Negating the
    # exponents makes an earlier variable with a higher power sort first.
    mono = item[0]
    return (-sum(e for _, e in mono), tuple((v, -e) for v, e in mono))


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    # Merge two sorted (variable, exponent) tuples, adding exponents.
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _add_into(
    acc: dict[Monomial, Fraction], coeffs: Mapping[Monomial, Fraction], negate=False
):
    # acc += coeffs (or -= with negate), keeping acc free of zero coefficients.
    for mono, coeff in coeffs.items():
        if negate:
            coeff = -coeff
        old = acc.get(mono)
        if old is None:
            acc[mono] = coeff
        else:
            total = old + coeff
            if total:
                acc[mono] = total
            else:
                del acc[mono]


class Expression:
    """Immutable multivariate polynomial with exact rational coefficients."""

    # _coeffs is the only state set at construction; _terms (the canonical
    # order) and _hash are filled in on first use.
    __slots__ = ("_coeffs", "_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        accumulated: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = _scalar(coeff)
            if coeff == 0:
                continue
            key = tuple(sorted((v, e) for v, e in mono))
            for name, exponent in key:
                if not is_identifier(name):
                    raise InputError(f"invalid variable name {name!r}")
                if not _is_int(exponent) or exponent <= 0:
                    raise InputError(
                        f"monomial exponent for {name!r} must be a positive int"
                    )
            if len({v for v, _ in key}) != len(key):
                raise InputError("monomial repeats a variable")
            accumulated[key] = accumulated.get(key, _ZERO) + coeff
        self._coeffs = {m: c for m, c in accumulated.items() if c}

    @staticmethod
    def _build(coeffs: dict[Monomial, Fraction]) -> "Expression":
        # The internal constructor: keys are canonical monomials, values are
        # nonzero Fractions, and the dict is not shared with anyone else.
        expr = object.__new__(Expression)
        expr._coeffs = coeffs
        return expr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Expression":
        return cls._build({})

    @classmethod
    def one(cls) -> "Expression":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: Scalar) -> "Expression":
        value = _scalar(value)
        return cls._build({(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Expression":
        if not is_identifier(name):
            raise InputError(f"invalid variable name {name!r}")
        return cls._build({((name, 1),): _ONE})

    @staticmethod
    def sum(
        parts: Iterable["Expression | Scalar"],
        minus: Iterable["Expression | Scalar"] = (),
    ) -> "Expression":
        """sum(parts) - sum(minus), accumulated into one map.

        Linear in the total number of terms, where folding `a + b` over a
        long sequence copies the growing partial sum at every step.
        """
        acc: dict[Monomial, Fraction] = {}
        for negate, group in ((False, parts), (True, minus)):
            for part in group:
                coerced = _coerce(part)
                if coerced is None:
                    raise InputError(
                        f"cannot add {type(part).__name__} to an expression"
                    )
                _add_into(acc, coerced._coeffs, negate)
        return Expression._build(acc)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs in canonical order.

        Terms are stored unordered; the descending graded lex order is
        computed on the first read and cached.
        """
        try:
            return self._terms
        except AttributeError:
            self._terms = tuple(sorted(self._coeffs.items(), key=_term_order_key))
            return self._terms

    def is_zero(self) -> bool:
        """True iff this is the empty sum, i.e. the zero polynomial."""
        return not self._coeffs

    def variables(self) -> frozenset[str]:
        return frozenset(v for mono in self._coeffs for v, _ in mono)

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e for _, e in mono) for mono in self._coeffs), default=0)

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if non-constant."""
        if not self._coeffs:
            return _ZERO
        if len(self._coeffs) == 1:
            return self._coeffs.get(())
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        big, small = self._coeffs, other._coeffs
        if len(big) < len(small):
            big, small = small, big
        merged = dict(big)
        _add_into(merged, small)
        return Expression._build(merged)

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return Expression._build({m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        product: dict[Monomial, Fraction] = {}
        right = other._coeffs.items()
        for mono_a, coeff_a in self._coeffs.items():
            for mono_b, coeff_b in right:
                mono = _merge_monomials(mono_a, mono_b)
                coeff = coeff_a * coeff_b
                old = product.get(mono)
                product[mono] = coeff if old is None else old + coeff
        return Expression._build({m: c for m, c in product.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Expression":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("exponent must be a non-negative integer")
        result = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return Expression.one() if result is None else result

    # -- calculus and substitution -----------------------------------------

    def partial(self, variable: str) -> "Expression":
        """Formal partial derivative with respect to a variable name."""
        # Lowering one exponent maps distinct monomials to distinct monomials,
        # so no two terms collide and no coefficient cancels.
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._coeffs.items():
            for position, (name, exponent) in enumerate(mono):
                if name != variable:
                    continue
                if exponent == 1:
                    reduced = mono[:position] + mono[position + 1 :]
                else:
                    reduced = (
                        mono[:position]
                        + ((name, exponent - 1),)
                        + mono[position + 1 :]
                    )
                out[reduced] = coeff * exponent
                break
        return Expression._build(out)

    def substitute(self, bindings: Mapping[str, "Expression | Scalar"]) -> "Expression":
        """Simultaneous substitution of expressions for variables."""
        resolved: dict[str, Expression] = {}
        for name, value in bindings.items():
            coerced = _coerce(value)
            if coerced is None:
                raise InputError(f"binding for {name!r} is not an expression")
            resolved[name] = coerced
        parts = []
        for mono, coeff in self._coeffs.items():
            term = Expression.constant(coeff)
            for name, exponent in mono:
                factor = resolved.get(name)
                if factor is None:
                    factor = Expression.variable(name)
                term = term * factor**exponent
            parts.append(term)
        return Expression.sum(parts)

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point; every variable must be bound."""
        total = _ZERO
        for mono, coeff in self._coeffs.items():
            term = coeff
            for name, exponent in mono:
                if name not in values:
                    raise InputError(f"no value bound for variable {name!r}")
                term *= _scalar(values[name]) ** exponent
            total += term
        return total

    # -- equality and printing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self._coeffs.items()))
            return self._hash

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for position, (mono, coeff) in enumerate(self.terms):
            magnitude = -coeff if coeff < 0 else coeff
            body = _term_text(mono, magnitude)
            if position == 0:
                if coeff < 0:
                    # A leading "-" must not attach to a powered factor:
                    # "-z1^2" would read back as (-z1)^2 under the grammar.
                    if magnitude == 1 and mono and mono[0][1] > 1:
                        body = "1*" + body
                    parts.append("-" + body)
                else:
                    parts.append(body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Expression({str(self)!r})"


def _term_text(mono: Monomial, magnitude: Fraction) -> str:
    if not mono:
        return str(magnitude)
    factors = [] if magnitude == 1 else [str(magnitude)]
    factors.extend(v if e == 1 else f"{v}^{e}" for v, e in mono)
    return "*".join(factors)


def _coerce(value) -> Expression | None:
    # None (so operators return NotImplemented) for non-numbers; a number
    # that is not an exact scalar raises InputError in constant().
    if isinstance(value, Expression):
        return value
    if isinstance(value, Number):
        return Expression.constant(value)
    return None
