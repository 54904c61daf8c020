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

Products are where the time goes (every identity check ends in them), so a
product whose factors both have two or more terms, and at least
_PACKED_MIN_PAIRS pairs of terms between them, runs through a dedicated
kernel after Monagan and Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors" (CASC 2007).  Each monomial becomes one
int with a bit field per variable, wide enough that adding two keys never
carries, and each factor's coefficients become integer numerators over the
factor's least common denominator.  The inner loop is then one int addition
and one int multiply-add per pair of terms; the Fraction normalisation and
the monomial tuple are paid once per distinct output term, not once per pair.
That wins when products of terms collide, as in powers and products of dense
polynomials: about 7x on the products the benchmark's ring workload makes.
Packing and unpacking cost a fixed amount, though, and when nothing collides
the kernel does not win back the per-output work.  Timed against the direct
loop (2-vCPU VM, Python 3.11.7): 2.5x slower at one pair; dense factors win from 9 pairs (3x3: 0.8x,
4x4: 0.55x); sparse random factors break even at 20 to 25 (4x4: 1.1x, 5x5:
0.9x); a single-term factor never collides and stays 1.1x (monomial) to
1.6x (constant) slower at any size.  _PACKED_MIN_PAIRS = 16 sits between
the dense and the sparse crossover; on the operands the benchmark's sweep
and cli workloads multiply at 16 to 19 pairs the kernel takes 1.04x the
loop's time.  Other products keep the direct loop over Fraction
coefficients and tuple monomials.
"""

from __future__ import annotations

import math
import re
import sys
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

# Products of at least this many term pairs (len(a) * len(b)), both factors
# having two or more terms, go through _packed_product; see the module
# docstring for the measurement behind the value.
_PACKED_MIN_PAIRS = 16


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


def _packed_product(
    a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction]
) -> dict[Monomial, Fraction]:
    # a * b with packed exponent keys and integer coefficients.  Each
    # variable owns a bit field wide enough for the largest exponent sum it
    # can reach, so adding two keys adds exponents field by field without
    # carries, and the keys of distinct product monomials stay distinct.
    top_a: dict[str, int] = {}
    top_b: dict[str, int] = {}
    for coeffs, top in ((a, top_a), (b, top_b)):
        for mono in coeffs:
            for name, exponent in mono:
                if exponent > top.get(name, 0):
                    top[name] = exponent
    shifts: dict[str, int] = {}
    fields = []
    shift = 0
    for name in sorted(top_a.keys() | top_b.keys()):
        width = (top_a.get(name, 0) + top_b.get(name, 0)).bit_length()
        shifts[name] = shift
        fields.append((name, shift, (1 << width) - 1))
        shift += width

    def pack(coeffs):
        # Integer numerators over the least common denominator.
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        rows = [
            (sum(e << shifts[v] for v, e in mono), c.numerator * (den // c.denominator))
            for mono, c in coeffs.items()
        ]
        return rows, den

    left, den_a = pack(a)
    right, den_b = pack(b)
    acc: dict[int, int] = {}
    get = acc.get
    for key_a, num_a in left:
        for key_b, num_b in right:
            key = key_a + key_b
            acc[key] = get(key, 0) + num_a * num_b
    den = den_a * den_b
    # Equal numerators share one normalised Fraction: products repeat
    # coefficient values (binomials, small integers) far more than monomials.
    fractions: dict[int, Fraction] = {}
    product: dict[Monomial, Fraction] = {}
    for key, num in acc.items():
        if num:
            coeff = fractions.get(num)
            if coeff is None:
                coeff = fractions[num] = Fraction(num, den)
            mono = tuple([
                (name, exponent)
                for name, shift, mask in fields
                if (exponent := (key >> shift) & mask)
            ])
            product[mono] = coeff
    return product


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
        left, right = self._coeffs, other._coeffs
        if len(left) > 1 and len(right) > 1 and len(left) * len(right) >= _PACKED_MIN_PAIRS:
            return Expression._build(_packed_product(left, right))
        product: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in left.items():
            for mono_b, coeff_b in right.items():
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
    factors = [v if e == 1 else f"{v}^{e}" for v, e in mono]
    if magnitude != 1 or not mono:
        try:
            factors.insert(0, str(magnitude))
        except ValueError:
            # Past the interpreter's int/str digit limit.  The parser rejects
            # literals that long, so printing one would break the print->parse
            # fixpoint; the limit stays and the caller gets an input error.
            raise InputError(
                f"cannot print a coefficient of {_decimal_digits(magnitude)} "
                f"digits (the limit is {sys.get_int_max_str_digits()})"
            ) from None
    return "*".join(factors)


def _decimal_digits(value: Fraction) -> int:
    # Digits in the longer of numerator and denominator, without str().
    n = max(value.numerator, value.denominator)
    digits = int(math.log10(n)) + 1
    if n < 10 ** (digits - 1):
        digits -= 1
    elif n >= 10**digits:
        digits += 1
    return digits


def _as_expression(value) -> Expression:
    # A coefficient given as an Expression or as an exact scalar; anything
    # else is an InputError from constant().
    return value if isinstance(value, Expression) else Expression.constant(value)


def _coerce(value) -> Expression | None:
    # None (so operators return NotImplemented) for non-numbers; a number
    # that is not an exact scalar raises InputError in constant().
    if isinstance(value, Expression):
        return value
    if isinstance(value, Number):
        return Expression.constant(value)
    return None
