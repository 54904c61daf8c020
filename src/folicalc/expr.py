"""Exact sparse polynomial arithmetic over the rationals in named variables.

An Expression is a map from monomials to nonzero int numerators over one int
denominator, the layout of FLINT's fmpq_poly (Hart, "FLINT: Fast Library for
Number Theory", ICMS 2010).  A monomial is a tuple of (variable, exponent)
pairs sorted by name, exponents positive; () is the constant monomial.  The
layout is canonical: the denominator is positive and shares no prime with all
the numerators, and zero is the empty map over 1.  So ring equality is
equality of the stored maps and denominators, and every identity check in
this package is an exact, decidable test.

Ring operations work on ints.  Sums bring numerators to the lcm of the
denominators, products multiply them over the product of denominators, and
the factor left shared with every numerator is found by a bounded gcd.  For
sums the bound is Henrici's ("A subroutine for computations with rational
numbers", JACM 1956): a prime stays shared only if it divides two parts'
denominators, so the gcd is taken against the lcm of gcd(lcm so far, next
denominator), and integer polynomials and coprime denominators take none.
For products it is Gauss's lemma: for canonical factors a and b the shared
factor is exactly gcd(den a, numerators of b) * gcd(den b, numerators of a).
A sum of products takes both: each pair is reduced by the lemma, and the
pairs are summed over the lcm of the reduced denominators under Henrici's
bound, so no gcd runs against the product of all the denominators.

Fractions are built only where coefficients are read: `terms`, iteration and
`evaluate`.  `terms` computes the canonical order, descending graded lex
(total degree, then lexicographic by name), on each read; nothing is cached.
Printing follows the same order, so it is canonical, and the printed text
parses back by folicalc.dsl.parse_expression to an equal Expression:

    Expression.variable("z1") ** 2 - Expression.variable("z2") ** 2
    # prints as "z1^2 - z2^2"

The order comes from one packed int per monomial: a bit field per variable
as wide as its largest exponent, the first name in the highest, under a
field for the total degree, so the sort compares ints in C.  A key wider
than _ORDER_KEY_BITS would grow with the number of variables times the size
of their exponents (a 2,000-term sum over 2,000 variables with exponents
near 2**64 printed in 58 ms, against 3.0 ms by tuple keys), so such sums
sort by a tuple key instead.

Constructors accept only int (not bool) and Fraction scalars and raise
InputError for anything else, floats included.

Products and sums of products are one kernel, _product_sum, over (a, b,
negate) pairs; a product is its one-pair case.  A sum with at least
_PACKED_MIN_PAIRS pairs of terms, counting pairs whose factors both have two
or more terms, runs after Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors" (CASC 2007).  Each
monomial becomes one int with a bit field per variable, laid out once per
sum and wide enough that adding two keys never carries, so a pair of terms
costs one int addition and one multiply-add, and each output monomial is
decoded once, from (name, exponent) pairs the output shares.  Only
collisions repay packing; a one-term factor makes none, and costs 2.1 to 8.4
times the direct loop there, so it is not counted.  Kernel time over
direct-loop time (2-vCPU VM, Python 3.11.7, two runs):

    pairs       dense, 2 variables   sparse, 6 variables   workloads' sums
    < 64        0.86 - 2.6           1.7 - 3.0             1.6 - 2.5
    64 - 127    0.40 - 1.06          1.6                   0.99 - 1.14
    128 - 255   0.34 - 0.53          1.4 - 1.6             0.59 - 0.60
    >= 256      0.16 - 0.40          0.88 - 1.3            0.23 - 0.44

The last column is every sum that one round of the ring and sweep workloads
makes.  Below 128 only dense factors gain and the workloads' sums lose up to
14%; from 128 all but sparse factors gain, so _PACKED_MIN_PAIRS = 128.
Either value moves a ring round by about 1 ms.

Powers square repeatedly through that kernel, except where every
nonconstant term of the base is a power of a variable no other term holds:
a linear form, (1 + z1)^n, z1^2 - 3*z2.  There the multinomial theorem
builds each term of P^n once, from its own composition of n into one part
per term, and distinct compositions give distinct monomials, so no pair of
terms is formed and nothing cancels (Fateman, "On the computation of powers
of sparse polynomials", Studies in Applied Mathematics 53, 1974).  The
result over den^n is canonical by Gauss's lemma: the content of P^n is the
content of P to the n, which shares no prime with den.  Either way a power
first predicts its size, and one past _MAX_TERMS terms or _MAX_COEFF_BITS
bits is an InputError before anything is built (see _check_power).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from numbers import Number

from .errors import InputError

# Monomial: ((variable, exponent), ...) sorted by variable, every exponent >= 1.
# The empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

Scalar = int | Fraction

# Sums of products with at least this many pairs of terms, counting only
# pairs whose factors both have two or more terms, run on packed keys; see
# the module docstring for the measurement behind the value.
_PACKED_MIN_PAIRS = 128

# The widest packed key, in bits, that _ordered sorts by.  Wider keys would
# make printing superlinear in the number of variables times the size of
# their exponents.
_ORDER_KEY_BITS = 256

# Fixed size limits, checked before the work is created: the bits of a
# coefficient's numerator or denominator (dsl._fold's literal powers and
# Expression.__pow__) and the terms of a power.  The tests' and benchmark
# workloads' powers predict at most 12,341 terms and 80 bits; a power of
# 1 + z1 + z2 with 99,681 terms takes 0.56 s and 46 MB (2-vCPU VM, Python 3.11).
_MAX_COEFF_BITS = 1 << 20
_MAX_TERMS = 100_000


def is_identifier(name: str) -> bool:
    """True if name is a legal variable name in the expression grammar,
    [A-Za-z_][A-Za-z0-9_]*."""
    return isinstance(name, str) and name.isascii() and name.isidentifier()


def _check_names(names: Iterable) -> None:
    for name in names:
        if not is_identifier(name):
            raise InputError(f"invalid variable name {name!r}")


def _needs(operation: str, value, kind) -> str:
    # The one wording of a wrong operand, for a type or a union of types;
    # the Expression methods raise it as an InputError, charts._require as a
    # ChartMismatchError.
    names = " or ".join([k.__name__ for k in getattr(kind, "__args__", (kind,))])
    article = "an" if names[0] in "AEIOUaeiou" else "a"
    return f"{operation} needs {article} {names}, not {type(value).__name__}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(value) -> tuple[int, int]:
    # The exactness boundary: a float would silently become its binary value.
    # Returns the reduced numerator and positive denominator.
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if _is_int(value):
        return value, 1
    raise InputError(
        f"coefficient must be an int or Fraction, not {type(value).__name__}"
    )


def _reduced(coeffs: dict, den: int, bound: int) -> "Expression":
    # coeffs / den in canonical form, when the factor den shares with every
    # numerator divides bound.
    if not coeffs:
        return Expression._build({})
    if bound != 1:
        g = math.gcd(bound, *coeffs.values())
        if g != 1:
            return Expression._build({m: c // g for m, c in coeffs.items()}, den // g)
    return Expression._build(coeffs, den)


def _ordered(coeffs: Mapping[Monomial, int]) -> list:
    # (key, monomial, numerator) triples in canonical order, descending
    # graded lex.  Each variable owns a bit field as wide as its largest
    # exponent, the first name in sort order the highest, and the total
    # degree a field above them all, so a monomial's packed key orders like
    # its (degree, exponent vector) and the sort compares distinct ints in C.
    # Past _ORDER_KEY_BITS the tuple key sorts instead, in bounded time.
    if len(coeffs) < 2:
        return [(0, mono, num) for mono, num in coeffs.items()]
    pairs = {pair for mono in coeffs for pair in mono}
    top: dict[str, int] = {}
    for name, exponent in pairs:
        if exponent > top.get(name, 0):
            top[name] = exponent
    shifts = {}
    shift = 0
    for name in sorted(top, reverse=True):
        shifts[name] = shift
        shift += top[name].bit_length()
    if shift + sum(top.values()).bit_length() > _ORDER_KEY_BITS:
        return sorted([
            ((-sum([e for _, e in mono]), tuple([(v, -e) for v, e in mono])), mono, num)
            for mono, num in coeffs.items()
        ])
    # Each pair's share of the key: its exponent in its own field and in
    # the degree field.
    degree = 1 << shift
    share = {pair: ((1 << shifts[pair[0]]) + degree) * pair[1] for pair in pairs}.__getitem__
    return sorted(
        [(sum(map(share, mono)), mono, num) for mono, num in coeffs.items()], reverse=True
    )


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


def _product_sum(pairs: Iterable[tuple["Expression", "Expression", bool]]) -> "Expression":
    # The sum of a * b over (a, b, negate) pairs, each negated where its flag
    # is set, in one accumulator (see the module docstring).  Each pair's
    # factors are divided by Gauss's gcds, and its products scaled to the
    # lcm of the reduced denominators as its left numerators are read.
    reduced = []
    dens = []
    count = 0
    for a, b, negate in pairs:
        left, right = a._coeffs, b._coeffs
        if not left or not right:
            continue
        den_a, den_b = a._den, b._den
        if den_b != 1 and (g := math.gcd(den_b, *left.values())) != 1:
            left = {m: c // g for m, c in left.items()}
            den_b //= g
        if den_a != 1 and (g := math.gcd(den_a, *right.values())) != 1:
            right = {m: c // g for m, c in right.items()}
            den_a //= g
        dens.append(den_a * den_b)
        reduced.append((left, right, dens[-1], negate))
        if len(left) > 1 and len(right) > 1:
            count += len(left) * len(right)
    if not reduced:
        return Expression._build({})
    den, bound = _common_denominator(dens)
    if count >= _PACKED_MIN_PAIRS:
        return _reduced(_packed_sum(reduced, den), den, bound)
    acc: dict[Monomial, int] = {}
    for left, right, d, negate in reduced:
        scale = -(den // d) if negate else den // d
        for mono_a, num_a in left.items():
            num_a *= scale
            for mono_b, num_b in right.items():
                mono = _merge_monomials(mono_a, mono_b)
                acc[mono] = acc.get(mono, 0) + num_a * num_b
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    return _reduced(acc, den, bound)


def _packed_sum(reduced: Sequence[tuple[dict, dict, int, bool]], den: int) -> dict[Monomial, int]:
    # The nonzero numerators over den of the sum that _product_sum reduced
    # to (left, right, denominator, negate) entries, on packed exponent keys.
    # Each variable owns a bit field wide enough for the largest exponent sum
    # any product can reach, so adding two keys adds exponents field by field
    # without carries, and the keys of distinct monomials stay distinct.
    pairs_a = {pair for left, _, _, _ in reduced for mono in left for pair in mono}
    pairs_b = {pair for _, right, _, _ in reduced for mono in right for pair in mono}
    exponents: dict[str, tuple[list[int], list[int]]] = {}
    for side, pairs in enumerate((pairs_a, pairs_b)):
        for name, exponent in pairs:
            seen = exponents.get(name)
            if seen is None:
                seen = exponents[name] = ([0], [0])
            seen[side].append(exponent)
    shifts: dict[str, int] = {}
    fields = []
    shift = 0
    for name in sorted(exponents):
        xs, ys = exponents[name]
        width = (max(xs) + max(ys)).bit_length()
        shifts[name] = shift
        fields.append((name, shift, (1 << width) - 1))
        shift += width
    packed = {pair: pair[1] << shifts[pair[0]] for pair in pairs_a | pairs_b}.__getitem__
    acc: dict[int, int] = {}
    get = acc.get
    for left, right, d, negate in reduced:
        scale = -(den // d) if negate else den // d
        right = [(sum(map(packed, mono)), c) for mono, c in right.items()]
        for mono_a, num_a in left.items():
            key_a = sum(map(packed, mono_a))
            num_a *= scale
            for key_b, num_b in right:
                key = key_a + key_b
                acc[key] = get(key, 0) + num_a * num_b
    # Keys decode through a table per field of the (name, exponent) pairs
    # that the factors' exponent sums make, so the monomials share their
    # pairs, unless the tables would hold more pairs than the sum has terms
    # (exponents that rarely repeat), where they cost more than they save.
    if sum([len(xs) * len(ys) for xs, ys in exponents.values()]) > len(acc):
        return {
            tuple([(name, e) for name, shift, mask in fields if (e := key >> shift & mask)]): num
            for key, num in acc.items()
            if num
        }
    tables = []
    for name, shift, mask in fields:
        xs, ys = exponents[name]
        table = {x + y: (name, x + y) for x in xs for y in ys}
        table[0] = None
        tables.append((shift, mask, table))
    return {
        tuple([pair for shift, mask, table in tables if (pair := table[key >> shift & mask])]): num
        for key, num in acc.items()
        if num
    }


def _separated_power(coeffs: Mapping[Monomial, int], n: int) -> dict[Monomial, int] | None:
    # The numerators of (sum of coeffs)**n by the multinomial theorem, or
    # None unless every nonconstant term is a power of a variable that no
    # other term holds (see the module docstring).  Each state is a
    # monomial prefix, its numerator and the exponent left to share out; the
    # constant, or else the last term, takes what is left.
    constant = coeffs.get(())
    terms = sorted([(mono[0], c) for mono, c in coeffs.items() if len(mono) == 1])
    if len({pair[0] for pair, _ in terms}) + (constant is not None) != len(coeffs):
        return None
    last = None if constant else terms.pop()
    states = [((), 1, n)]
    for (name, e), c in terms:
        grown = []
        for prefix, num, rem in states:
            grown.append((prefix, num, rem))
            for k in range(1, rem + 1):
                num = num * c * (rem - k + 1) // k
                grown.append((prefix + ((name, k * e),), num, rem - k))
        states = grown
    if last is None:
        return {prefix: num * constant**rem for prefix, num, rem in states}
    (name, e), c = last
    return {
        prefix + ((name, rem * e),) if rem else prefix: num * c**rem
        for prefix, num, rem in states
    }


def _comb_past(n: int, k: int, limit: int) -> int:
    # comb(n, k) if that is at most limit, else a value past limit.  Each
    # step at least doubles the partial product, so it takes O(log limit).
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > limit:
            break
    return c


def _check_power(coeffs: Mapping[Monomial, int], den: int, n: int) -> None:
    # InputError, before anything is built, where the n-th power of coeffs
    # over den could pass _MAX_TERMS terms or _MAX_COEFF_BITS bits.  A power
    # of k terms has at most comb(n+k-1, k-1) terms, and one in v variables
    # of total degree D at most comb(n*D+v, v); its numerators are at most
    # (k*c)**n for the largest numerator c, and its denominator is den**n.
    # A one-term power with coefficient 1 predicts one term and no bits, so
    # the exponent itself is not capped.
    k = len(coeffs)
    limit = _MAX_TERMS
    if _comb_past(n + k - 1, k - 1, limit) > limit:
        v = len({name for mono in coeffs for name, _ in mono})
        degree = max([sum([e for _, e in mono]) for mono in coeffs])
        if _comb_past(n * degree + v, v, limit) > limit:
            raise InputError(f"power too large: it would have more than {limit} terms")
    c = max(map(abs, coeffs.values()))
    bits = max((c - 1).bit_length() + (k - 1).bit_length(), (den - 1).bit_length())
    if n * bits > _MAX_COEFF_BITS:
        raise InputError(f"power too large: a coefficient would pass {_MAX_COEFF_BITS} bits")


def _add_into(acc: dict, entries: Mapping, negate=False) -> dict:
    # acc += entries (or -= with negate), keeping acc free of zero values;
    # returns acc.  Values are int numerators here, Expressions in the
    # coefficient tables.
    for key, value in entries.items():
        if negate:
            value = -value
        old = acc.get(key)
        if old is None:
            acc[key] = value
        else:
            total = old + value
            if total:
                acc[key] = total
            else:
                del acc[key]
    return acc


def _common_denominator(dens: Iterable[int]) -> tuple[int, int]:
    # The lcm of the denominators, and Henrici's bound on the factor a sum
    # over it can leave shared with every numerator.
    den = bound = 1
    for d in dens:
        if d != 1:
            g = math.gcd(den, d)
            if g != 1:
                bound = math.lcm(bound, g)
            den = den // g * d
    return den, bound


def _entry_sum(entries: Sequence[tuple[Monomial, int, int]]) -> "Expression":
    # The sum of (monomial, numerator, denominator) entries, each numerator
    # coprime to its positive denominator (so a zero is over 1), in one pass
    # over the lcm of the denominators, where Henrici's bound holds even
    # when monomials repeat.
    den, bound = _common_denominator([d for _, _, d in entries])
    acc: dict[Monomial, int] = {}
    for key, num, d in entries:
        acc[key] = acc.get(key, 0) + num * (den // d)
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    if bound.bit_length() > 64:  # a factor every numerator shares divides their sum
        bound = math.gcd(bound, sum(acc.values()))
    return _reduced(acc, den, bound)


def _linear(parts: Sequence[tuple["Expression", bool]]) -> "Expression":
    # The sum of the parts, each negated where its flag is set, over the lcm
    # of their denominators.  Henrici's bound on the factor left shared with
    # every numerator (see the module docstring) is folded with the lcm.
    den, bound = _common_denominator([part._den for part, _ in parts])
    acc: dict[Monomial, int] = {}
    for part, negate in parts:
        scale = den // part._den
        coeffs = part._coeffs if scale == 1 else {m: c * scale for m, c in part._coeffs.items()}
        if acc or negate:
            _add_into(acc, coeffs, negate)
        else:
            acc = dict(coeffs)
    if bound.bit_length() > 64:  # as in _entry_sum
        bound = math.gcd(bound, sum(acc.values()))
    return _reduced(acc, den, bound)


class Expression:
    """Immutable multivariate polynomial with exact rational coefficients."""

    # Int numerators over one denominator, the only state; nothing is cached.
    __slots__ = ("_coeffs", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        if terms is not None and not isinstance(terms, (dict, Mapping)):
            raise InputError(_needs("Expression", terms, Mapping))
        entries = []
        for mono, coeff in (terms or {}).items():
            num, den = _scalar(coeff)
            if not num:
                continue
            try:
                exponents = dict(mono)
                if len(exponents) != len(mono):
                    raise InputError("monomial repeats a variable")
            except (TypeError, ValueError):
                raise InputError(f"a monomial is (name, exponent) pairs, not {mono!r}") from None
            for name, exponent in exponents.items():
                if not is_identifier(name):
                    raise InputError(f"invalid variable name {name!r}")
                if not _is_int(exponent) or exponent <= 0:
                    raise InputError(f"monomial exponent for {name!r} must be a positive int")
            entries.append((tuple(sorted(exponents.items())), num, den))
        total = _entry_sum(entries)
        self._coeffs, self._den = total._coeffs, total._den

    @staticmethod
    def _build(coeffs: dict[Monomial, int], den: int = 1) -> "Expression":
        # The internal constructor: keys are canonical monomials, values are
        # nonzero ints, (coeffs, den) is canonical (see the module docstring),
        # and the dict is not shared with anyone else.
        expr = object.__new__(Expression)
        expr._coeffs = coeffs
        expr._den = den
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
        num, den = _scalar(value)
        return cls._build({(): num}, den) if num else cls._build({})

    @classmethod
    def variable(cls, name: str) -> "Expression":
        _check_names((name,))
        return cls._build({((name, 1),): 1})

    @staticmethod
    def sum(
        parts: Iterable["Expression | Scalar"],
        minus: Iterable["Expression | Scalar"] = (),
    ) -> "Expression":
        """sum(parts) - sum(minus), accumulated into one map.

        Linear in the total number of terms, where folding `a + b` over a
        long sequence copies the growing partial sum at every step.
        """
        signed = []
        for negate, group in ((False, parts), (True, minus)):
            try:
                group = iter(group)
            except TypeError:
                raise InputError(_needs("sum", group, Iterable)) from None
            for part in group:
                coerced = _coerce(part)
                if coerced is None:
                    raise InputError(
                        f"cannot add {type(part).__name__} to an expression"
                    )
                signed.append((coerced, negate))
        return _linear(signed)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs in canonical order.

        Terms are stored unordered as int numerators over one denominator;
        the Fractions and the descending graded lex order are computed on
        each read.
        """
        den = self._den
        return tuple([(m, Fraction(c, den)) for _, m, c in _ordered(self._coeffs)])

    def is_zero(self) -> bool:
        """True iff this is the empty sum, i.e. the zero polynomial."""
        return not self._coeffs

    def variables(self) -> frozenset[str]:
        return frozenset(v for mono in self._coeffs for v, _ in mono)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _linear(((self, False), (other, False)))

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return Expression._build({m: -c for m, c in self._coeffs.items()}, self._den)

    def __sub__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _linear(((self, False), (other, True)))

    def __rsub__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _linear(((other, False), (self, True)))

    def __mul__(self, other) -> "Expression":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _product_sum(((self, other, False),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Expression":
        if not _is_int(exponent) or exponent < 0:
            raise InputError("exponent must be a non-negative integer")
        if exponent > 1 and self._coeffs:
            _check_power(self._coeffs, self._den, exponent)
        if exponent > 1 and len(self._coeffs) > 1:
            numerators = _separated_power(self._coeffs, exponent)
            if numerators is not None:
                return Expression._build(numerators, self._den**exponent)
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
        _check_names((variable,))
        # Lowering one exponent maps distinct monomials to distinct monomials,
        # so no two terms collide and no numerator cancels; the exponents
        # may share a factor with the denominator, though.
        out: dict[Monomial, int] = {}
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
        return _reduced(out, self._den, self._den)

    def substitute(self, bindings: Mapping[str, "Expression | Scalar"]) -> "Expression":
        """Simultaneous substitution of expressions for variables.

        Each term keeps its unbound variables in its own monomial and is
        multiplied only by the powers of its bound ones; a variable a
        binding's value mentions is not substituted again."""
        if not isinstance(bindings, (dict, Mapping)):
            raise InputError(_needs("substitute", bindings, Mapping))
        _check_names(bindings)
        resolved: dict[str, Expression] = {}
        for name, value in bindings.items():
            coerced = _coerce(value)
            if coerced is None:
                raise InputError(f"binding for {name!r} is not an expression")
            resolved[name] = coerced
        parts = []
        for mono, coeff in self._coeffs.items():
            free = tuple([pair for pair in mono if pair[0] not in resolved])
            term = _reduced({free: coeff}, self._den, self._den)
            for name, exponent in mono:
                if name in resolved:
                    term = term * resolved[name] ** exponent
            parts.append(term)
        return Expression.sum(parts)

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point; every variable must be bound."""
        if not isinstance(values, (dict, Mapping)):
            raise InputError(_needs("evaluate", values, Mapping))
        _check_names(values)
        total = 0
        for mono, coeff in self._coeffs.items():
            term = coeff
            for name, exponent in mono:
                if name not in values:
                    raise InputError(f"no value bound for variable {name!r}")
                term *= Fraction(*_scalar(values[name])) ** exponent
            total += term
        return Fraction(total, self._den)

    # -- equality and printing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expression)
            and self._den == other._den
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._coeffs.items())))

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        # From the int numerators: each term's sign is its numerator's, and
        # its magnitude over _den is reduced by one gcd.  Each distinct
        # (name, exponent) pair is written once per call.
        if not self._coeffs:
            return "0"
        den = self._den
        texts: dict[tuple[str, int], str] = {}
        parts = []
        for _, mono, num in _ordered(self._coeffs):
            factors = []
            for pair in mono:
                text = texts.get(pair)
                if text is None:
                    name, exponent = pair
                    text = texts[pair] = name if exponent == 1 else f"{name}^{exponent}"
                factors.append(text)
            magnitude = -num if num < 0 else num
            if magnitude != den or not mono:
                g = math.gcd(magnitude, den)
                factors.insert(0, _coefficient_text(magnitude // g, den // g))
            body = "*".join(factors)
            if parts:
                parts.append((" - " if num < 0 else " + ") + body)
            elif num < 0:
                # A leading "-" must not attach to a powered factor:
                # "-z1^2" would read back as (-z1)^2 under the grammar.
                if magnitude == den and mono and mono[0][1] > 1:
                    body = "1*" + body
                parts.append("-" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Expression({str(self)!r})"


def _coefficient_text(num: int, den: int) -> str:
    # A term's reduced magnitude num/den as a literal.
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        # Past the interpreter's int/str digit limit.  The parser rejects
        # literals that long, so printing one would break the print->parse
        # fixpoint; the limit stays and the caller gets an input error.
        raise InputError(
            f"cannot print a coefficient of {_decimal_digits(max(num, den))} "
            f"digits (the limit is {sys.get_int_max_str_digits()})"
        ) from None


def _decimal_digits(n: int) -> int:
    # Digits of a positive int, without str().
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
