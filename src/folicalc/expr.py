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
bound, so no gcd runs against the product of all the denominators.  Every
sum and product ends in one canonical tail, _reduced, which drops zero
numerators and divides out the factor the bound leaves shared.

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
costs one int addition and one multiply-add.  Each output monomial is
decoded once, field by field, through a list per variable of its (name,
exponent) pairs up to the field's top, so the output's monomials share
their pairs; where those lists would hold more pairs than the sum has
terms, each pair is built as it is read.

One variable's exponents may ride in the numerators instead: Kronecker
substitution in that variable alone (Fateman, "Can you save time in
multiplying polynomials by encoding them as integers?", 2004).  The slot
variable is the one whose exponent sum across the two sides is largest, at
most _SLOT_MAX_EXPONENT.  Each factor becomes a map from the packed key of
its other variables to one int, a slice, sum(c * 2**(width * e)) over its
terms c * x**e * rest, so one C-level int multiply replaces every pair of
terms that two slices hold.  No slot of the sum can pass sum |scale| *
sum |left| * sum |right|, summed over the sum's pairs; a width one bit
wider holds every slot, negative ones too, as a digit offset by half a
slot.  Each output slice is decoded once, and the slot variable's (name, e)
pair goes where its name sorts.  Over the whole exponent box the layout
loses, since decoding visits every slot and sparse factors make the box huge
(see ROADMAP); along one variable of a factor dense in total degree, every
slot of every slice holds a term.  So a sum takes slices only where they
fill: from _SLOT_MIN_PAIRS pairs of terms, with a slot variable, and where
_slots_pay finds, from the slices' term counts and top exponents before any
slice is built, that they at least halve the pairs, span at most four slots
per term, and are at most _SLOT_MAX_BITS wide.  Otherwise the sum keeps one
slot per term: the slot variable's field stays in the key.  Slice time over
one-slot time on either side of each gate (same machine as below):

    gate                    taken                  refused
    slice / term pairs      0.23 - 0.36: 0.57-0.67 0.60 - 0.69: 0.83-1.02
                                                   0.82 - 1.00: 1.09-2.66
    slots spanned per term  2.0 - 3.7:   0.19-0.72 5.1 - 8.8:   0.67-2.52
    width in bits           41 - 411:    0.19-0.70 809 - 6,011: 0.97-1.31
    pairs of terms          256 - 600:   1.01      128 - 255:   1.21
                            601 and up:  0.56

The pairs and spans rows are single products of random factors; the spans
row refuses 5.1 at widths near 64 (1.19) while widths near 16 still gain
(0.67); the last row is ring's sums, three rounds of seed 1, with slices
tried against never tried.  The exponent cap bounds the slot list and the
size of each slice; slices still pay past it (a dense square of degree 120
in x times 4 terms in y reads 0.05, of degree 60 0.09), so the cap, not the
layout, leaves such sums on one slot per term.  Kernel time over
direct-loop time, slices included (2-vCPU VM, Python 3.11.7, two seeds):

    pairs       dense, 2 variables   sparse, 6 variables   workloads' sums
    < 64        1.5                  1.8 - 2.0             2.8 - 3.9
    64 - 127    0.87 - 0.93          1.5 - 1.6             1.0 - 1.2
    128 - 255   0.55 - 0.59          1.4                   0.64 - 0.66
    >= 256      0.16 - 0.21          1.1 - 1.2             0.16 - 0.20

The last column is every sum that one round of the ring and sweep workloads
makes.  Only collisions repay packing, and a one-term factor makes none, so
its pairs are not counted.  Below 128 every column loses; from 128 all but
sparse factors gain, so _PACKED_MIN_PAIRS = 128.

Within one sum the kernel multiplies each unordered pair of factor objects
once.  The pairs (a, b) and (b, a), and repeats of either, merge into one at
the sum w of their signs before any gcd, bound or multiply: where w is 0
the pair is dropped, its denominator never entering the sum's, and where
|w| > 1 it is multiplied into the left factor's numerators.  A merged pair
counts once toward the limits below, at its merged size, and a square of a
k-term factor counts k * k pairs of terms, so the limits refuse what they
refused before; a sum whose pairs all cancel does no work and is refused by
nothing.  So the Leibniz check's sums are half formed where a form meets
itself (see commands).  A pair of one object is a square: on packed keys
and slices, each unordered pair of its terms is formed once, the cross
terms doubled (Monagan and Pearce, "Sparse polynomial powering using heaps",
CASC 2012), so a large power's squarings do half their multiplies.  The
direct loop's squares have at most four terms in the workloads, where rows
cost what halving saves, so there a square runs as any other pair.

Powers square repeatedly through that kernel, except where every
nonconstant term of the base is a power of a variable no other term holds:
a linear form, (1 + z1)^n, z1^2 - 3*z2.  There the multinomial theorem
builds each term of P^n once, from its own composition of n into one part
per term, and distinct compositions give distinct monomials, so no pair of
terms is formed and nothing cancels (Fateman, "On the computation of powers
of sparse polynomials", Studies in Applied Mathematics 53, 1974).  The
result over den^n is canonical by Gauss's lemma: the content of P^n is the
content of P to the n, which shares no prime with den.  A base whose terms
all hold a monomial m, P = m * Q, is raised as m^n * Q^n, each monomial of
Q^n shifted by m^n: distinct monomials stay distinct and the numerators and
denominator are Q^n's, so the result is canonical as it is, and
(z1 - z2*z1)^n is separated.  Either way a power first predicts its size,
and one past _MAX_TERMS terms or _MAX_COEFF_BITS bits is an InputError
before anything is built (see _check_power), and a squaring of more than
_MAX_PAIRS pairs of terms is one before it is multiplied.  Sums and
products are bounded before their work too: _common_denominator refuses an
lcm past _MAX_COEFF_BITS bits, and _product_sum a sum whose numerators
could pass it (no numerator passes sum |scale| * sum |left| * sum |right|)
or that takes more than _MAX_PAIRS pairs of terms.  Its terms are counted
as they are made: either kernel refuses a sum once the monomials it has
reached pass _MAX_TERMS, checked after each left term and, where slots run,
after each slice is decoded; a bound from the factors' exponents alone
refuses sums whose pairs mostly collide, like the squarings of
(z1*z2 + z2*z3 + z1*z3)^64.  Monomials that cancel count until the end, so
the products of a power to the n never pass the bound _check_power
admitted: each monomial they reach is a product of at most n terms of the
base, and that bound grows with n.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import repeat
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

# Where packed sums may carry one variable's exponents in the numerators:
# from this many pairs of terms, for a variable whose exponent sum stays
# within the cap, in slots at most this many bits wide; see the module
# docstring for the measurements behind the values.
_SLOT_MIN_PAIRS = 256
_SLOT_MAX_EXPONENT = 64
_SLOT_MAX_BITS = 512

# The widest packed key, in bits, that _ordered sorts by.  Wider keys would
# make printing superlinear in the number of variables times the size of
# their exponents.
_ORDER_KEY_BITS = 256

# Fixed size limits: the bits of a coefficient's numerator or denominator
# (dsl._fold's literal powers, powers, products and sums) and the pairs of
# terms of a product or of a power's squaring, checked before the work is
# created, and the terms of a power (predicted) or of a product (counted as
# they are made).  The tests' and benchmark workloads' powers predict at
# most 12,341 terms and 80 bits; a power of 1 + z1 + z2 with 99,681 terms
# takes 0.56 s and 46 MB.  Their largest product sums take 246,016 pairs of
# terms (tests) and 52,920 (ring); the dense square of a 3,162-term
# univariate polynomial, 9,998,244 pairs of terms past the slot cap, takes
# 0.56 s (2-vCPU VM, Python 3.11).
_MAX_COEFF_BITS = 1 << 20
_MAX_TERMS = 100_000
_MAX_PAIRS = 10_000_000


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
    # numerator divides bound: the one tail of every sum and product.  Zero
    # numerators are dropped, and a bound wider than 64 bits is first cut to
    # its gcd with the numerators' sum, which every factor they share divides.
    if 0 in coeffs.values():
        coeffs = {m: c for m, c in coeffs.items() if c}
    if not coeffs:
        return Expression._build({})
    if bound.bit_length() > 64:
        bound = math.gcd(bound, sum(coeffs.values()))
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
    # Each variable's largest exponent: in sorted pairs, a name's last.
    top = dict(sorted(pairs))
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


def _product_sum(pairs: Sequence[tuple["Expression", "Expression", bool]]) -> "Expression":
    # The sum of a * b over (a, b, negate) pairs, each negated where its flag
    # is set, in one accumulator (see the module docstring).  Each unordered
    # pair of factor objects is multiplied once (see _merged), and a pair of
    # one object is a square, formed pair-once on packed keys only (_rows).
    # Each pair's factors are divided by Gauss's gcds (1 for a square, so its
    # two sides stay one map for _rows), and its products scaled to the lcm
    # of the reduced denominators as its left numerators are read.
    if len(pairs) > 1:
        pairs = _merged(pairs)
    reduced = []
    dens = []
    sizes = []
    count = term_pairs = 0
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
        sizes.append(sum(map(abs, left.values())) * sum(map(abs, right.values())))
        if len(left) > 1 and len(right) > 1:
            count += len(left) * len(right)
        term_pairs += len(left) * len(right)
    if not reduced:
        return Expression._build({})
    den, bound = _common_denominator(dens)
    # No numerator of the sum over den passes sum |scale| * sum |left| * sum |right|.
    largest = sum([den // d * size for d, size in zip(dens, sizes)])
    if (largest - 1).bit_length() > _MAX_COEFF_BITS:  # as _check_power counts
        raise InputError(f"product too large: a coefficient would pass {_MAX_COEFF_BITS} bits")
    if term_pairs > _MAX_PAIRS:
        raise InputError(f"product too large: it would take more than {_MAX_PAIRS} pairs of terms")
    if count >= _PACKED_MIN_PAIRS:
        return _reduced(_packed_sum(reduced, den, largest, term_pairs), den, bound)
    acc: dict[Monomial, int] = {}
    for left, right, d, negate in reduced:
        scale = -(den // d) if negate else den // d
        right = right.items()
        for mono_a, num_a in left.items():
            num_a *= scale
            for mono_b, num_b in right:
                mono = _merge_monomials(mono_a, mono_b)
                acc[mono] = acc.get(mono, 0) + num_a * num_b
            if len(acc) > _MAX_TERMS:
                raise _past_terms()
    return _reduced(acc, den, bound)


def _merged(pairs: Sequence[tuple["Expression", "Expression", bool]]) -> Sequence[tuple]:
    # The pairs with each unordered pair of factor objects once, at the sum
    # w of its signs: left out where w is 0, and with |w| multiplied into its
    # left factor where |w| > 1, so Gauss's lemma still reduces it.  Equal
    # pairs have equal sums of ids, so a sum whose id sums are distinct is
    # returned as it is.  The sequence holds every factor for the whole
    # call, so no id is reused by another object.
    if len({id(a) + id(b) for a, b, _ in pairs}) == len(pairs):
        return pairs
    weights: dict[tuple[int, int], list] = {}
    for a, b, negate in pairs:
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        entry = weights.get(key)
        if entry is None:
            weights[key] = [a, b, -1 if negate else 1]
        else:
            entry[2] += -1 if negate else 1
    merged = []
    for a, b, weight in weights.values():
        if abs(weight) > 1:
            scaled = {m: c * abs(weight) for m, c in a._coeffs.items()}
            a = _reduced(scaled, a._den, a._den)
        if weight:
            merged.append((a, b, weight < 0))
    return merged


def _rows(left: dict, right: dict) -> Iterator[tuple]:
    # (key, numerator, terms it multiplies) per left term: every right term,
    # or in a square (one map on both sides) itself and, doubled, each term
    # after it, so each unordered pair of terms is multiplied once.
    if left is not right:
        return zip(left, left.values(), repeat(right.items()))
    items = list(left.items())
    doubled = [(key, c + c) for key, c in items]
    return ((key, c, items[i:i + 1] + doubled[i + 1:]) for i, (key, c) in enumerate(items))


def _past_terms() -> InputError:
    # The refusal of a sum of products whose monomials pass _MAX_TERMS.
    return InputError(f"product too large: it would have more than {_MAX_TERMS} terms")


def _packed_sum(
    reduced: Sequence[tuple[dict, dict, int, bool]], den: int, largest: int, term_pairs: int
) -> dict[Monomial, int]:
    # The nonzero numerators over den of the sum that _product_sum reduced
    # to (left, right, denominator, negate) entries, on packed exponent keys.
    # Each variable owns a bit field wide enough for the largest exponent sum
    # any product can reach, so adding two keys adds exponents field by field
    # without carries, and the keys of distinct monomials stay distinct.  The
    # slot variable's field sits above the others; where slots pay, its
    # exponents move into the numerators, each factor a map from the key of
    # its other variables to one int sum(c * 2**(width * e)), so a pair of
    # those slices costs one int multiply (see the module docstring).
    pairs_a = {pair for left, _, _, _ in reduced for mono in left for pair in mono}
    pairs_b = {pair for _, right, _, _ in reduced for mono in right for pair in mono}
    # Each side's largest exponent per variable: in sorted pairs, a name's last.
    top_a, top_b = dict(sorted(pairs_a)), dict(sorted(pairs_b))
    tops = {name: top_a.get(name, 0) + top_b.get(name, 0) for name in top_a | top_b}
    top, slot = max([(t, name) for name, t in tops.items() if t <= _SLOT_MAX_EXPONENT],
                    default=(0, None)) if term_pairs >= _SLOT_MIN_PAIRS else (0, None)
    shifts: dict[str, int] = {}
    shift = 0
    for name in sorted(tops, key=lambda name: (name == slot, name)):
        shifts[name] = shift
        shift += tops[name].bit_length()
    packed = {pair: pair[1] << shifts[pair[0]] for pair in pairs_a | pairs_b}.__getitem__
    # Each factor's map is packed, and sliced, once however many pairs hold
    # it, so a square's two sides stay one object.
    order = [id(coeffs) for entry in reduced for coeffs in entry[:2]]
    maps = {id(coeffs): coeffs for entry in reduced for coeffs in entry[:2]}
    maps = {i: {sum(map(packed, mono)): c for mono, c in coeffs.items()}
            for i, coeffs in maps.items()}
    sides = [maps[i] for i in order]
    if slot is not None:
        # No slot of the sum passes largest in size, which is below half a
        # slot, so every slot decodes exactly: it is a digit in base
        # 2**width, offset by half a slot so none borrows.
        width = 1 + largest.bit_length()
        high = shifts[slot]
        low = (1 << high) - 1
        # Each slice's top slot by the key of its other variables: in key
        # order, a slice's last term holds its highest exponent.
        ends = [{key & low: key >> high for key in sorted(side)} for side in sides]
        if _slots_pay(
            sum([len(a) * len(b) for a, b in zip(ends[::2], ends[1::2])]),
            term_pairs,
            sum([len(end) + sum(end.values()) for end in ends]),
            sum(map(len, sides)),
            width,
        ):
            mask, half = (1 << width) - 1, 1 << (width - 1)
            slots = [(e * width, ((slot, e),) if e else ()) for e in range(top + 1)]
            offset = sum([half << shift for shift, _ in slots])
            for i, side in maps.items():
                slices: dict[int, int] = {}
                for key, c in side.items():
                    slices[key & low] = slices.get(key & low, 0) + (c << width * (key >> high))
                maps[i] = slices
            sides = [maps[i] for i in order]
        else:
            slot = None
    acc: dict[int, int] = {}
    get = acc.get
    for (_, _, d, negate), left, right in zip(reduced, sides[::2], sides[1::2]):
        scale = -(den // d) if negate else den // d
        for key_a, num_a, row in _rows(left, right):
            num_a *= scale
            for key_b, num_b in row:
                key = key_a + key_b
                acc[key] = get(key, 0) + num_a * num_b
            if len(acc) > _MAX_TERMS:
                raise _past_terms()
    # Keys decode through a dense list per field of its (name, exponent)
    # pairs up to the field's top, so the monomials share their pairs, unless
    # the lists would hold more pairs than the sum has terms (exponents that
    # rarely repeat), where they cost more than they save.
    fields = [(name, shifts[name], (1 << tops[name].bit_length()) - 1)
              for name in sorted(tops) if name != slot]
    if sum([tops[name] for name, _, _ in fields]) > len(acc):
        decoded = {
            tuple([(name, e) for name, shift, bits in fields if (e := key >> shift & bits)]): num
            for key, num in acc.items() if num
        }
    else:
        tables = [(shift, bits, [None] + [(name, e) for e in range(1, tops[name] + 1)])
                  for name, shift, bits in fields]
        decoded = {
            tuple([pair for shift, bits, table in tables
                   if (pair := table[key >> shift & bits])]): num
            for key, num in acc.items() if num
        }
    if slot is None:
        return decoded
    # Each slice decoded once; its slots' pairs go where the slot variable's
    # name sorts among the others.
    out: dict[Monomial, int] = {}
    last = slot == max(tops)
    for mono, num in decoded.items():
        split = len(mono) if last else sum([name < slot for name, _ in mono])
        head, tail = mono[:split], mono[split:]
        span = slots[:num.bit_length() // width + 1]
        num += offset
        for shift, pair in span:
            digit = num >> shift & mask
            if digit != half:
                out[head + pair + tail] = digit - half
        if len(out) > _MAX_TERMS:
            raise _past_terms()
    return out


def _slots_pay(slice_pairs: int, term_pairs: int, spans: int, terms: int, width: int) -> bool:
    # Whether a sum runs on slices: they must at least halve the pairs of
    # terms, span at most four slots per term they hold, and be at most
    # _SLOT_MAX_BITS wide (see the module docstring).
    return 2 * slice_pairs <= term_pairs and spans <= 4 * terms and width <= _SLOT_MAX_BITS


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


def _power_product(a: "Expression", b: "Expression") -> "Expression":
    # One product of Expression.__pow__'s squarings, refused as the power's
    # own where it would take more than _MAX_PAIRS pairs of terms.
    if len(a._coeffs) * len(b._coeffs) > _MAX_PAIRS:
        raise InputError(f"power too large: it would take more than {_MAX_PAIRS} pairs of terms")
    return a * b


def _shared_monomial(coeffs: Mapping[Monomial, int]) -> Monomial:
    # The monomial every term holds, each variable at its least exponent
    # over the terms; () where no variable is in every term.
    monos = iter(coeffs)
    shared = dict(next(monos))
    for mono in monos:
        if not shared:
            break
        held = dict(mono)
        shared = {name: min(e, held[name]) for name, e in shared.items() if name in held}
    return tuple(shared.items())


def _divided(mono: Monomial, shared: Monomial) -> Monomial:
    # mono / shared, for a shared monomial that divides mono.
    lower = dict(shared)
    return tuple([(name, e - lower.get(name, 0)) for name, e in mono if e != lower.get(name)])


def _shifted(value: "Expression", shift: Monomial) -> "Expression":
    # value * shift, for a monomial shift: distinct monomials stay distinct
    # and the numerators are unchanged, so the result is canonical as it is.
    if not shift:
        return value
    coeffs = {_merge_monomials(mono, shift): c for mono, c in value._coeffs.items()}
    return Expression._build(coeffs, value._den)


def _add_into(acc: dict, entries: Mapping, negate=False) -> dict:
    # acc += entries (or -= with negate), keeping acc free of zero values;
    # returns acc.  Values are int numerators here, Expressions in the
    # coefficient tables.
    for key, value in entries.items():
        old = acc.get(key)
        if old is None:
            acc[key] = -value if negate else value
        else:
            total = old - value if negate else old + value
            if total:
                acc[key] = total
            else:
                del acc[key]
    return acc


def _common_denominator(dens: Iterable[int]) -> tuple[int, int]:
    # The lcm of the denominators, and Henrici's bound on the factor a sum
    # over it can leave shared with every numerator.  InputError as soon as
    # the lcm passes _MAX_COEFF_BITS bits, before any numerator is scaled.
    den = bound = 1
    for d in dens:
        if d != 1:
            g = math.gcd(den, d)
            if g != 1:
                bound = math.lcm(bound, g)
            den = den // g * d
            if (den - 1).bit_length() > _MAX_COEFF_BITS:  # as _check_power counts
                raise InputError(f"denominator too large: it would pass {_MAX_COEFF_BITS} bits")
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
        return frozenset({v for mono in self._coeffs for v, _ in mono})

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
        base, shift = self, ()
        if exponent > 1 and len(self._coeffs) > 1:
            # P = m * Q for the monomial m every term holds, and P^n = m^n * Q^n.
            shared = _shared_monomial(self._coeffs)
            if shared:
                base = Expression._build(
                    {_divided(mono, shared): c for mono, c in self._coeffs.items()}, self._den
                )
                shift = tuple([(name, e * exponent) for name, e in shared])
            numerators = _separated_power(base._coeffs, exponent)
            if numerators is not None:
                return _shifted(Expression._build(numerators, self._den**exponent), shift)
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else _power_product(result, base)
            exponent >>= 1
            if exponent:
                base = _power_product(base, base)
        return Expression.one() if result is None else _shifted(result, shift)

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
