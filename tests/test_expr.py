"""Expression engine: frozen examples, ring laws, calculus rules, printing."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import folicalc as fc
from folicalc import Expression

import oracles
import randgen

z1 = Expression.variable("z1")
z2 = Expression.variable("z2")
z3 = Expression.variable("z3")
u = Expression.variable("u")


def mono(**exponents) -> tuple:
    return tuple(sorted(exponents.items()))


# -- frozen example values ----------------------------------------------------


def test_add_identity():
    assert z1 + Expression.zero() == z1


def test_add_cancellation():
    assert (z1 + (-1) * z1).is_zero()


def test_add_merges_commuted_monomials():
    # z1*z2 and z2*z1 are the same monomial; merging doubles the coefficient.
    expected = Expression({mono(z1=1, z2=1): 2})
    assert z1 * z2 + z2 * z1 == expected


def test_mul_identity():
    assert z1 * Expression.one() == z1


def test_mul_hand_expansion():
    expected = Expression({mono(z1=2): 1, mono(z2=2): -1})
    assert (z1 + z2) * (z1 - z2) == expected


def test_mul_annihilator():
    assert ((z1 + z2 * z3 - 7) * Expression.zero()).is_zero()


def test_partial_power_rule():
    expected = Expression({mono(z1=1, z3=1): 2})
    assert (z1**2 * z3).partial("z1") == expected


def test_partial_absent_variable():
    assert z3.partial("z1").is_zero()


def test_partial_constant():
    assert Expression.constant(Fraction(7, 2)).partial("z1").is_zero()


def test_substitute_hand_computed():
    expected = Expression({mono(z1=2, z3=2): 1})
    assert (u**2).substitute({"u": z1 * z3}) == expected


def test_substitute_empty_bindings():
    e = z1 * z2 + z3**2
    assert e.substitute({}) == e


def test_substitute_evaluation():
    assert (z1 * z2 + z3).substitute({"z1": 0}) == z3


def test_is_zero():
    assert Expression.zero().is_zero()
    assert (z1 - z1).is_zero()
    assert not (z1 * z2).is_zero()


# -- ring and calculus laws ----------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
monomials = st.builds(
    lambda d: tuple(sorted(d.items())),
    st.dictionaries(st.sampled_from(("u", "z1", "z2", "z3")), st.integers(1, 3), max_size=3),
)
expressions = st.builds(Expression, st.dictionaries(monomials, coefficients, max_size=4))
variable_names = st.sampled_from(("u", "z1", "z2", "z3"))


@given(expressions, expressions, expressions)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(expressions, variable_names, variable_names)
def test_mixed_partials_commute(a, v, w):
    assert a.partial(v).partial(w) == a.partial(w).partial(v)


@given(expressions, expressions, variable_names)
def test_product_rule(a, b, v):
    assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


@given(expressions, expressions, expressions)
def test_substitution_is_a_ring_map(a, b, s):
    bindings = {"z1": s, "z2": z3 * z3 - 1}
    assert (a + b).substitute(bindings) == a.substitute(bindings) + b.substitute(bindings)
    assert (a * b).substitute(bindings) == a.substitute(bindings) * b.substitute(bindings)


def test_evaluation_agrees_with_ring_ops():
    # Independent oracle: exact evaluation at random rational points.
    rng = random.Random(97)
    names = ("u", "z1", "z2", "z3")
    for _ in range(200):
        a = randgen.expression(rng, names)
        b = randgen.expression(rng, names)
        at = randgen.point(rng, names)
        assert (a + b).evaluate(at) == a.evaluate(at) + b.evaluate(at)
        assert (a * b).evaluate(at) == a.evaluate(at) * b.evaluate(at)
        assert (-a).evaluate(at) == -a.evaluate(at)


# -- canonical printing and parsing ----------------------------------------------


def test_printing_fixed_order():
    e = z2 + z1**2 + Expression.constant(Fraction(7, 2)) + z1 * z2
    assert str(e) == "z1^2 + z1*z2 + z2 + 7/2"


def test_printing_negative_lead_protects_powers():
    assert str(-(z1**2)) == "-1*z1^2"
    assert str(-(z1 * z2)) == "-z1*z2"
    assert str(Expression.constant(-5)) == "-5"
    assert str(z2 - z1**2) == "-1*z1^2 + z2"


def test_printing_zero():
    assert str(Expression.zero()) == "0"


def test_parse_examples():
    assert fc.parse_expression("z1 + 0") == z1
    assert fc.parse_expression("3/2*z1 - z2^2") == Fraction(3, 2) * z1 - z2**2
    assert fc.parse_expression("(z1+z2)*(z1-z2)") == z1**2 - z2**2
    assert fc.parse_expression("-4") == Expression.constant(-4)


def test_unary_minus_binds_inside_power():
    # Grammar: '-' is part of base, so the exponent applies to the negated base.
    assert fc.parse_expression("-z1^2") == z1**2
    assert fc.parse_expression("-1*z1^2") == -(z1**2)


def test_parse_rejects_zero_denominator():
    with pytest.raises(fc.ParseError):
        fc.parse_expression("3/0")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(fc.ParseError):
        fc.parse_expression("z1 z2")


def test_parse_error_positions():
    with pytest.raises(fc.ParseError) as info:
        fc.parse_expression("z1 + + z2")
    assert info.value.line == 1
    assert info.value.column == 6


@given(expressions)
def test_print_parse_round_trip(e):
    assert fc.parse_expression(str(e)) == e


def test_round_trip_seeded():
    rng = random.Random(11)
    for _ in range(300):
        e = randgen.expression(rng, ("u", "z1", "z2", "z3"), max_degree=4, max_terms=5)
        assert fc.parse_expression(str(e)) == e


def test_pow_rejects_negative():
    with pytest.raises(fc.InputError):
        z1 ** (-1)


def test_variable_name_validation():
    with pytest.raises(fc.InputError):
        Expression.variable("not a name")


# -- unordered storage, canonical order on read ----------------------------------


term_lists = st.lists(st.tuples(monomials, coefficients), max_size=6)


@given(term_lists, st.randoms(use_true_random=False))
def test_insertion_order_is_invisible(items, rng):
    # The same terms added in any order, or assembled by different operation
    # sequences, give one canonical object: equal, same hash, same terms, same text.
    parts = [Expression({mono: coeff}) for mono, coeff in items]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    folded = Expression.zero()
    for part in shuffled:
        folded = folded + part
    summed = Expression.sum(parts)
    subtracted = Expression.sum(shuffled + [z1, z2], [z2, z1])
    for left, right in (
        (folded, summed),
        (subtracted, summed),
        ((z1 + 1) * summed, summed * z1 + summed),
    ):
        assert left == right
        assert hash(left) == hash(right)
        assert left.terms == right.terms
        assert str(left) == str(right)
    assert list(summed) == list(summed.terms)


def test_terms_are_canonically_ordered():
    e = Expression.sum([z2, Expression.constant(3), z1 * z2, z1**2])
    assert [m for m, _ in e.terms] == [
        mono(z1=2),
        mono(z1=1, z2=1),
        mono(z2=1),
        (),
    ]
    assert e.terms is e.terms


def test_large_print_parse_fixpoint():
    square = fc.parse_expression("((1+z1+2*z2-1/3*z3+z4)^6)^2")
    assert len(square.terms) == 1820
    text = str(square)
    reparsed = fc.parse_expression(text)
    assert reparsed == square
    assert str(reparsed) == text


# -- exactness boundary -----------------------------------------------------------


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False, "1/2"])
def test_only_exact_scalars_are_accepted(bad):
    with pytest.raises(fc.InputError):
        Expression.constant(bad)
    with pytest.raises(fc.InputError):
        Expression({(): bad})
    with pytest.raises(fc.InputError):
        Expression({(("z1", 1),): bad})


@pytest.mark.parametrize("exponent", [2.7, 2.0, True, 0, -1])
def test_monomial_exponents_must_be_positive_ints(exponent):
    with pytest.raises(fc.InputError):
        Expression({(("z1", exponent),): 1})


@pytest.mark.parametrize("bad", [0.5, True])
def test_ring_ops_reject_inexact_scalars(bad):
    for op in (
        lambda: z1 + bad,
        lambda: bad + z1,
        lambda: z1 - bad,
        lambda: bad - z1,
        lambda: z1 * bad,
        lambda: bad * z1,
        lambda: z1.substitute({"z1": bad}),
        lambda: z1.evaluate({"z1": bad}),
    ):
        with pytest.raises(fc.InputError):
            op()


# -- products: the packed kernel against a schoolbook oracle -----------------------

# Names whose string order differs from their numeric order ("z10" sorts
# before "z2", "Z3" before every lower-case name), so a field order taken
# from anything but the name would show.
kernel_names = ("z2", "z10", "Z3", "a_b", "z1")
kernel_exponents = st.one_of(st.integers(1, 4), st.integers(2**60, 2**70))
kernel_monomials = st.builds(
    lambda d: tuple(sorted(d.items())),
    st.dictionaries(st.sampled_from(kernel_names), kernel_exponents, max_size=4),
)
kernel_coefficients = st.builds(
    Fraction,
    st.integers(-3, 3) | st.integers(-(10**12), 10**12),
    st.integers(1, 60) | st.integers(-60, -1) | st.integers(10**15, 10**16),
)
# 0 to 40 terms, so products run from the zero and constant cases through
# both sides of the kernel's size threshold.
kernel_factors = st.one_of(
    st.builds(Expression, st.dictionaries(kernel_monomials, kernel_coefficients, max_size=40)),
    st.builds(Expression.constant, kernel_coefficients),
    st.just(Expression.zero()),
)


def _assert_canonical(e):
    for mono, coeff in e.terms:
        assert type(coeff) is Fraction and coeff != 0
        names = [name for name, _ in mono]
        assert names == sorted(set(names))
        assert all(type(exp) is int and exp > 0 for _, exp in mono)


def _point(rng, *factors):
    # Random rationals where powers stay small; -1, 0 and 1 otherwise, since a
    # rational to the power 2**70 cannot be computed.
    huge = any(exp > 64 for f in factors for mono, _ in f.terms for _, exp in mono)
    pick = (lambda: rng.choice((-1, 0, 1))) if huge else (
        lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    )
    return {name: pick() for name in kernel_names}


@settings(deadline=None, max_examples=150)
@given(kernel_factors, kernel_factors, st.randoms(use_true_random=False))
def test_product_matches_schoolbook_oracle(a, b, rng):
    product = a * b
    assert dict(product.terms) == oracles.schoolbook_product(a, b)
    assert b * a == product
    _assert_canonical(product)
    # The cross terms of (a + b)(a - b) cancel inside one product.
    squares = (a + b) * (a - b)
    assert dict(squares.terms) == oracles.schoolbook_product(a + b, a - b)
    _assert_canonical(squares)
    for _ in range(2):
        at = _point(rng, a, b)
        assert product.evaluate(at) == a.evaluate(at) * b.evaluate(at)


@settings(deadline=None)
@given(
    st.sampled_from(kernel_names),
    st.sampled_from((1, 3, 2**70)),
    st.integers(2, 40),
    kernel_coefficients.filter(bool),
)
def test_telescoping_product_cancels(name, step, k, scale):
    # scale*(1 + x + ... + x^(k-1)) * (x - 1) = scale*(x^k - 1) with x = v^step:
    # every inner term cancels against a neighbour.
    x = Expression.variable(name) ** step
    geometric = Expression.sum(x**i for i in range(k)) * scale
    product = geometric * (x - 1)
    assert product == (x**k - 1) * scale
    assert len(product.terms) == 2
    _assert_canonical(product)


def test_multinomial_coefficients_at_size():
    # (1+z1+z2+z3)^40 by repeated squaring; the coefficient of
    # z1^a z2^b z3^c is 40!/(a! b! c! d!) with d = 40 - a - b - c.
    power = fc.parse_expression("1+z1+z2+z3") ** 40
    assert len(power.terms) == math.comb(43, 3) == 12341
    for mono, coeff in power.terms:
        exponents = dict(mono)
        counts = [exponents.get(v, 0) for v in ("z1", "z2", "z3")]
        counts.append(40 - sum(counts))
        expected = math.factorial(40)
        for count in counts:
            expected //= math.factorial(count)
        assert coeff == expected
    _assert_canonical(power)


def test_product_matches_sympy_expand():
    sympy = pytest.importorskip("sympy")
    symbols = {name: sympy.Symbol(name) for name in kernel_names}

    def to_sympy(e):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(symbols[v] ** exp for v, exp in mono))
            for mono, c in e.terms
        ))

    rng = random.Random(5)
    for size_a, size_b in ((1, 40), (3, 5), (4, 4), (5, 8), (12, 20), (40, 40)):
        a = randgen.expression(rng, kernel_names, max_degree=6, max_terms=size_a)
        b = randgen.expression(rng, kernel_names, max_degree=6, max_terms=size_b)
        assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(a * b)) == 0
