"""Expression engine: frozen examples, ring laws, calculus rules, printing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import folicalc as fc
from folicalc import Expression

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
