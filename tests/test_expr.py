"""Expression engine: frozen examples, ring laws, calculus rules, printing."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import folicalc as fc
from folicalc import Expression
from folicalc import expr as expr_module
from folicalc.expr import _PACKED_MIN_PAIRS

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
    assert fc.parse_expression("0^0") == Expression.one()
    assert fc.parse_expression("z1*z1^2") == z1**3


def test_unary_minus_binds_inside_power():
    # Grammar: '-' is part of base, so the exponent applies to the negated base.
    assert fc.parse_expression("-z1^2") == z1**2
    assert fc.parse_expression("-1*z1^2") == -(z1**2)
    assert fc.parse_expression("-2^3") == Expression.constant(-8)
    assert fc.parse_expression("--2^2") == Expression.constant(4)


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
    # bool is an int subclass, but no entry point takes it as a number.
    for exponent in (True, False):
        with pytest.raises(fc.InputError):
            z1 ** exponent


def test_variable_name_validation():
    with pytest.raises(fc.InputError):
        Expression.variable("not a name")


@pytest.mark.parametrize("bad", [3, None, "not a name", "1x"])
def test_calculus_and_substitution_reject_invalid_names(bad):
    # A name no expression can contain is an input error, not a no-op.
    for op in (
        lambda: z1.partial(bad),
        lambda: z1.substitute({bad: 1}),
        lambda: z1.evaluate({bad: 1, "z1": 2}),
    ):
        with pytest.raises(fc.InputError):
            op()


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


# Run with PYTHONHASHSEED=1: pickles an Expression and a TransitionMap that
# holds one, after hashing both and reading the terms.
_DUMP = """
import pickle, sys
import folicalc as fc
e = fc.parse_expression("z1^2 - 1/3*z2 + 5")
t = fc.TransitionMap(fc.AdaptedChart(["z1"], ["z2"]), [e, fc.Expression.variable("z2")])
hash(e), hash(t), e.terms
sys.stdout.buffer.write(pickle.dumps((e, t)))
"""

# Run with PYTHONHASHSEED=2: loads them and looks them up among fresh ones.
_LOAD = """
import pickle, sys
import folicalc as fc
e, t = pickle.loads(sys.stdin.buffer.read())
fresh = fc.parse_expression("z1^2 - 1/3*z2 + 5")
fresh_t = fc.TransitionMap(fc.AdaptedChart(["z1"], ["z2"]), [fresh, fc.Expression.variable("z2")])
assert e == fresh and hash(e) == hash(fresh), "expression"
assert e in {fresh} and {fresh: 1}[e] == 1, "expression lookup"
assert t == fresh_t and hash(t) == hash(fresh_t), "transition"
assert t in {fresh_t} and {fresh_t: 1}[t] == 1, "transition lookup"
print("ok")
"""


def test_hashes_survive_a_pickle_into_another_hash_seed():
    # An Expression stores only its numerators and denominator, so no hash
    # computed under one string-hash seed travels into a process with another.
    assert Expression.__slots__ == ("_coeffs", "_den")
    root = str(Path(fc.__file__).resolve().parent.parent)
    data = b""
    for seed, script in (("1", _DUMP), ("2", _LOAD)):
        env = dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED=seed)
        data = subprocess.run(
            [sys.executable, "-c", script], input=data, env=env, capture_output=True, check=True
        ).stdout
    assert data.decode().strip() == "ok"


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
    # The stored layout: int numerators over one positive denominator that
    # shares no factor with all of them, no zero numerator, zero over 1.
    assert type(e._den) is int and e._den > 0
    assert all(type(num) is int and num != 0 for num in e._coeffs.values())
    assert math.gcd(e._den, *e._coeffs.values()) == 1
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
    # (1+z1+z2+z3)^40 by the multinomial walk; the coefficient of
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


def test_product_with_exponents_near_2_70_finishes():
    # The kernel's decode tables hold only the exponent sums that occur, so
    # exponents near 2**70 cost no more than small ones.
    x, y = Expression.variable("z1"), Expression.variable("z10")
    a = Expression.sum((i + 1) * x ** (2**70 + i) * y ** (3 * i + 1) for i in range(9))
    b = Expression.sum((i + 2) * x ** (2**69 + 5 * i) + y ** (2**70 - i) for i in range(8))
    assert len(a.terms) * len(b.terms) >= _PACKED_MIN_PAIRS
    start = time.perf_counter()
    product = a * b
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert dict(product.terms) == oracles.schoolbook_product(a, b)
    _assert_canonical(product)


def test_products_of_unshared_exponents_cost_about_a_direct_loop():
    # Exponents that never repeat: decode tables would hold eight times as
    # many pairs as the product has terms, so the kernel builds none and
    # costs about what the direct loop does (~0.9 of it; ~2.8 with tables).
    rng = random.Random(3)

    def factor():
        return Expression({
            tuple((f"x{i}", rng.randint(1, 10**6)) for i in range(8)): rng.randint(1, 9)
            for _ in range(150)
        })

    a, b = factor(), factor()
    kernel, direct = [], []
    saved = expr_module._PACKED_MIN_PAIRS
    try:
        for _ in range(3):
            for times, threshold in ((kernel, saved), (direct, 10**9)):
                expr_module._PACKED_MIN_PAIRS = threshold
                start = time.perf_counter()
                a * b
                times.append(time.perf_counter() - start)
    finally:
        expr_module._PACKED_MIN_PAIRS = saved
    assert min(kernel) < 1.6 * min(direct), (min(kernel), min(direct))


# -- canonical order: the packed print key against an exponent-vector oracle -------

# Both sort paths: the packed key, and the tuple key that every sum wider
# than the limit takes (all of them at width 0).
order_widths = pytest.mark.parametrize("width", [expr_module._ORDER_KEY_BITS, 0])


@order_widths
@settings(deadline=None, max_examples=60)
@given(kernel_factors, kernel_factors)
def test_terms_follow_the_canonical_order_oracle(width, a, b):
    saved = expr_module._ORDER_KEY_BITS
    expr_module._ORDER_KEY_BITS = width
    try:
        # Fresh copies: a cached order would hide the path under test.
        for e in (-(-a), a * b, a - b):
            assert [m for m, _ in e.terms] == oracles.canonical_order(e)
            assert fc.parse_expression(str(e)) == e
    finally:
        expr_module._ORDER_KEY_BITS = saved


# Terms over three names with exponents 1 to 3, so that terms share their
# (name, exponent) pairs, and coefficients with denominators past 1.
printed_monomials = st.builds(
    lambda d: tuple(sorted(d.items())),
    st.dictionaries(st.sampled_from(("z1", "z2", "a_b")), st.integers(1, 3), max_size=3),
)
printed_coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@example([((("z1", 2),), Fraction(-1))])  # -1*z1^2
@example([((("z1", 2), ("z2", 1)), Fraction(-1)), ((("z2", 1),), Fraction(1, 2))])
@example([((), Fraction(-5, 3))])  # a lone constant
@example([])  # zero
@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(printed_monomials, printed_coefficients), max_size=12))
def test_printing_matches_the_printed_oracle(terms):
    e = Expression(dict(terms))
    for value in (e, e * e - 1):
        assert str(value) == oracles.printed(value)


def _wide_sums():
    # 2,000 terms over 2,000 variables with exponents near 2**64: packed
    # keys would be ~130,000 bits wide.
    n = 2000
    one = Expression.sum(Expression.variable(f"z{i}") ** (2**64 + i) for i in range(n))
    two = Expression.sum(
        Expression.variable(f"z{i}") ** (2**64 + i)
        * Expression.variable(f"z{(i + 1) % n}") ** (2**64 + 7 * i)
        for i in range(n)
    )
    return one, two


def _tuple_key_order(coeffs):
    # The order by tuple keys alone, whatever the width limit.
    return sorted(
        ((-sum(e for _, e in mono), tuple((v, -e) for v, e in mono)), mono, num)
        for mono, num in coeffs.items()
    )


def _print_time(e, order):
    saved = expr_module._ordered
    expr_module._ordered = order
    try:
        start = time.perf_counter()
        text = str(e)
        return time.perf_counter() - start, text
    finally:
        expr_module._ordered = saved


def test_wide_sums_print_in_tuple_key_time():
    for e in _wide_sums():
        default, tuple_key = [], []
        for _ in range(5):
            elapsed, text = _print_time(e, expr_module._ordered)
            default.append(elapsed)
            elapsed, reference = _print_time(e, _tuple_key_order)
            tuple_key.append(elapsed)
            assert text == reference
        assert min(default) < 2 * min(tuple_key), (min(default), min(tuple_key))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, e):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(v) ** exp for v, exp in mono))
        for mono, c in e.terms
    ))


def test_product_matches_sympy_expand(sympy):
    rng = random.Random(5)
    for size_a, size_b in ((1, 40), (3, 5), (4, 4), (5, 8), (12, 20), (40, 40)):
        a = randgen.expression(rng, kernel_names, max_degree=6, max_terms=size_a)
        b = randgen.expression(rng, kernel_names, max_degree=6, max_terms=size_b)
        product = _to_sympy(sympy, a) * _to_sympy(sympy, b)
        assert sympy.expand(product - _to_sympy(sympy, a * b)) == 0


@settings(deadline=None, max_examples=60)
@given(expressions, expressions, expressions, variable_names, variable_names)
def test_partial_and_substitute_match_sympy(sympy, e, s, t, v, w):
    symbolic = _to_sympy(sympy, e)
    derivative = sympy.diff(symbolic, sympy.Symbol(v))
    assert sympy.expand(derivative - _to_sympy(sympy, e.partial(v))) == 0
    # Simultaneous: a binding's own variables are not substituted again.
    bindings = {v: s, w: t}
    expected = symbolic.subs(
        {sympy.Symbol(n): _to_sympy(sympy, x) for n, x in bindings.items()},
        simultaneous=True,
    )
    assert sympy.expand(expected - _to_sympy(sympy, e.substitute(bindings))) == 0


# -- the parser against the ring-op route ------------------------------------------

# Parse trees as oracles.parse_tree_value reads them.  Numerators include 0 and
# denominators leave fractions unreduced; names are the kernel's, whose string
# order is not their numeric order.
parse_leaves = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 12), st.none() | st.integers(1, 9)),
    st.tuples(st.just("var"), st.sampled_from(kernel_names)),
)


def _parse_trees(depth):
    # Leaves are weighted up so that trees stay small (about one factor in
    # six is a group); groups nest at most `depth` deep.
    bases = parse_leaves
    if depth:
        groups = st.tuples(st.just("group"), _parse_trees(depth - 1))
        bases = st.one_of(parse_leaves, parse_leaves, parse_leaves, groups)
    factors = st.tuples(st.integers(0, 3), bases, st.none() | st.integers(0, 3))
    terms = st.lists(factors, min_size=1, max_size=3)
    signed_terms = st.tuples(st.sampled_from("+-"), terms)
    return st.tuples(terms, st.lists(signed_terms, max_size=3))


parse_trees = _parse_trees(2)


def _render(tree, rng) -> str:
    # Source text for a tree, with random spacing, so runs like "+-" and
    # "- -" appear as well as "+ -".
    def gap():
        return rng.choice(("", "", " ", "  "))

    def term(factors):
        parts = []
        for minus_signs, base, power in factors:
            text = "".join("-" + gap() for _ in range(minus_signs))
            if base[0] == "num":
                text += str(base[1]) + ("" if base[2] is None else f"/{base[2]}")
            elif base[0] == "var":
                text += base[1]
            else:
                text += "(" + gap() + _render(base[1], rng) + gap() + ")"
            if power is not None:
                text += f"{gap()}^{gap()}{power}"
            parts.append(text)
        return (gap() + "*" + gap()).join(parts)

    first, rest = tree
    return term(first) + "".join(gap() + sign + gap() + term(t) for sign, t in rest)


@settings(deadline=None, max_examples=100)
@given(parse_trees, st.randoms(use_true_random=False))
def test_parser_matches_ring_op_oracle(tree, rng):
    text = _render(tree, rng)
    parsed = fc.parse_expression(text)
    assert parsed == oracles.parse_tree_value(tree), text
    _assert_canonical(parsed)


# -- the int-numerator layout against Fraction-dict references ----------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
# Smooth, prime and 16-digit denominators: shared factors, coprime ones, and
# numerators far past a machine word once brought over a common denominator.
layout_denominators = st.one_of(
    st.builds(lambda a, b: 2**a * 3**b, st.integers(0, 6), st.integers(0, 4)),
    st.sampled_from(PRIMES),
    st.integers(10**15, 10**16 - 1),
)
layout_scalars = st.one_of(
    st.builds(Fraction, st.integers(-12, 12) | st.integers(-(10**16), 10**16), layout_denominators),
    st.integers(-9, 9),
)
layout_names = ("x", "y", "z1", "a_b")
layout_monomials = st.builds(
    lambda d: tuple(sorted(d.items())),
    st.dictionaries(st.sampled_from(layout_names), st.integers(1, 3), max_size=3),
)
# Factor sizes on either side of the packed kernel's threshold: any product
# of two small factors takes the direct loop, any of two large ones the kernel.
_SMALL = math.isqrt(_PACKED_MIN_PAIRS - 1)
small_factors = st.one_of(
    st.builds(Expression, st.dictionaries(layout_monomials, layout_scalars, max_size=_SMALL)),
    st.builds(Expression.constant, layout_scalars),
    st.just(Expression.zero()),
)
tiny_factors = st.one_of(
    st.builds(Expression, st.dictionaries(layout_monomials, layout_scalars, max_size=3)),
    st.builds(Expression.constant, layout_scalars),
)
large_factors = st.builds(
    Expression,
    st.dictionaries(
        layout_monomials, layout_scalars.filter(bool), min_size=_SMALL + 1, max_size=_SMALL + 4
    ),
)


def _assert_layout(e, expected):
    _assert_canonical(e)
    assert dict(e.terms) == expected


def _as_dict(scalar):
    return {(): Fraction(scalar)} if scalar else {}


@settings(deadline=None)
@given(
    st.dictionaries(
        st.builds(lambda m, flip: m[::-1] if flip else m, layout_monomials, st.booleans()),
        layout_scalars,
        max_size=6,
    ),
    layout_scalars,
    st.sampled_from(layout_names),
)
def test_constructors_are_canonical(entries, scalar, name):
    # Keys in either order collide once sorted, so entries merge and cancel.
    _assert_layout(Expression(entries), oracles.dict_from_entries(entries.items()))
    _assert_layout(Expression.constant(scalar), _as_dict(scalar))
    _assert_layout(Expression.variable(name), {((name, 1),): 1})


@settings(deadline=None)
@given(st.lists(small_factors, max_size=5), st.lists(small_factors, max_size=3))
def test_sums_are_canonical(parts, minus):
    expected = oracles.dict_sum([dict(p.terms) for p in parts], [dict(m.terms) for m in minus])
    _assert_layout(Expression.sum(parts, minus), expected)


@settings(deadline=None)
@given(small_factors, small_factors, layout_scalars)
def test_binary_operations_are_canonical(a, b, scalar):
    da, db, dc = dict(a.terms), dict(b.terms), _as_dict(scalar)
    _assert_layout(a + b, oracles.dict_sum([da, db]))
    _assert_layout(a - b, oracles.dict_sum([da], [db]))
    _assert_layout(scalar - a, oracles.dict_sum([dc], [da]))
    _assert_layout(-a, oracles.dict_sum([], [da]))
    _assert_layout(a * b, oracles.dict_product(da, db))
    _assert_layout(b * a, oracles.dict_product(db, da))
    _assert_layout(a * scalar, oracles.dict_product(da, dc))
    _assert_layout(Expression.constant(scalar) * a, oracles.dict_product(dc, da))


@settings(deadline=None, max_examples=60)
@given(large_factors, large_factors)
def test_packed_products_are_canonical(a, b):
    assert len(a.terms) * len(b.terms) >= _PACKED_MIN_PAIRS
    da, db = dict(a.terms), dict(b.terms)
    _assert_layout(a * b, oracles.dict_product(da, db))
    _assert_layout(b * a, oracles.dict_product(db, da))
    plus, minus = oracles.dict_sum([da, db]), oracles.dict_sum([da], [db])
    _assert_layout((a + b) * (a - b), oracles.dict_product(plus, minus))


# Both paths of the product-sum kernel: a threshold of 0 sends every sum
# through the packed keys, one of 10**9 through the direct loop.
kernel_paths = pytest.mark.parametrize("threshold", [0, 10**9])


def _product_sum_at(threshold, pairs):
    saved = expr_module._PACKED_MIN_PAIRS
    expr_module._PACKED_MIN_PAIRS = threshold
    try:
        return expr_module._product_sum(pairs)
    finally:
        expr_module._PACKED_MIN_PAIRS = saved


@kernel_paths
@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(small_factors, small_factors, st.booleans()), max_size=4),
    st.sampled_from(["once", "cancel", "twice"]),
)
@example(pairs=[], repeat="once")
@example(pairs=[(Expression.zero(), z1, True)], repeat="once")
def test_product_sums_match_summed_products(threshold, pairs, repeat):
    # The oracle computes every product on its own and sums them.  "cancel"
    # repeats each pair swapped and with its sign flipped, so the sum is
    # zero; "twice" repeats it as it is, so every numerator doubles and an
    # even denominator must shrink.
    if repeat == "cancel":
        pairs = pairs + [(b, a, not negate) for a, b, negate in pairs]
    elif repeat == "twice":
        pairs = pairs + pairs
    plus = [a * b for a, b, negate in pairs if not negate]
    minus = [a * b for a, b, negate in pairs if negate]
    total = _product_sum_at(threshold, pairs)
    assert total == Expression.sum(plus, minus)
    _assert_layout(total, oracles.dict_sum(
        [oracles.dict_product(dict(a.terms), dict(b.terms)) for a, b, negate in pairs if not negate],
        [oracles.dict_product(dict(a.terms), dict(b.terms)) for a, b, negate in pairs if negate],
    ))
    if repeat == "cancel":
        assert total.is_zero()


@settings(deadline=None)
@given(tiny_factors, st.integers(0, 4), st.sampled_from(layout_names), tiny_factors, tiny_factors)
# Unbound variables with high exponents stay in each term's monomial.
@example(
    a=Expression({
        (("a_b", 9), ("x", 2), ("z1", 7)): Fraction(3, 4),
        (("a_b", 11),): -2,
        (("y", 12), ("z1", 1)): Fraction(5, 6),
    }),
    n=2, v="y", s=Expression({(("z1", 1),): Fraction(1, 2), (): 3}), t=Expression.variable("x"),
)
def test_power_partial_and_substitute_are_canonical(a, n, v, s, t):
    da = dict(a.terms)
    _assert_layout(a**n, oracles.dict_power(da, n))
    _assert_layout(a.partial(v), oracles.dict_partial(da, v))
    bindings = {"x": s, v: t}
    expected = oracles.dict_substitute(da, {k: dict(e.terms) for k, e in bindings.items()})
    _assert_layout(a.substitute(bindings), expected)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30), layout_denominators, layout_monomials), max_size=5))
def test_parsed_expressions_are_canonical(terms):
    # Literals are written unreduced ("6/4"), one term per entry.
    text = " + ".join(
        f"{n}/{d}" + "".join(f"*{v}^{e}" for v, e in mono) for n, d, mono in terms
    ) or "0"
    expected = oracles.dict_from_entries((mono, Fraction(n, d)) for n, d, mono in terms)
    parsed = fc.parse_expression(text)
    _assert_layout(parsed, expected)
    _assert_layout(fc.parse_expression(str(parsed)), expected)


x = Expression.variable("x")
y = Expression.variable("y")
half = Fraction(1, 2)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: x * half + x * half, {(("x", 1),): 1}),
        (lambda: Expression.sum([x * half, x * half]), {(("x", 1),): 1}),
        (lambda: 2 * (x * half), {(("x", 1),): 1}),
        (lambda: Expression.constant(2) * (x * half), {(("x", 1),): 1}),
        (lambda: (x + y) * (x - y), {(("x", 2),): 1, (("y", 2),): -1}),
        (
            lambda: (x * half + y * Fraction(1, 3)) * (x * half - y * Fraction(1, 3)),
            {(("x", 2),): Fraction(1, 4), (("y", 2),): Fraction(-1, 9)},
        ),
        (lambda: (x**2 * half).partial("x"), {(("x", 1),): 1}),
        (lambda: fc.parse_expression("1/2*x + 1/2*x - 6/4"), {(("x", 1),): 1, (): Fraction(-3, 2)}),
        (lambda: x * half - x * half, {}),
        (lambda: (x * half) * 0, {}),
        # Entries whose monomials sort to one key merge in the constructor.
        (lambda: Expression({(("x", 1), ("y", 1)): half, (("y", 1), ("x", 1)): half}),
         {(("x", 1), ("y", 1)): 1}),
        (lambda: Expression({(("x", 1), ("y", 1)): half, (("y", 1), ("x", 1)): -half}), {}),
    ],
)
def test_cancellation_leaves_canonical_form(build, expected):
    _assert_layout(build(), expected)


def _primes(count, limit=20000):
    # Sieve of Eratosthenes; the 2000th prime is 17389.
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, limit, n)))
    return [n for n in range(limit) if sieve[n]][:count]


def test_distinct_prime_denominators_stay_bounded():
    # Each of k terms over its own prime: the shared denominator is the
    # product of all k primes (~25k bits) and every numerator nearly as
    # large, the worst case for one common denominator.  The gcd bounds keep
    # this at ~0.7 s; taking every gcd against the whole denominator, or
    # losing the Gauss bound on products, shows up as seconds.
    k = 2000
    primes = _primes(k)
    text = " + ".join(f"1/{p}*z{i % 7}^{i // 7 + 1}" for i, p in enumerate(primes))
    start = time.perf_counter()
    e = fc.parse_expression(text)
    printed = str(e)
    derivative = e.partial("z1")
    doubled = e + e
    binomial = fc.parse_expression("z1 + 1/3")
    product = e * binomial
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f} s"
    assert len(e.terms) == k and printed.count(" + ") == k - 1
    assert len(derivative.terms) == len([i for i in range(k) if i % 7 == 1])
    assert dict(doubled.terms) == {mono: 2 * c for mono, c in e.terms}
    assert doubled._den * 2 == e._den
    assert dict(product.terms) == oracles.dict_product(dict(e.terms), dict(binomial.terms))


@settings(deadline=None, max_examples=200)
@given(
    st.integers(2, 2**40),
    st.integers(2**64, 2**80),
    st.lists(st.tuples(st.integers(-2**70, 2**70), st.integers(-10**6, 10**6)),
             min_size=1, max_size=6),
    st.booleans(),
)
def test_wide_sums_keep_the_factor_their_numerators_share(factor, rest, pairs, cancel):
    # Two sums over one denominator wider than 64 bits whose numerators add
    # up, monomial by monomial, to multiples of a factor of it (or cancel to
    # zero): the sum must divide that factor out, through the gcd with the
    # sum of the numerators, by Expression addition and by the term scanner.
    den = factor * rest
    left, right, expected = {}, {}, {}
    for i, (offset, share) in enumerate(pairs):
        total = 0 if cancel else factor * share
        left[mono(z1=i + 1)] = Fraction(offset, den)
        right[mono(z1=i + 1)] = Fraction(total - offset, den)
        if total:
            expected[mono(z1=i + 1)] = Fraction(total, den)
    terms = [f"{c.numerator}/{c.denominator}*z1^{power}"
             for ((_, power),), c in [*left.items(), *right.items()] if c] or ["0"]
    text = " + ".join(terms).replace("+ -", "- ")
    lcm = math.lcm(*[c.denominator for c in expected.values()]) if expected else 1
    for total in (Expression(left) + Expression(right),
                  Expression(left) - (-Expression(right)),
                  fc.parse_expression(text)):
        assert dict(total.terms) == expected
        assert total._den == lcm


def test_product_sums_over_distinct_prime_denominators_stay_bounded():
    # k two-term pairs, each over its own two primes: the sum's denominator
    # is the product of all 2k primes (~55k bits) and every numerator nearly
    # as large.  One accumulator scales each pair once and, the denominators
    # being coprime, takes no gcd (~0.2 s); adding the products one by
    # one rescales the growing partial sum at every step (over 10 s).
    k = 2000
    primes = _primes(2 * k, limit=40000)
    pairs = [
        (
            Expression({((f"z{i % 7}", i // 7 + 1),): Fraction(1, primes[2 * i]), (): 1}),
            Expression({(("z1", 1),): Fraction(1, primes[2 * i + 1]), (): 1}),
            i % 2 == 1,
        )
        for i in range(k)
    ]
    start = time.perf_counter()
    total = expr_module._product_sum(pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f} s"
    assert total._den == math.prod(primes)
    assert total == Expression.sum(
        [a * b for a, b, negate in pairs if not negate], [a * b for a, b, negate in pairs if negate]
    )


# -- powers of separated sums: the multinomial case against the power oracle ------

# A constant (zero, negative, fractional or huge) beside up to four powers of
# distinct variables, entered in the order hypothesis draws the names, so
# a walk that took the terms in any order but the names' would show.
separated_bases = st.builds(
    lambda powers, constant: Expression(
        {((name, e),): c for name, (e, c) in powers.items()} | {(): constant}
    ),
    st.dictionaries(
        st.sampled_from(kernel_names),
        st.tuples(kernel_exponents, layout_scalars.filter(bool)),
        min_size=1,
        max_size=4,
    ),
    layout_scalars,
)


@settings(deadline=None, max_examples=60)
@given(separated_bases, st.integers(0, 12))
def test_separated_powers_match_the_power_oracle(base, n):
    power = base**n
    _assert_layout(power, oracles.dict_power(dict(base.terms), n))
    # Every composition of n into one part per term is its own monomial.
    k = len(base.terms)
    assert len(power.terms) == math.comb(n + k - 1, k - 1)


@pytest.mark.parametrize("text", ["z1 + z1^2", "z1*z2 + z3", "1/2 - z1*z2", "-3/4*z10^5", "7/3"])
def test_sums_that_share_or_mix_variables_stay_on_binary_powering(text):
    base = fc.parse_expression(text)
    if len(base.terms) > 1:
        assert expr_module._separated_power(base._coeffs, 2) is None
    for n in range(7):
        _assert_layout(base**n, oracles.dict_power(dict(base.terms), n))


def test_separated_powers_build_no_products(monkeypatch):
    # A wall-time-free guard: the parser's one product is the scale factor.
    seen = []
    kernel = expr_module._product_sum

    def counted(pairs):
        seen.append(pairs)
        return kernel(pairs)

    monkeypatch.setattr(expr_module, "_product_sum", counted)
    scaled = fc.parse_expression("3/2*(1 + z1 + 2*z2 - 1/3*z3 + z4)^11")
    assert len(seen) == 1
    [(left, right, _)] = seen[0]
    assert Expression.constant(Fraction(3, 2)) in (left, right)
    assert len(scaled.terms) == math.comb(15, 4)
    seen.clear()
    fc.parse_expression("(z1 + z1^2)^11")
    assert len(seen) > 1


def test_separated_powers_match_sympy_expand(sympy):
    for text, n in (
        ("1 + z1 + 2*z2 - 1/3*z3 + z4", 7),
        ("z1^2 - 3*z2", 9),
        ("-5/6 + Z3^3 + 2/7*a_b - z10", 5),
        ("z2 + z1", 12),
    ):
        base = fc.parse_expression(text)
        expected = sympy.expand(_to_sympy(sympy, base) ** n)
        assert sympy.expand(expected - _to_sympy(sympy, base**n)) == 0


# -- bounded powers: the size is predicted before any work ---------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Expression.constant(9) ** 99999999,
        lambda: (2 * z1) ** 99999999,
        lambda: (Fraction(1, 3) + z1) ** 99999999,
        lambda: (1 + z1 + z2) ** 2000,
        lambda: (z1 * z2 - z1) ** 99999999,
    ],
    ids=["number", "named one-term", "rational two-term", "separated sum", "shared variable"],
)
def test_powers_past_the_size_limits_are_refused_before_any_work(build):
    start = time.perf_counter()
    with pytest.raises(fc.InputError, match="^power too large: "):
        build()
    assert time.perf_counter() - start < 1


def test_powers_at_the_size_limits_still_build(monkeypatch):
    bits = expr_module._MAX_COEFF_BITS
    for base, value in ((2, 2**bits), (Fraction(1, 2), Fraction(1, 2**bits))):
        assert Expression.constant(base) ** bits == Expression.constant(value)
    for base in (Expression.constant(2), Expression.constant(Fraction(1, 2)), 2 * z1):
        with pytest.raises(fc.InputError, match=f"^power too large: a coefficient would pass {bits} bits$"):
            base ** (bits + 1)
    # 83 terms cubed make C(85, 3) = 98,770 terms, as predicted; 84 pass the limit.
    names = [Expression.variable(f"x{i}") for i in range(83)]
    assert len(((Expression.sum(names[:82]) + 1) ** 3).terms) == math.comb(85, 3)
    with pytest.raises(fc.InputError, match="^power too large: it would have more than 100000 terms$"):
        (Expression.sum(names) + 1) ** 3
    # A univariate power is bounded by its degree: 100 terms to the 10th.
    assert len((Expression.sum([z1**i for i in range(100)]) ** 10).terms) == 991
    # One term with coefficient 1 predicts one term and no bits: no exponent cap.
    big = 99999999999999999999999
    assert (-z1 * z2) ** big == Expression({mono(z1=big, z2=big): -1})
    # At a lowered term limit the boundary is exact: C(14, 2) = 91 terms.
    monkeypatch.setattr(expr_module, "_MAX_TERMS", 91)
    assert len(((1 + z1 + z2) ** 12).terms) == 91
    with pytest.raises(fc.InputError, match="more than 91 terms"):
        (1 + z1 + z2) ** 13


@settings(deadline=None, max_examples=150)
@given(expressions, st.integers(2, 6), st.integers(1, 100), st.integers(0, 12))
@example(1 + z1, 6, 100, 2)  # binomials need the log2 of the term count
def test_a_power_that_is_not_refused_stays_within_the_limits(base, n, terms, bits):
    # The prediction is an upper bound: under any limits, a power it lets
    # through has at most that many terms, and numerators and a denominator
    # of at most one bit more than the limit (it counts log2, not bit_length).
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_module, "_MAX_TERMS", terms)
        patch.setattr(expr_module, "_MAX_COEFF_BITS", bits)
        try:
            power = base**n
        except fc.InputError:
            return
    assert len(power._coeffs) <= terms
    assert max([power._den, *map(abs, power._coeffs.values())]).bit_length() <= bits + 1


def test_substitute_and_evaluate_name_the_binding_they_cannot_use():
    with pytest.raises(fc.InputError, match="^binding for 'z1' is not an expression$"):
        z1.substitute({"z1": "z2"})
    with pytest.raises(fc.InputError, match="^no value bound for variable 'z2'$"):
        (z1 + z2).evaluate({"z1": 1})


def test_decimal_digits_count_like_str():
    # The float logarithm is one too high just below a power of ten
    # (10^15 - 1) and one too low at a large one (10^512); both are corrected.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for power in (1, 2, 15, 16, 100, 512, 4300, 5000):
            for n in (10**power - 1, 10**power, 10**power + 1):
                assert expr_module._decimal_digits(n) == len(str(n)), n
    finally:
        sys.set_int_max_str_digits(limit)
