"""The extension construction: splittings, soldering, round trips, dependence."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import folicalc as fc
from folicalc import (
    AdaptedChart,
    BundleChart,
    Connection,
    Expression,
    LeafwiseConnection,
    Splitting,
    SolderingForm,
    VerticalValuedLeafwiseForm,
    apply_splitting,
    connection_difference,
    extend_connection,
    extension_dependence,
    restrict_connection,
    restrict_form,
    translate_connection,
    verify_extension,
)
from folicalc import extension

import oracles
import randgen

WORKED = Path(__file__).resolve().parent.parent / "samples" / "worked_extension.fol"

BASE = AdaptedChart(("z1", "z2"), ("z3",))
CHART = BundleChart(BASE, ("u",))

z1 = Expression.variable("z1")
z2 = Expression.variable("z2")
u = Expression.variable("u")
one = Expression.one()


def test_splitting_rejects_fibre_variables():
    with pytest.raises(fc.InputError):
        Splitting(BASE, {("z1", "z3"): u})


def test_splitting_rejects_bad_indices():
    with pytest.raises(fc.InputError):
        Splitting(BASE, {("z3", "z3"): z2})
    with pytest.raises(fc.InputError):
        Splitting(BASE, {("z1", "z2"): z2})


def test_apply_splitting_zero_difference():
    assert apply_splitting(Splitting(BASE), VerticalValuedLeafwiseForm(CHART)).is_zero()


def test_apply_splitting_trivial_relabels():
    q = VerticalValuedLeafwiseForm(CHART, {("u", "z1"): u})
    soldered = apply_splitting(Splitting(BASE), q)
    assert soldered == SolderingForm(CHART, {("u", "z1"): u})


def test_apply_splitting_spreads_transverse():
    split = Splitting(BASE, {("z1", "z3"): z2})
    q = VerticalValuedLeafwiseForm(CHART, {("u", "z1"): u})
    soldered = apply_splitting(split, q)
    assert soldered.coefficient("u", "z1") == u
    assert soldered.coefficient("u", "z3") == -(z2 * u)


def test_soldering_rows_restrict_back_to_difference():
    # The restriction kills every transverse covector, so each soldered row
    # recovers the original leafwise row whatever the splitting was.
    rng = random.Random(83)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        split = randgen.splitting(rng, chart.base)
        q = randgen.vertical_form(rng, chart)
        soldered = apply_splitting(split, q)
        for i in range(chart.fibre_dim):
            assert restrict_form(soldered.row(i)) == q.row(i)


def test_extend_with_restriction_is_identity():
    rng = random.Random(89)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        gamma = randgen.connection(rng, chart)
        split = randgen.splitting(rng, chart.base)
        assert extend_connection(restrict_connection(gamma), gamma, split) == gamma


def test_extend_trivial_splitting():
    a = LeafwiseConnection(CHART, {("u", "z1"): u})
    extended = extend_connection(a, None, Splitting(BASE))
    assert extended == Connection(CHART, {("u", "z1"): u})


def test_extend_worked_example():
    a = LeafwiseConnection(CHART, {("u", "z1"): u})
    split = Splitting(BASE, {("z1", "z3"): z2})
    extended = extend_connection(a, None, split)
    assert extended.coefficient("u", "z1") == u
    assert extended.coefficient("u", "z2").is_zero()
    assert extended.coefficient("u", "z3") == -(z2 * u)


def test_extend_matches_closed_form():
    # The composed path (difference, soldering, translation) must agree with
    # the closed-form coefficients: leaf slots verbatim, transverse slots
    # reference minus the splitting-weighted differences.
    rng = random.Random(97)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        gamma = randgen.connection(rng, chart)
        split = randgen.splitting(rng, chart.base)
        extended = extend_connection(a, gamma, split)
        for i in range(chart.fibre_dim):
            for alpha in range(chart.dim_leaf):
                assert extended.coefficient(i, alpha) == a.coefficient(i, alpha)
            for trans in range(chart.dim_leaf, chart.dim):
                expected = gamma.coefficient(i, trans)
                for alpha in range(chart.dim_leaf):
                    expected = expected - split.coefficient(alpha, trans) * (
                        a.coefficient(i, alpha) - gamma.coefficient(i, alpha)
                    )
                assert extended.coefficient(i, trans) == expected


def test_verify_extension_randomized():
    rng = random.Random(101)
    for _ in range(200):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        gamma = randgen.connection(rng, chart)
        split = randgen.splitting(rng, chart.base)
        assert verify_extension(a, gamma, split)


def test_verify_extension_with_default_reference():
    a = LeafwiseConnection(CHART, {("u", "z1"): u, ("u", "z2"): z2 * u})
    assert verify_extension(a, None, Splitting(BASE, {("z2", "z3"): z1}))


def test_dependence_same_splitting_is_zero():
    rng = random.Random(103)
    chart = randgen.bundle_chart(rng)
    a = randgen.leafwise_connection(rng, chart)
    gamma = randgen.connection(rng, chart)
    split = randgen.splitting(rng, chart.base)
    assert extension_dependence(a, gamma, split, split).is_zero()


def test_dependence_zero_difference_is_zero():
    rng = random.Random(107)
    for _ in range(50):
        chart = randgen.bundle_chart(rng)
        gamma = randgen.connection(rng, chart)
        first = randgen.splitting(rng, chart.base)
        second = randgen.splitting(rng, chart.base)
        delta = extension_dependence(restrict_connection(gamma), gamma, first, second)
        assert delta.is_zero()


def test_dependence_example():
    a = LeafwiseConnection(CHART, {("u", "z1"): u})
    first = Splitting(BASE, {("z1", "z3"): one})
    second = Splitting(BASE)
    delta = extension_dependence(a, None, first, second)
    assert delta.coefficient("u", "z3") == -u
    assert delta.coefficient("u", "z1").is_zero()
    assert delta.coefficient("u", "z2").is_zero()


def test_dependence_shape():
    # Leaf entries vanish; transverse entries equal minus the weighted
    # leafwise differences with the splitting difference as weights.
    rng = random.Random(109)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        gamma = randgen.connection(rng, chart)
        first = randgen.splitting(rng, chart.base)
        second = randgen.splitting(rng, chart.base)
        delta = extension_dependence(a, gamma, first, second)
        q = connection_difference(a, restrict_connection(gamma))
        for i in range(chart.fibre_dim):
            for alpha in range(chart.dim_leaf):
                assert delta.coefficient(i, alpha).is_zero()
            for trans in range(chart.dim_leaf, chart.dim):
                expected = Expression.zero()
                for alpha in range(chart.dim_leaf):
                    weight = first.coefficient(alpha, trans) - second.coefficient(alpha, trans)
                    expected = expected - weight * q.coefficient(i, alpha)
                assert delta.coefficient(i, trans) == expected


def test_dependence_is_the_difference_of_two_extensions():
    # The route that builds both extensions and subtracts them, entry by
    # entry, with and without a reference.
    rng = random.Random(127)
    for draw in range(120):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        gamma = randgen.connection(rng, chart) if draw % 2 else None
        first = randgen.splitting(rng, chart.base)
        second = randgen.splitting(rng, chart.base)
        delta = extension_dependence(a, gamma, first, second)
        one = extend_connection(a, gamma, first).coefficients
        two = extend_connection(a, gamma, second).coefficients
        for key in set(one) | set(two) | set(delta.coefficients):
            expected = one.get(key, Expression.zero()) - two.get(key, Expression.zero())
            assert delta.coefficients.get(key, Expression.zero()) == expected
        assert all(delta.coefficients.values())


def test_verify_reports_the_library_dependence():
    document = fc.parse_document(WORKED.read_text())
    a, split_one, split_two = (document.lookup(name).value for name in ("A", "B", "B0"))
    delta = extension_dependence(a, None, split_one, split_two)
    report = fc.run_command("verify", document, ("A", "B", "B0"))
    (check,) = [c for c in report.checks if c.name == "extension.dependence"]
    assert check.ok
    assert check.payload == "; ".join(delta.assignment_lines("Delta"))
    assert not delta.is_zero()


def test_a_splitting_paired_with_itself_forms_no_product():
    # B.Q alone would take 12,341^2 pairs of terms, past the limit; paired
    # with itself each slot's pairs cancel before any is multiplied.
    base = AdaptedChart(("z1", "z2"), ("z3", "z4"))
    chart = BundleChart(base, ("u",))
    power = fc.parse_expression("(1+z1+z2+z3)^40")
    a = LeafwiseConnection(chart, {("u", "z1"): power, ("u", "z2"): power})
    split = Splitting(base, {("z1", "z3"): power, ("z2", "z4"): power})
    with pytest.raises(fc.InputError, match="product too large"):
        extend_connection(a, None, split)
    assert extension_dependence(a, None, split, split).is_zero()


def test_extension_is_linear_in_the_difference():
    rng = random.Random(113)
    for _ in range(50):
        chart = randgen.bundle_chart(rng)
        gamma = randgen.connection(rng, chart)
        split = randgen.splitting(rng, chart.base)
        base_leafwise = restrict_connection(gamma)
        q1 = randgen.vertical_form(rng, chart)
        q2 = randgen.vertical_form(rng, chart)
        reference = extend_connection(base_leafwise, gamma, split)

        def shift(q):
            extended = extend_connection(translate_connection(base_leafwise, q), gamma, split)
            return {
                key: extended.coefficients.get(key, Expression.zero())
                - reference.coefficients.get(key, Expression.zero())
                for key in set(extended.coefficients) | set(reference.coefficients)
            }

        summed = translate_connection(translate_connection(base_leafwise, q1), q2)
        combined = shift(connection_difference(summed, base_leafwise))
        first, second = shift(q1), shift(q2)
        keys = set(first) | set(second) | set(combined)
        for key in keys:
            lhs = combined.get(key, Expression.zero())
            rhs = first.get(key, Expression.zero()) + second.get(key, Expression.zero())
            assert lhs == rhs


def test_chart_compatibility_enforced():
    other_base = AdaptedChart(("z1",), ("z3",))
    with pytest.raises(fc.ChartMismatchError):
        apply_splitting(Splitting(other_base), VerticalValuedLeafwiseForm(CHART))
    with pytest.raises(fc.ChartMismatchError):
        extend_connection(LeafwiseConnection(CHART), None, Splitting(other_base))
    other_bundle = BundleChart(BASE, ("v",))
    with pytest.raises(
        fc.ChartMismatchError, match="^reference connection lives over a different chart$"
    ):
        extend_connection(LeafwiseConnection(CHART), Connection(other_bundle), Splitting(BASE))


def _soldering_cases():
    # Random splittings and vertical-valued forms, a splitting that is
    # sometimes empty, and two products that cancel in the one slot [u][z3].
    yield (
        Splitting(BASE, {("z1", "z3"): z2, ("z2", "z3"): z1}),
        VerticalValuedLeafwiseForm(CHART, {("u", "z1"): z1, ("u", "z2"): -z2}),
    )
    rng = random.Random(89)
    for _ in range(300):
        chart = randgen.bundle_chart(rng)
        split = randgen.splitting(rng, chart.base) if rng.random() < 0.8 else Splitting(chart.base)
        yield split, randgen.vertical_form(rng, chart)


def test_apply_splitting_matches_the_slot_oracle():
    for split, q in _soldering_cases():
        soldered = apply_splitting(split, q)
        assert oracles.table_terms(soldered) == oracles.soldering_by_slots(split, q)
        assert all(soldered.coefficients.values())


# The types the signatures name are checked; extend_connection's checks
# cover verify_extension and extension_dependence.
FULL = Connection(CHART, {("u", "z1"): u, ("u", "z3"): z1})
LEAFWISE = LeafwiseConnection(CHART, {("u", "z1"): u})
SPLIT = Splitting(BASE, {("z1", "z3"): z2})


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_extension(FULL, None, SPLIT),
        lambda: extend_connection(LEAFWISE, LEAFWISE, SPLIT),
        lambda: extend_connection(LEAFWISE, FULL, None),
        lambda: extension_dependence(LEAFWISE, None, SPLIT, FULL),
        lambda: apply_splitting(SPLIT, FULL),
        lambda: apply_splitting(FULL, VerticalValuedLeafwiseForm(CHART)),
    ],
    ids=[
        "verify-a-connection",
        "extend-from-a-leafwise-reference",
        "extend-by-none",
        "dependence-on-a-connection",
        "solder-a-connection",
        "split-by-a-connection",
    ],
)
def test_operand_types_are_checked(call):
    with pytest.raises(fc.ChartMismatchError, match=" needs a "):
        call()


# -- fibre-only changes of bundle chart ------------------------------------------
#
# Under u' = u + g(z) over an identity base map, oracles.fibre_shift moves a
# connection by the affine law and a soldering form as a tensor, and leaves a
# splitting alone.  The extension Gamma + s(A - Gamma|F) is well defined only
# if building it and changing chart commute.


def _fibre_changes(seed):
    # (chart, A, reference, B1, B2, g) draws; the reference is None (the zero
    # connection) in one draw of four.
    rng = random.Random(seed)
    for _ in range(200):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        gamma = randgen.connection(rng, chart) if rng.random() < 0.75 else None
        first = randgen.splitting(rng, chart.base)
        second = randgen.splitting(rng, chart.base)
        g = [randgen.expression(rng, chart.base.coords, 2) for _ in chart.fibre_coords]
        yield chart, a, gamma, first, second, g


def _shifted_reference(chart, gamma, g):
    return oracles.fibre_shift(gamma or Connection(chart), g)


def test_restriction_commutes_with_a_fibre_change():
    for chart, _, gamma, _, _, g in _fibre_changes(131):
        gamma = gamma or Connection(chart)
        assert restrict_connection(oracles.fibre_shift(gamma, g)) == oracles.fibre_shift(
            restrict_connection(gamma), g
        )


def test_extension_is_natural_under_a_fibre_change():
    for chart, a, gamma, split, _, g in _fibre_changes(137):
        moved = extend_connection(
            oracles.fibre_shift(a, g),
            _shifted_reference(chart, gamma, g),
            oracles.fibre_shift(split, g),
        )
        assert moved == oracles.fibre_shift(extend_connection(a, gamma, split), g)


def test_dependence_transforms_as_a_tensor_under_a_fibre_change():
    for chart, a, gamma, first, second, g in _fibre_changes(139):
        moved = extension_dependence(
            oracles.fibre_shift(a, g), _shifted_reference(chart, gamma, g), first, second
        )
        assert moved == oracles.fibre_shift(extension_dependence(a, gamma, first, second), g)


def test_an_untransformed_reference_breaks_naturality():
    # The control: with u' = u + z3 and B = 0 the transformed extension has
    # d_3 g = 1 on its transverse slot, which only the reference can carry.
    zero = LeafwiseConnection(CHART)
    g = [Expression.variable("z3")]
    expected = oracles.fibre_shift(extend_connection(zero, Connection(CHART), Splitting(BASE)), g)
    assert expected.coefficient("u", "z3") == one
    unmoved = extend_connection(oracles.fibre_shift(zero, g), Connection(CHART), Splitting(BASE))
    assert unmoved != expected
    broken = 0
    for chart, a, gamma, split, _, g in _fibre_changes(149):
        gamma = gamma or Connection(chart)
        moved = extend_connection(oracles.fibre_shift(a, g), gamma, split)
        broken += moved != oracles.fibre_shift(extend_connection(a, gamma, split), g)
    assert broken > 0


# -- changes of base chart ---------------------------------------------------------
#
# Under a triangular adapted base map z'_i = z_i + f_i(z_{i+1}, ...) with
# u' = u + g(z), oracles.bundle_change moves a connection by the affine law,
# a splitting by the leaf, transverse and mixed blocks of the Jacobian and a
# soldering form as a tensor.  Unlike a fibre-only change, a base map mixes
# the transverse columns, so it sees which column a slot of s(Q) lands in.

# z1' = z1 + z2*z3, z2' = z2 + z4^2 - z3, z3' = z3 + 2*z4^2, u' = u + z1*z3 + z2.
WIDE = BundleChart(AdaptedChart(("z1", "z2"), ("z3", "z4")), ("u",))
WIDE_MAP = [
    fc.parse_expression(text) for text in ("z1 + z2*z3", "z2 + z4^2 - z3", "z3 + 2*z4^2", "z4")
]
WIDE_SHIFT = [fc.parse_expression("z1*z3 + z2")]


def _bundle_changes(seed, adapted=True, min_transverse=0):
    # (chart, A, reference, B1, B2, change) draws, change taking a table to
    # its transform; the reference is the zero connection in one draw of four.
    rng = random.Random(seed)
    for _ in range(200):
        chart = randgen.bundle_chart(rng)
        while chart.dim - chart.dim_leaf < min_transverse:
            chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        gamma = randgen.connection(rng, chart) if rng.random() < 0.75 else Connection(chart)
        first = randgen.splitting(rng, chart.base)
        second = randgen.splitting(rng, chart.base)
        components = randgen.triangular_map(rng, chart.base, adapted)
        g = [randgen.expression(rng, chart.base.coords, 2) for _ in chart.fibre_coords]
        yield chart, a, gamma, first, second, oracles.bundle_change(chart, components, g)


def _extension_is_natural(change, a, gamma, split, moved_split):
    moved = extend_connection(change(a), change(gamma), moved_split)
    return moved == change(extend_connection(a, gamma, split))


def _dependence_is_a_tensor(change, a, gamma, first, second):
    moved = extension_dependence(change(a), change(gamma), change(first), change(second))
    return moved == change(extension_dependence(a, gamma, first, second))


def test_the_base_change_oracle_inverts_its_map():
    inverse = oracles.triangular_inverse(WIDE.base.coords, WIDE_MAP)
    bindings = dict(zip(WIDE.base.coords, inverse))
    assert [z.substitute(bindings) for z in WIDE_MAP] == [
        Expression.variable(name) for name in WIDE.base.coords
    ]


def test_restriction_commutes_with_a_bundle_change():
    for _, _, gamma, _, _, change in _bundle_changes(151):
        assert restrict_connection(change(gamma)) == change(restrict_connection(gamma))


def test_extension_is_natural_under_a_bundle_change():
    for _, a, gamma, split, _, change in _bundle_changes(157):
        assert _extension_is_natural(change, a, gamma, split, change(split))


def test_dependence_transforms_as_a_tensor_under_a_bundle_change():
    for _, a, gamma, first, second, change in _bundle_changes(163):
        assert _dependence_is_a_tensor(change, a, gamma, first, second)


def test_an_untransformed_splitting_breaks_naturality():
    # The control: on the hand-built map a splitting whose only entry is
    # B[z1][z3] = 1 moves to a splitting with a z4 column.
    change = oracles.bundle_change(WIDE, WIDE_MAP, WIDE_SHIFT)
    split = Splitting(WIDE.base, {("z1", "z3"): one})
    a = LeafwiseConnection(WIDE, {("u", "z1"): u})
    gamma = Connection(WIDE)
    assert not change(split).coefficient("z1", "z4").is_zero()
    assert _extension_is_natural(change, a, gamma, split, change(split))
    assert not _extension_is_natural(change, a, gamma, split, split)
    assert not all(
        _extension_is_natural(change, a, gamma, split, split)
        for _, a, gamma, split, _, change in _bundle_changes(167)
    )


def test_a_base_map_that_is_not_adapted_breaks_naturality():
    # The control: z'_i = z_i + f_i(z_1, ..., z_{i-1}) lets a transverse
    # coordinate move with the leaves, which the leafwise law cannot carry.
    assert not all(
        _extension_is_natural(change, a, gamma, split, change(split))
        for _, a, gamma, split, _, change in _bundle_changes(173, adapted=False)
    )


_real_transverse = extension._transverse


def _reversed_transverse(difference, *signed):
    # The transverse-index mutant: each slot of s(Q) lands in the mirror
    # image of its transverse column.
    chart = difference.chart
    table = _real_transverse(difference, *signed)
    return {(fibre, chart.dim_leaf + chart.dim - 1 - t): c for (fibre, t), c in table.items()}


def test_a_reversed_transverse_index_breaks_naturality(monkeypatch):
    # Only a base map mixes transverse columns: both sides of a fibre-only
    # identity would carry the mutant alike.
    monkeypatch.setattr(extension, "_transverse", _reversed_transverse)
    assert not all(
        _extension_is_natural(change, a, gamma, split, change(split))
        for _, a, gamma, split, _, change in _bundle_changes(179, min_transverse=2)
    )
    assert not all(
        _dependence_is_a_tensor(change, a, gamma, first, second)
        for _, a, gamma, first, second, change in _bundle_changes(181, min_transverse=2)
    )
