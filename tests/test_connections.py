"""Connections, jets, sections, and the leafwise covariant differential."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import folicalc as fc
from folicalc import (
    AdaptedChart,
    BundleChart,
    BundleSection,
    Connection,
    Expression,
    LeafwiseConnection,
    LeafwiseJetPoint,
    VerticalValuedLeafwiseForm,
    connection_as_jet_section,
    connection_difference,
    covariant_differential,
    jet_prolongation,
    jet_section_as_connection,
    restrict_connection,
    translate_connection,
)

import oracles
import randgen

BASE = AdaptedChart(("z1", "z2"), ("z3",))
CHART = BundleChart(BASE, ("u",))

z1 = Expression.variable("z1")
z2 = Expression.variable("z2")
z3 = Expression.variable("z3")
u = Expression.variable("u")


def test_restrict_zero():
    assert restrict_connection(Connection(CHART)) == LeafwiseConnection(CHART)


def test_restrict_discards_transverse():
    gamma = Connection(CHART, {("u", "z3"): u})
    assert restrict_connection(gamma).is_zero()


def test_restrict_keeps_leaf_coefficients():
    gamma = Connection(CHART, {("u", "z1"): z2})
    assert restrict_connection(gamma) == LeafwiseConnection(CHART, {("u", "z1"): z2})


def test_restrict_is_affine():
    rng = random.Random(67)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        a = randgen.connection(rng, chart)
        b = randgen.connection(rng, chart)
        combined = {
            key: a.coefficients.get(key, Expression.zero())
            - b.coefficients.get(key, Expression.zero())
            for key in set(a.coefficients) | set(b.coefficients)
        }
        leaf_part = {k: v for k, v in combined.items() if k[1] < chart.dim_leaf}
        expected = VerticalValuedLeafwiseForm(chart, leaf_part)
        assert connection_difference(restrict_connection(a), restrict_connection(b)) == expected


def test_jet_prolongation_examples():
    s = BundleSection(CHART, {"u": z1 * z3})
    jet = jet_prolongation(s)
    assert jet == LeafwiseJetPoint(CHART, {("u", "z1"): z3})

    assert jet_prolongation(BundleSection(CHART, {"u": 5})).is_zero()

    s = BundleSection(CHART, {"u": z2**2})
    assert jet_prolongation(s).coefficient("u", "z2") == 2 * z2


def test_connection_as_jet_round_trip():
    a = LeafwiseConnection(CHART, {("u", "z1"): u})
    jet = connection_as_jet_section(a)
    assert jet == LeafwiseJetPoint(CHART, {("u", "z1"): u})
    assert jet_section_as_connection(jet) == a
    assert connection_as_jet_section(LeafwiseConnection(CHART)).is_zero()


def test_connection_difference_examples():
    a = LeafwiseConnection(CHART, {("u", "z1"): u})
    assert connection_difference(a, a).is_zero()
    assert connection_difference(a, LeafwiseConnection(CHART)) == VerticalValuedLeafwiseForm(
        CHART, {("u", "z1"): u}
    )
    b = LeafwiseConnection(CHART, {("u", "z1"): z2 + u})
    g = LeafwiseConnection(CHART, {("u", "z1"): z2})
    assert connection_difference(b, g) == VerticalValuedLeafwiseForm(CHART, {("u", "z1"): u})


def test_translate_examples():
    a = LeafwiseConnection(CHART, {("u", "z1"): z2})
    assert translate_connection(a, VerticalValuedLeafwiseForm(CHART)) == a
    q = VerticalValuedLeafwiseForm(CHART, {("u", "z2"): u})
    assert translate_connection(LeafwiseConnection(CHART), q).coefficients == q.coefficients


def test_translate_difference_is_affine_inverse():
    rng = random.Random(71)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        b = randgen.leafwise_connection(rng, chart)
        assert translate_connection(a, connection_difference(b, a)) == b


def test_covariant_differential_reduces_to_jet():
    s = BundleSection(CHART, {"u": z1})
    result = covariant_differential(LeafwiseConnection(CHART), s)
    assert result == VerticalValuedLeafwiseForm(CHART, {("u", "z1"): Expression.one()})


def test_covariant_differential_flat_section():
    # Built so the leaf partials of s match the coefficients exactly.
    a = LeafwiseConnection(CHART, {("u", "z1"): Expression.one(), ("u", "z2"): 2 * z2})
    s = BundleSection(CHART, {"u": z1 + z2**2 + z3})
    assert covariant_differential(a, s).is_zero()


def test_covariant_differential_constant_section():
    s = BundleSection(CHART, {"u": 3})
    assert covariant_differential(LeafwiseConnection(CHART), s).is_zero()


def test_covariant_differential_composes_with_section():
    # Fibre-dependent coefficients are substituted along the section.
    a = LeafwiseConnection(CHART, {("u", "z1"): u**2})
    s = BundleSection(CHART, {"u": z3})
    result = covariant_differential(a, s)
    assert result.coefficient("u", "z1") == -(z3**2)


def test_covariant_differential_zero_iff_jet_matches():
    rng = random.Random(73)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        s = randgen.section(rng, chart)
        a = randgen.leafwise_connection(rng, chart)
        bindings = {name: s.components[i] for i, name in enumerate(chart.fibre_coords)}
        jet = jet_prolongation(s)
        matches = all(
            jet.coefficient(i, alpha) == a.coefficient(i, alpha).substitute(bindings)
            for i in range(chart.fibre_dim)
            for alpha in range(chart.dim_leaf)
        )
        assert covariant_differential(a, s).is_zero() == matches


def test_fibre_independent_covariant_differential_splits():
    rng = random.Random(79)
    for _ in range(100):
        chart = randgen.bundle_chart(rng)
        s = randgen.section(rng, chart)
        a = randgen.leafwise_connection(rng, chart, fibre_dependent=False)
        nabla = covariant_differential(a, s)
        jet = jet_prolongation(s)
        for i in range(chart.fibre_dim):
            for alpha in range(chart.dim_leaf):
                assert nabla.coefficient(i, alpha) == jet.coefficient(i, alpha) - a.coefficient(
                    i, alpha
                )


def test_section_rejects_fibre_variables():
    with pytest.raises(fc.InputError):
        BundleSection(CHART, {"u": u})


def test_leafwise_connection_rejects_transverse_column():
    with pytest.raises(fc.InputError):
        LeafwiseConnection(CHART, {("u", "z3"): z1})


def test_chart_mismatch_raises():
    other = BundleChart(AdaptedChart(("z1",), ("z3",)), ("u",))
    with pytest.raises(fc.ChartMismatchError):
        connection_difference(LeafwiseConnection(CHART), LeafwiseConnection(other))


def _oracle_cases():
    # Random charts, sections and leafwise connections, a connection that
    # is sometimes empty, the coefficient u - z1 that vanishes along u = z1
    # in a slot where the section has no leaf partial, and unbound base
    # variables with high exponents beside the bound fibre one.
    yield LeafwiseConnection(CHART, {("u", "z2"): u - z1}), BundleSection(CHART, {"u": z1})
    yield LeafwiseConnection(CHART), BundleSection(CHART, {"u": z1 * z2})
    high = Fraction(2, 3) * z1**9 * z3**7 * u**3 - 2 * u * z2**8 + z3**11
    section = BundleSection(CHART, {"u": z1 * z2 - z3**2})
    yield LeafwiseConnection(CHART, {("u", "z1"): high, ("u", "z2"): u**5}), section
    rng = random.Random(83)
    for _ in range(300):
        chart = randgen.bundle_chart(rng)
        a = randgen.leafwise_connection(rng, chart)
        yield (a if rng.random() < 0.8 else LeafwiseConnection(chart)), randgen.section(rng, chart)


def test_jet_and_covariant_differential_match_the_slot_oracle():
    for a, s in _oracle_cases():
        nabla = covariant_differential(a, s)
        jet = jet_prolongation(s)
        assert oracles.table_terms(nabla) == oracles.covariant_differential_by_slots(a, s)
        empty = LeafwiseConnection(s.chart)
        assert oracles.table_terms(jet) == oracles.covariant_differential_by_slots(empty, s)
        assert all(nabla.coefficients.values()) and all(jet.coefficients.values())


# The bundle operations check the types their signatures name, as the form
# operations do.
FULL = Connection(CHART, {("u", "z1"): u, ("u", "z3"): z1})
LEAFWISE = LeafwiseConnection(CHART, {("u", "z1"): u})


@pytest.mark.parametrize(
    "call",
    [
        lambda: connection_difference(FULL, LEAFWISE),
        lambda: translate_connection(LEAFWISE, FULL),
        lambda: restrict_connection(fc.Splitting(BASE, {("z1", "z3"): z2})),
        lambda: covariant_differential(LEAFWISE, "x"),
        lambda: covariant_differential(FULL, BundleSection(CHART, {"u": z1})),
        lambda: jet_prolongation(None),
    ],
    ids=[
        "difference-of-a-connection",
        "translate-by-a-connection",
        "restrict-a-splitting",
        "covariant-differential-of-a-string",
        "covariant-differential-by-a-connection",
        "jet-of-none",
    ],
)
def test_operand_types_are_checked(call):
    with pytest.raises(fc.ChartMismatchError, match=" needs a "):
        call()
