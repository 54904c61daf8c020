"""Chart bookkeeping and the adaptedness / foliated-function predicates."""

from __future__ import annotations

import random

import pytest

import folicalc as fc
from folicalc import AdaptedChart, BundleChart, Expression, TransitionMap

import randgen

z1 = Expression.variable("z1")
z2 = Expression.variable("z2")
z3 = Expression.variable("z3")

CHART = AdaptedChart(("z1", "z2"), ("z3",))


def test_chart_layout():
    assert CHART.coords == ("z1", "z2", "z3")
    assert CHART.dim == 3
    assert CHART.dim_leaf == 2
    assert CHART.position("z3") == 2


def test_chart_validation():
    with pytest.raises(fc.InputError):
        AdaptedChart((), ("z1",))
    with pytest.raises(fc.InputError):
        AdaptedChart(("z1", "z1"))
    with pytest.raises(fc.InputError):
        BundleChart(CHART, ("z1",))
    with pytest.raises(fc.InputError):
        BundleChart(CHART, ())


def test_identity_transition_is_adapted():
    rng = random.Random(5)
    for _ in range(50):
        chart = randgen.adapted_chart(rng)
        assert fc.check_adapted_transition(TransitionMap.identity(chart), chart)


def test_adapted_transition_example():
    components = (z1 + z3, z2, z3 + 1)
    assert fc.check_adapted_transition(TransitionMap(CHART, components), CHART)


def test_non_adapted_transition_detected():
    components = (z1, z2, z3 + z1)
    assert not fc.check_adapted_transition(TransitionMap(CHART, components), CHART)


def test_transition_unknown_variable_is_input_error():
    components = (Expression.variable("q"), z2, z3)
    with pytest.raises(fc.InputError):
        fc.check_adapted_transition(TransitionMap(CHART, components), CHART)


def test_transition_component_count_checked():
    with pytest.raises(fc.InputError):
        TransitionMap(CHART, (z1, z2))


def test_foliated_bundle_transition():
    chart = BundleChart(CHART, ("y1",))
    y1 = Expression.variable("y1")
    assert fc.check_foliated_bundle_transition([y1], chart)
    assert fc.check_foliated_bundle_transition([z3 * y1], chart)
    assert not fc.check_foliated_bundle_transition([z1 * y1], chart)
    with pytest.raises(fc.InputError):
        fc.check_foliated_bundle_transition([Expression.variable("q")], chart)
    with pytest.raises(fc.InputError):
        fc.check_foliated_bundle_transition([y1, y1], chart)


def test_foliated_function_examples():
    assert fc.is_foliated_function(z3**2, CHART)
    assert not fc.is_foliated_function(z1, CHART)
    assert fc.is_foliated_function(Expression.constant(4), CHART)


def test_foliated_function_rejects_unknown_variable():
    with pytest.raises(fc.InputError):
        fc.is_foliated_function(Expression.variable("y1"), CHART)


def test_foliated_functions_form_a_subring():
    # Random polynomials in transverse coordinates only are foliated, and the
    # predicate is closed under sum and product.
    rng = random.Random(23)
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        f = randgen.expression(rng, chart.transverse_coords)
        g = randgen.expression(rng, chart.transverse_coords)
        assert fc.is_foliated_function(f, chart)
        assert fc.is_foliated_function(g, chart)
        assert fc.is_foliated_function(f + g, chart)
        assert fc.is_foliated_function(f * g, chart)


def test_foliated_function_agrees_with_leaf_partials():
    # The predicate reads which variables f holds; the oracle builds every
    # leaf partial.
    rng = random.Random(29)
    for _ in range(200):
        chart = randgen.adapted_chart(rng)
        f = randgen.expression(rng, chart.coords)
        expected = all(f.partial(leaf).is_zero() for leaf in chart.leaf_coords)
        assert fc.is_foliated_function(f, chart) == expected


def test_foliation_predicates_build_no_partial(monkeypatch):
    y1 = Expression.variable("y1")
    bundle = BundleChart(CHART, ("y1",))
    calls = []
    real = Expression.partial

    def counted(self, variable):
        calls.append(variable)
        return real(self, variable)

    monkeypatch.setattr(Expression, "partial", counted)
    assert fc.is_foliated_function(z3**2 + 1, CHART)
    assert not fc.is_foliated_function(z1 * z3, CHART)
    assert fc.check_adapted_transition(TransitionMap(CHART, (z1 + z3, z2, z3 + 1)), CHART)
    assert not fc.check_adapted_transition(TransitionMap(CHART, (z1, z2, z3 + z2**2)), CHART)
    assert fc.check_foliated_bundle_transition([z3 * y1], bundle)
    assert not fc.check_foliated_bundle_transition([z1 * y1], bundle)
    assert calls == []


@pytest.mark.parametrize("target", [
    AdaptedChart(("z1",), ("z2",)),
    AdaptedChart(("z1",), ("z2", "z3")),
], ids=["fewer-coordinates", "fewer-leaf-coordinates"])
def test_adapted_check_refuses_charts_of_other_dimensions(target):
    transition = TransitionMap(target, [Expression.variable(n) for n in target.coords])
    with pytest.raises(fc.ChartMismatchError, match="^transition charts disagree on dimensions$"):
        fc.check_adapted_transition(transition, CHART)
