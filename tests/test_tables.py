"""Coefficient tables: exact positions, readers, and the unchecked build path."""

from __future__ import annotations

import random

import pytest

import folicalc as fc
from folicalc import AdaptedChart, BundleChart, Expression
from folicalc.expr import _add_into

import randgen

BASE = AdaptedChart(("z1", "z2"), ("z3",))
CHART = BundleChart(BASE, ("u",))
z1 = Expression.variable("z1")


@pytest.mark.parametrize(
    "build",
    [
        lambda: fc.Connection(CHART, {(0.7, 0): z1}),
        lambda: fc.Connection(CHART, {(0, True): z1}),
        lambda: fc.Connection(CHART, {None: z1}),
        lambda: fc.Connection(CHART, {(0, 0, 0): z1}),
        lambda: fc.LeafwiseConnection(CHART, {(0, 1.0): z1}),
        lambda: fc.Splitting(BASE, {(0, None): z1}),
        lambda: fc.SolderingForm(CHART, {(False, 2): z1}),
        lambda: fc.LeafwiseForm(CHART, 1, {(0.9,): z1}),
        lambda: fc.LeafwiseForm(CHART, True, {(0,): z1}),
        lambda: fc.LeafwiseForm(CHART, 1, {None: z1}),
        lambda: fc.ExteriorForm(CHART, 1, {(True,): z1}),
        lambda: fc.ExteriorForm(CHART, 1.0),
        lambda: fc.BundleSection(CHART, {0.5: z1}),
        lambda: fc.BundleSection(CHART, {None: z1}),
    ],
)
def test_positions_are_exact_ints(build):
    with pytest.raises(fc.InputError):
        build()


z2 = Expression.variable("z2")


# One slot given once by name and once by position; a zero value must not
# hide the repeat.
@pytest.mark.parametrize(
    "build",
    [
        lambda: fc.BundleSection(CHART, {"u": z1, 0: z2}),
        lambda: fc.Connection(CHART, {("u", "z1"): 0, (0, 0): z1}),
        lambda: fc.LeafwiseForm(CHART, 1, {("z1",): 0, (0,): z1}),
    ],
)
def test_duplicate_entries_are_rejected(build):
    with pytest.raises(fc.InputError, match="duplicate"):
        build()


@pytest.mark.parametrize(
    "read",
    [
        lambda: fc.Splitting(BASE).coefficient("zz", "z3"),
        lambda: fc.Splitting(BASE).coefficient("z1", "z1"),
        lambda: fc.Splitting(BASE).coefficient(0, 0),
        lambda: fc.Connection(CHART).coefficient(5, 9),
        lambda: fc.Connection(CHART).coefficient("u", 0.0),
        lambda: fc.LeafwiseConnection(CHART).coefficient("u", "z3"),
        lambda: fc.VerticalValuedLeafwiseForm(CHART).row(1),
        lambda: fc.SolderingForm(CHART).row("w"),
        lambda: fc.BundleSection(CHART, [z1]).component(3),
        lambda: fc.BundleSection(CHART, [z1]).component("w"),
        lambda: fc.LeafwiseForm(CHART, 1).component((1.0,)),
    ],
)
def test_readers_raise_input_error(read):
    with pytest.raises(fc.InputError):
        read()


def _revalidated(value):
    if isinstance(value, (fc.LeafwiseForm, fc.ExteriorForm)):
        return type(value)(value.chart, value.degree, value.components)
    return type(value)(value.chart, value.coefficients)


def _results(rng):
    chart = randgen.bundle_chart(rng, max_fibre=2, max_leaf=3, max_dim=4)
    base = chart.base
    alpha = randgen.leafwise_form(rng, chart, coeff_degree=2)
    beta = randgen.leafwise_form(rng, chart, degree=alpha.degree, coeff_degree=2)
    sigma = randgen.exterior_form(rng, chart, coeff_degree=2)
    tau = randgen.exterior_form(rng, chart, coeff_degree=2)
    a = randgen.leafwise_connection(rng, chart)
    b = randgen.leafwise_connection(rng, chart)
    gamma = randgen.connection(rng, chart)
    shift = randgen.vertical_form(rng, chart)
    section = randgen.section(rng, chart)
    split_one = randgen.splitting(rng, base)
    split_two = randgen.splitting(rng, base)
    soldering = fc.apply_splitting(split_one, fc.connection_difference(a, b))
    jet = fc.connection_as_jet_section(a)
    yield from (
        fc.wedge(alpha, beta),
        fc.wedge(sigma, tau),
        fc.leafwise_differential(alpha),
        fc.exterior_differential(sigma),
        fc.restrict_form(sigma),
        fc.form_add(alpha, beta),
        fc.form_add(alpha, -alpha),
        -sigma,
        fc.restrict_connection(gamma),
        fc.connection_difference(a, b),
        fc.connection_difference(a, a),
        fc.translate_connection(a, shift),
        fc.translate_connection(a, fc.connection_difference(b, a)),
        fc.jet_prolongation(section),
        fc.covariant_differential(a, section),
        jet,
        fc.jet_section_as_connection(jet),
        soldering,
        soldering.row(0),
        shift.row(0),
        fc.extend_connection(a, gamma, split_one),
        fc.extend_connection(a, None, split_two),
        fc.extension_dependence(a, gamma, split_one, split_two),
        fc.extension_dependence(a, gamma, split_one, split_one),
    )
    objects = (
        fc.DocumentObject("form", "alpha", alpha),
        fc.DocumentObject("exterior_form", "sigma", sigma),
        fc.DocumentObject("connection", "G", gamma),
        fc.DocumentObject("leafwise_connection", "A", a),
        fc.DocumentObject("splitting", "B", split_one),
    )
    text = fc.print_document(fc.Document(chart, objects))
    yield from (obj.value for obj in fc.parse_document(text).objects)


def test_unchecked_results_equal_their_revalidation():
    # Every result built without the constructor's checks must be one the
    # constructor accepts unchanged: valid keys, allowed variables and no
    # zero entries.
    rng = random.Random(20)
    for _ in range(60):
        for result in _results(rng):
            assert _revalidated(result) == result, repr(result)


q = Expression.variable("q")
u = Expression.variable("u")


# (constructor call, the key it must report, the part of that key at fault)
# for a bad row, a bad column, a non-increasing index, a wrong length, a
# repeat and a bad variable.
ENTRY_ERRORS = [
    (lambda: fc.Connection(CHART, {("u", "z1"): z1, ("w", "z1"): z2}), ("w", "z1"), 0),
    (lambda: fc.Connection(CHART, {("u", "zz"): z1}), ("u", "zz"), 1),
    (lambda: fc.Connection(CHART, {("u",): z1}), ("u",), None),
    (lambda: fc.Connection(CHART, {("u", "z1"): z1, (0, 0): z2}), (0, 0), None),
    (lambda: fc.Connection(CHART, {("u", "z3"): q}), ("u", "z3"), "value"),
    (lambda: fc.Connection(CHART, {("u", "z3"): 0.5}), ("u", "z3"), "value"),
    (lambda: fc.Splitting(BASE, {("z3", "z3"): z1}), ("z3", "z3"), 0),
    (lambda: fc.Splitting(BASE, {("z1", "z2"): z1}), ("z1", "z2"), 1),
    (lambda: fc.Splitting(BASE, {("z1", "z3", "z3"): z1}), ("z1", "z3", "z3"), None),
    (lambda: fc.Splitting(BASE, {("z1", "z3"): 0, (0, 2): z1}), (0, 2), None),
    (lambda: fc.Splitting(BASE, {("z1", "z3"): u}), ("z1", "z3"), "value"),
    (lambda: fc.LeafwiseForm(CHART, 1, {("z3",): z1}), ("z3",), 0),
    (lambda: fc.LeafwiseForm(CHART, 2, {("z1", 7): z1}), ("z1", 7), 1),
    (lambda: fc.LeafwiseForm(CHART, 2, {("z2", "z1"): z1}), ("z2", "z1"), 0),
    (lambda: fc.LeafwiseForm(CHART, 2, {("z1",): z1}), ("z1",), None),
    (lambda: fc.LeafwiseForm(CHART, 1, {"z1": z1}), "z1", None),
    (lambda: fc.LeafwiseForm(CHART, 1, {("z1",): 0, (0,): z1}), (0,), None),
    (lambda: fc.LeafwiseForm(CHART, 0, {(): q}), (), "value"),
    (lambda: fc.ExteriorForm(CHART, 1, {("u",): z1}), ("u",), 0),
    (lambda: fc.ExteriorForm(CHART, 2, {("z1", "q"): z1}), ("z1", "q"), 1),
    (lambda: fc.ExteriorForm(CHART, 2, {("z3", "z3"): z1}), ("z3", "z3"), 0),
    (lambda: fc.ExteriorForm(CHART, 1, {("z1", "z3"): z1}), ("z1", "z3"), None),
    (lambda: fc.ExteriorForm(CHART, 1, {("z3",): z1, (2,): z2}), (2,), None),
    (lambda: fc.ExteriorForm(CHART, 1, {("z3",): q}), ("z3",), "value"),
    (lambda: fc.BundleSection(CHART, {"w": z1}), "w", 0),
    (lambda: fc.BundleSection(CHART, {3: z1}), 3, 0),
    (lambda: fc.BundleSection(CHART, {"u": z1, 0: z2}), 0, None),
    (lambda: fc.BundleSection(CHART, {"u": u}), "u", "value"),
    (lambda: fc.BundleSection(CHART, [q]), 0, "value"),
]


@pytest.mark.parametrize("build, entry, part", ENTRY_ERRORS)
def test_constructor_errors_name_the_entry_and_part(build, entry, part):
    with pytest.raises(fc.InputError) as info:
        build()
    assert (info.value.entry, info.value.part) == (entry, part)


def test_variable_errors_name_the_coefficient():
    with pytest.raises(fc.InputError) as info:
        fc.LeafwiseConnection(CHART, {("u", "z1"): q})
    assert str(info.value) == "variable 'q' is not available in a connection coefficient"


@pytest.mark.parametrize("index", [("z3", "z1"), (2, 0), ("z1", "z1")])
def test_component_rejects_a_non_increasing_multi_index(index):
    with pytest.raises(fc.InputError, match="strictly increasing"):
        fc.ExteriorForm(CHART, 2).component(index)


def test_add_into_subtracts_int_numerators_in_place():
    acc = {"kept": 5, "cancelled": 3}
    entries = {"kept": 2, "cancelled": 3, "new": 4}
    assert _add_into(acc, entries, negate=True) is acc
    assert acc == {"kept": 3, "new": -4}
    assert entries == {"kept": 2, "cancelled": 3, "new": 4}


def test_add_into_negates_only_the_entries_it_stores(monkeypatch):
    # A key already held is subtracted from, not added to a negated copy:
    # Expression.__neg__ runs once, for the one new key.
    z2, z3 = Expression.variable("z2"), Expression.variable("z3")
    acc = {"kept": z2 + 1, "cancelled": z1}
    entries = {"kept": z2, "cancelled": z1, "new": z3}
    negated = []
    real_neg = Expression.__neg__

    def counted(value):
        negated.append(value)
        return real_neg(value)

    monkeypatch.setattr(Expression, "__neg__", counted)
    _add_into(acc, entries, negate=True)
    assert negated == [z3]
    assert acc == {"kept": Expression.one(), "new": real_neg(z3)}
    assert entries == {"kept": z2, "cancelled": z1, "new": z3}
