"""Form algebras: wedge signs, both differentials, restriction, identities."""

from __future__ import annotations

import random

import pytest

import folicalc as fc
from folicalc import (
    AdaptedChart,
    Expression,
    ExteriorForm,
    LeafwiseForm,
    exterior_differential,
    leafwise_differential,
    restrict_form,
    wedge,
)

import oracles
import randgen

z1 = Expression.variable("z1")
z2 = Expression.variable("z2")
z3 = Expression.variable("z3")
one = Expression.one()

CHART = AdaptedChart(("z1", "z2"), ("z3",))


def lf(degree, components):
    return LeafwiseForm(CHART, degree, components)


def ef(degree, components):
    return ExteriorForm(CHART, degree, components)


# -- construction and addition ---------------------------------------------------


def test_zero_components_dropped():
    assert lf(1, {("z1",): Expression.zero()}) == lf(1, {})


@pytest.mark.parametrize("bad", [0.1, True])
def test_inexact_scalar_components_rejected(bad):
    with pytest.raises(fc.InputError):
        lf(0, {(): bad})
    with pytest.raises(fc.InputError):
        ef(1, {("z3",): bad})


def test_add_identity():
    omega = lf(1, {("z1",): z2})
    assert omega + LeafwiseForm.zero(CHART, 1) == omega


def test_add_cancels():
    omega = lf(1, {("z1",): z1})
    assert (omega + (-omega)).is_zero()


def test_add_disjoint_indices():
    total = lf(1, {("z1",): one}) + lf(1, {("z2",): one})
    assert total == lf(1, {("z1",): one, ("z2",): one})


def test_add_degree_mismatch():
    with pytest.raises(fc.ChartMismatchError):
        lf(1, {("z1",): one}) + lf(0, {(): one})


def test_add_kind_mismatch():
    with pytest.raises(fc.ChartMismatchError):
        fc.form_add(lf(1, {("z1",): one}), ef(1, {("z1",): one}))


def test_add_chart_mismatch():
    other = AdaptedChart(("z1", "z2"), ())
    with pytest.raises(fc.ChartMismatchError):
        lf(1, {("z1",): one}) + LeafwiseForm(other, 1, {("z1",): one})


@pytest.mark.parametrize("operation", [fc.wedge, fc.form_add])
def test_non_form_operands_rejected(operation):
    form = lf(1, {("z1",): one})
    for a, b in (("x", "y"), (form, "y"), ("x", form), (z1, z1)):
        with pytest.raises(fc.ChartMismatchError):
            operation(a, b)


def test_invalid_indices_rejected():
    with pytest.raises(fc.InputError):
        lf(1, {("z3",): one})  # transverse index on a leafwise form
    with pytest.raises(fc.InputError):
        ef(2, {("z3", "z1"): one})  # not strictly increasing
    with pytest.raises(fc.InputError):
        lf(1, {("q",): one})  # unknown coordinate


# -- wedge -----------------------------------------------------------------------


def test_wedge_repeated_index_vanishes():
    dz1 = lf(1, {("z1",): one})
    assert wedge(dz1, dz1).is_zero()


def test_wedge_antisymmetry_sign():
    dz1 = lf(1, {("z1",): one})
    dz2 = lf(1, {("z2",): one})
    assert wedge(dz2, dz1) == -wedge(dz1, dz2)
    assert wedge(dz1, dz2) == lf(2, {("z1", "z2"): one})


def test_wedge_bilinear_merge():
    a = lf(1, {("z1",): z1})
    b = lf(1, {("z2",): z2})
    assert wedge(a, b) == lf(2, {("z1", "z2"): z1 * z2})


def test_wedge_graded_commutativity():
    rng = random.Random(31)
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        for make in (randgen.leafwise_form, randgen.exterior_form):
            a = make(rng, chart)
            b = make(rng, chart)
            flipped = wedge(b, a)
            if (a.degree * b.degree) % 2:
                flipped = -flipped
            assert wedge(a, b) == flipped


def test_wedge_matches_shuffle_oracle():
    rng = random.Random(37)
    for _ in range(150):
        chart = randgen.adapted_chart(rng)
        a = randgen.exterior_form(rng, chart)
        b = randgen.exterior_form(rng, chart)
        assert wedge(a, b) == oracles.wedge_by_shuffles(a, b)


# -- differentials -----------------------------------------------------------------


def test_leafwise_differential_of_function():
    phi = LeafwiseForm.from_function(CHART, z1 * z3)
    assert leafwise_differential(phi) == lf(1, {("z1",): z3})


def test_leafwise_differential_sign():
    phi = lf(1, {("z1",): z2})
    assert leafwise_differential(phi) == lf(2, {("z1", "z2"): Expression.constant(-1)})


def test_leafwise_differential_top_degree_vanishes():
    top = lf(2, {("z1", "z2"): z1 * z2 * z3})
    result = leafwise_differential(top)
    assert result.is_zero()
    assert result.degree == 3


def test_exterior_differential_of_function():
    f = ExteriorForm.from_function(CHART, z1 * z3)
    assert exterior_differential(f) == ef(1, {("z1",): z3, ("z3",): z1})


def test_exterior_differential_sign():
    omega = ef(1, {("z1",): z3})
    assert exterior_differential(omega) == ef(2, {("z1", "z3"): Expression.constant(-1)})


def test_exterior_differential_of_constant():
    assert exterior_differential(ExteriorForm.from_function(CHART, 3)).is_zero()


def test_differentials_square_to_zero():
    rng = random.Random(41)
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        phi = randgen.leafwise_form(rng, chart)
        assert leafwise_differential(leafwise_differential(phi)).is_zero()
        omega = randgen.exterior_form(rng, chart)
        assert exterior_differential(exterior_differential(omega)).is_zero()


def test_graded_leibniz_rule():
    rng = random.Random(43)
    cases = (
        (randgen.leafwise_form, leafwise_differential),
        (randgen.exterior_form, exterior_differential),
    )
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        for make, differential in cases:
            a = make(rng, chart, coeff_degree=2)
            b = make(rng, chart, coeff_degree=2)
            signed = wedge(a, differential(b))
            if a.degree % 2:
                signed = -signed
            assert differential(wedge(a, b)) == wedge(differential(a), b) + signed


def test_differentials_match_the_slot_oracle():
    rng = random.Random(67)
    for _ in range(150):
        chart = randgen.adapted_chart(rng)
        for form, differential in (
            (randgen.leafwise_form(rng, chart), leafwise_differential),
            (randgen.exterior_form(rng, chart), exterior_differential),
        ):
            terms = {index: dict(c.terms) for index, c in differential(form).components.items()}
            assert terms == oracles.differential_by_slots(form)


def test_differential_builds_only_the_partials_it_needs(monkeypatch):
    # A partial is built only along a coordinate the coefficient holds and
    # its index lacks: one per component here, none for z1 dz1 or z2 dz1^dz2.
    chart = AdaptedChart(("z1", "z2"), ("z3", "z4"))
    z4 = Expression.variable("z4")
    omega = ExteriorForm(
        chart, 1, {("z1",): z3**2, ("z2",): z1 * z2, ("z3",): z4 - 1, ("z4",): z2}
    )
    sigma = ExteriorForm(chart, 2, {("z1", "z2"): z2**3, ("z3", "z4"): z1})
    calls = []
    real = Expression.partial

    def counted(self, variable):
        calls.append(variable)
        return real(self, variable)

    monkeypatch.setattr(Expression, "partial", counted)
    exterior_differential(omega)
    assert sorted(calls) == ["z1", "z2", "z3", "z4"]
    calls.clear()
    exterior_differential(sigma)
    assert calls == ["z1"]


# -- restriction ---------------------------------------------------------------------


def test_restrict_basis_covectors():
    assert restrict_form(ef(1, {("z1",): one})) == lf(1, {("z1",): one})
    assert restrict_form(ef(1, {("z3",): one})).is_zero()


def test_restrict_componentwise():
    omega = ef(1, {("z1",): z3, ("z3",): one})
    assert restrict_form(omega) == lf(1, {("z1",): z3})


def test_restrict_commutes_with_differential():
    rng = random.Random(47)
    for _ in range(150):
        chart = randgen.adapted_chart(rng)
        omega = randgen.exterior_form(rng, chart)
        assert restrict_form(exterior_differential(omega)) == leafwise_differential(
            restrict_form(omega)
        )


def test_restrict_is_an_algebra_morphism():
    rng = random.Random(53)
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        a = randgen.exterior_form(rng, chart)
        b = randgen.exterior_form(rng, chart)
        assert restrict_form(wedge(a, b)) == wedge(restrict_form(a), restrict_form(b))


def test_restrict_is_surjective_by_relabelling():
    rng = random.Random(59)
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        phi = randgen.leafwise_form(rng, chart)
        preimage = fc.ExteriorForm(chart, phi.degree, phi.components)
        assert restrict_form(preimage) == phi


def test_leafwise_kernel_is_foliated_functions():
    rng = random.Random(61)
    for _ in range(100):
        chart = randgen.adapted_chart(rng)
        f = randgen.expression(rng, chart.coords)
        phi = LeafwiseForm.from_function(chart, f)
        assert leafwise_differential(phi).is_zero() == fc.is_foliated_function(f, chart)


# -- printing ---------------------------------------------------------------------


def test_form_printing():
    assert str(lf(1, {("z1",): z3})) == "z3 ~dz1"
    assert str(ef(2, {("z1", "z3"): Expression.constant(-1)})) == "-dz1^dz3"
    assert str(lf(1, {("z1",): z1 + z2})) == "(z1 + z2) ~dz1"
    assert str(LeafwiseForm.zero(CHART, 2)) == "0"
    assert str(LeafwiseForm.from_function(CHART, z1 * z3)) == "z1*z3"
