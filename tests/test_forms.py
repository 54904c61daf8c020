"""Form algebras: wedge signs, both differentials, restriction, identities."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
from folicalc.forms import merge_indices

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


def test_merge_indices_matches_the_permutation_sign():
    # Every pair of strictly increasing tuples over 6 positions, the empty
    # tuple included: 64 x 64 pairs.
    increasing = [
        index for size in range(7) for index in itertools.combinations(range(6), size)
    ]
    assert len(increasing) == 64
    for left in increasing:
        for right in increasing:
            sign = oracles.permutation_sign(left + right)
            merged = tuple(sorted(left + right)) if sign else None
            assert merge_indices(left, right) == (merged, sign)


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


# -- changes of chart ----------------------------------------------------------------
#
# A transition of the 2+2 chart below pulls a form back by the chain rule
# (oracles.pullback), a route through none of the differentials' or the
# wedge's own code.  d and the wedge commute with every pullback, and the
# leafwise differential with the leaf-block pullback of an adapted
# transition, whose transverse components do not mention the leaf
# coordinates.

CHART_2_2 = AdaptedChart(("z1", "z2"), ("z3", "z4"))
chart_seeds = st.randoms(use_true_random=False)


def _adapted_transition(rng):
    # Leaf components over every coordinate; each transverse one its own
    # coordinate plus a polynomial in the transverse coordinates.
    leaf = [randgen.expression(rng, CHART_2_2.coords, 2) for _ in CHART_2_2.leaf_coords]
    transverse = [
        Expression.variable(name) + randgen.expression(rng, CHART_2_2.transverse_coords, 2)
        for name in CHART_2_2.transverse_coords
    ]
    return leaf + transverse


def test_transitions_drawn_are_adapted():
    rng = random.Random(67)
    for _ in range(50):
        transition = fc.TransitionMap(CHART_2_2, _adapted_transition(rng))
        assert fc.check_adapted_transition(transition, CHART_2_2)


@settings(max_examples=200, deadline=None)
@given(chart_seeds)
def test_exterior_differential_commutes_with_pullback(rng):
    phi = _adapted_transition(rng)
    for degree in range(4):
        omega = randgen.exterior_form(rng, CHART_2_2, degree, coeff_degree=2)
        assert exterior_differential(oracles.pullback(omega, phi)) == oracles.pullback(
            exterior_differential(omega), phi
        )


@settings(max_examples=200, deadline=None)
@given(chart_seeds)
def test_leafwise_differential_commutes_with_adapted_pullback(rng):
    phi = _adapted_transition(rng)
    for degree in range(3):
        omega = randgen.leafwise_form(rng, CHART_2_2, degree, coeff_degree=2)
        assert leafwise_differential(oracles.pullback(omega, phi)) == oracles.pullback(
            leafwise_differential(omega), phi
        )


@settings(max_examples=200, deadline=None)
@given(chart_seeds)
def test_pullback_is_multiplicative(rng):
    phi = _adapted_transition(rng)
    for form in (randgen.exterior_form, randgen.leafwise_form):
        a = form(rng, CHART_2_2, coeff_degree=2)
        b = form(rng, CHART_2_2, coeff_degree=2)
        assert oracles.pullback(wedge(a, b), phi) == wedge(
            oracles.pullback(a, phi), oracles.pullback(b, phi)
        )


@settings(max_examples=200, deadline=None)
@given(chart_seeds)
def test_restriction_commutes_with_adapted_pullback(rng):
    # restrict(phi* w) = phi*_leaf(restrict w): a transverse dz pulls back to
    # transverse dz only, and a leaf one restricts to its leaf-block row.
    phi = _adapted_transition(rng)
    for degree in range(4):
        omega = randgen.exterior_form(rng, CHART_2_2, degree, coeff_degree=2)
        assert restrict_form(oracles.pullback(omega, phi)) == oracles.pullback(
            restrict_form(omega), phi
        )


def _pull(f, phi):
    return f.substitute(dict(zip(CHART_2_2.coords, phi)))


@settings(max_examples=200, deadline=None)
@given(chart_seeds)
@example(random.Random(24))  # catches a predicate that ignores z1
def test_foliated_functions_stay_foliated_under_adapted_pullback(rng):
    phi = _adapted_transition(rng)
    for variables in (CHART_2_2.transverse_coords, ("z1", "z3", "z4"), CHART_2_2.coords):
        f = randgen.expression(rng, variables, 2)
        if fc.is_foliated_function(f, CHART_2_2):
            assert fc.is_foliated_function(_pull(f, phi), CHART_2_2)


@settings(max_examples=200, deadline=None)
@given(chart_seeds)
def test_composites_of_adapted_transitions_are_adapted(rng):
    phi, psi = _adapted_transition(rng), _adapted_transition(rng)
    composite = fc.TransitionMap(CHART_2_2, [_pull(component, phi) for component in psi])
    assert fc.check_adapted_transition(composite, CHART_2_2)


def test_a_transition_that_moves_leaves_breaks_the_leafwise_identity():
    # The control: z3 -> z3 + z1 mixes a leaf coordinate into a transverse
    # one, so the leaf-block pullback no longer commutes with d~.  The
    # function z3 shows it at once: d~(z3 + z1) = ~dz1, but d~z3 = 0.
    phi = [z1, z2, z3 + z1, Expression.variable("z4")]
    f = LeafwiseForm.from_function(CHART_2_2, z3)
    assert leafwise_differential(oracles.pullback(f, phi)) == LeafwiseForm(
        CHART_2_2, 1, {("z1",): one}
    )
    assert oracles.pullback(leafwise_differential(f), phi).is_zero()
    rng = random.Random(71)
    broken = 0
    for _ in range(200):
        phi = _adapted_transition(rng)
        phi[2] = phi[2] + z1
        omega = randgen.leafwise_form(rng, CHART_2_2, rng.randint(0, 2), coeff_degree=2)
        broken += leafwise_differential(oracles.pullback(omega, phi)) != oracles.pullback(
            leafwise_differential(omega), phi
        )
    assert broken > 0


# -- printing ---------------------------------------------------------------------


def test_form_printing():
    assert str(lf(1, {("z1",): z3})) == "z3 ~dz1"
    assert str(ef(2, {("z1", "z3"): Expression.constant(-1)})) == "-dz1^dz3"
    assert str(lf(1, {("z1",): z1 + z2})) == "(z1 + z2) ~dz1"
    assert str(LeafwiseForm.zero(CHART, 2)) == "0"
    assert str(LeafwiseForm.from_function(CHART, z1 * z3)) == "z1*z3"
    # The first component carries its own sign; each later one is joined by
    # " + " or " - ", a sum in parentheses before its basis.
    assert str(ef(1, {("z1",): z1, ("z2",): -2 * z2, ("z3",): z1 + 1})) == (
        "z1 dz1 - 2*z2 dz2 + (z1 + 1) dz3"
    )
    assert str(ef(2, {("z1", "z2"): -1, ("z1", "z3"): 1, ("z2", "z3"): -z1 - z2})) == (
        "-dz1^dz2 + dz1^dz3 + (-z1 - z2) dz2^dz3"
    )
    assert str(lf(1, {("z1",): -1, ("z2",): 3})) == "-~dz1 + 3 ~dz2"


def test_component_reads_a_stored_coefficient_and_zero_elsewhere():
    form = lf(1, {("z2",): 3 * z1})
    assert form.component(("z2",)) == 3 * z1
    assert form.component((1,)) == 3 * z1
    assert form.component(("z1",)) == Expression.zero()
