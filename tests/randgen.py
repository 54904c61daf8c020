"""Seeded random generators for charts, expressions, forms, connections, and
documents."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import folicalc as fc
from folicalc.charts import allowed_variables, base_chart


def rational(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def expression(rng, variables, max_degree=3, max_terms=3) -> fc.Expression:
    variables = tuple(variables)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        degree = rng.randint(0, max_degree) if variables else 0
        counts = Counter(rng.choice(variables) for _ in range(degree))
        key = tuple(sorted(counts.items()))
        terms[key] = terms.get(key, 0) + rational(rng)
    return fc.Expression(terms)


def adapted_chart(rng, max_leaf=4, max_dim=5) -> fc.AdaptedChart:
    dim_leaf = rng.randint(1, max_leaf)
    extra = rng.randint(0, max_dim - dim_leaf)
    names = tuple(f"z{i + 1}" for i in range(dim_leaf + extra))
    return fc.AdaptedChart(names[:dim_leaf], names[dim_leaf:])


def bundle_chart(rng, base=None, max_fibre=2, **chart_kwargs) -> fc.BundleChart:
    if base is None:
        base = adapted_chart(rng, **chart_kwargs)
    fibre = tuple(f"y{i + 1}" for i in range(rng.randint(1, max_fibre)))
    return fc.BundleChart(base, fibre)


def _form(rng, chart, kind, index_limit, degree, coeff_degree):
    if degree is None:
        degree = rng.randint(0, index_limit)
    variables = sorted(allowed_variables(chart))
    components = {}
    for index in itertools.combinations(range(index_limit), degree):
        if rng.random() < 0.75:
            components[index] = expression(rng, variables, coeff_degree)
    return kind(chart, degree, components)


def leafwise_form(rng, chart, degree=None, coeff_degree=3) -> fc.LeafwiseForm:
    return _form(rng, chart, fc.LeafwiseForm, chart.dim_leaf, degree, coeff_degree)


def exterior_form(rng, chart, degree=None, coeff_degree=3) -> fc.ExteriorForm:
    return _form(rng, chart, fc.ExteriorForm, chart.dim, degree, coeff_degree)


def _table(rng, chart, columns, variables, coeff_degree):
    return {
        (i, col): expression(rng, variables, coeff_degree)
        for i in range(chart.fibre_dim)
        for col in columns
        if rng.random() < 0.8
    }


def connection(rng, chart, coeff_degree=2, fibre_dependent=True) -> fc.Connection:
    variables = chart.all_coords if fibre_dependent else chart.base.coords
    table = _table(rng, chart, range(chart.dim), variables, coeff_degree)
    return fc.Connection(chart, table)


def leafwise_connection(
    rng, chart, coeff_degree=2, fibre_dependent=True
) -> fc.LeafwiseConnection:
    variables = chart.all_coords if fibre_dependent else chart.base.coords
    table = _table(rng, chart, range(chart.dim_leaf), variables, coeff_degree)
    return fc.LeafwiseConnection(chart, table)


def vertical_form(rng, chart, coeff_degree=2) -> fc.VerticalValuedLeafwiseForm:
    table = _table(rng, chart, range(chart.dim_leaf), chart.all_coords, coeff_degree)
    return fc.VerticalValuedLeafwiseForm(chart, table)


def splitting(rng, base, coeff_degree=2) -> fc.Splitting:
    table = {
        (leaf, trans): expression(rng, base.coords, coeff_degree)
        for leaf in range(base.dim_leaf)
        for trans in range(base.dim_leaf, base.dim)
        if rng.random() < 0.8
    }
    return fc.Splitting(base, table)


def triangular_map(rng, base, adapted=True, coeff_degree=2) -> list[fc.Expression]:
    # z'_i = z_i + f_i: f_i over the coordinates after z_i, so a transverse
    # f_i holds transverse ones only and the map is adapted; or, for
    # adapted=False, over the coordinates before z_i, leaf ones included.
    coords = base.coords
    return [
        fc.Expression.variable(name)
        + expression(rng, coords[i + 1:] if adapted else coords[:i], coeff_degree)
        for i, name in enumerate(coords)
    ]


def section(rng, chart, coeff_degree=3) -> fc.BundleSection:
    return fc.BundleSection(
        chart,
        [expression(rng, chart.base.coords, coeff_degree) for _ in range(chart.fibre_dim)],
    )


def transition(rng, chart, coeff_degree=2) -> fc.DeclaredTransition:
    # Base components over the base coordinates, some left the identity;
    # over a bundle, sometimes one fibre component per fibre coordinate.
    base = base_chart(chart)
    components = [
        expression(rng, base.coords, coeff_degree) if rng.random() < 0.5
        else fc.Expression.variable(coord)
        for coord in base.coords
    ]
    fibre = None
    if isinstance(chart, fc.BundleChart) and rng.random() < 0.5:
        variables = sorted(allowed_variables(chart))
        fibre = [expression(rng, variables, coeff_degree) for _ in chart.fibre_coords]
    return fc.DeclaredTransition(fc.TransitionMap(base, components), fibre)


def document(rng) -> fc.Document:
    # One object of each block kind the chart takes, in random order: all
    # seven over a bundle chart, and no connection or section over an
    # adapted chart.
    chart = bundle_chart(rng) if rng.random() < 0.5 else adapted_chart(rng)
    objects = [
        ("form", "phi", leafwise_form(rng, chart)),
        ("exterior_form", "sigma", exterior_form(rng, chart)),
        ("splitting", "B", splitting(rng, base_chart(chart))),
        ("transition", "t", transition(rng, chart)),
    ]
    if isinstance(chart, fc.BundleChart):
        objects += [
            ("connection", "Gamma", connection(rng, chart)),
            ("leafwise_connection", "A", leafwise_connection(rng, chart)),
            ("section", "s", section(rng, chart)),
        ]
    rng.shuffle(objects)
    return fc.Document(chart, [fc.DocumentObject(*obj) for obj in objects])


def point(rng, variables) -> dict[str, Fraction]:
    return {name: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for name in variables}
