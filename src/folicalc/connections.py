"""Coefficient tables over a chart, and sections of the bundle.

Connections, leafwise connections, leafwise jet points and vertical-valued
leafwise one-forms (here), and splittings and soldering forms (in
extension.py) are one kind of data: a sparse table of polynomial
coefficients keyed by (row position, column position), in which missing
entries read as zero.  A table type declares only the chart it lives over
and the kind of each axis:

- rows run over the fibre coordinates or the leaf coordinates;
- columns run over every base coordinate, the leaf block or the transverse
  block, always stored at absolute base positions (leaf block first).

A row or column entry is a name or an int position.  One resolver,
`_position`, checks it for the constructors, `coefficient()` and the DSL.
Coefficients over a bundle chart may mention fibre variables (connections
need not be linear); section components may not.  Operations inside the
package build their results with the unchecked `_build`.
"""

from __future__ import annotations

from typing import Mapping

from .charts import (
    BundleChart,
    Chart,
    _check_component_variables,
    allowed_variables,
    base_chart,
)
from .errors import ChartMismatchError, InputError
from .expr import Expression, _add_into, _as_expression, _is_int
from .forms import LeafwiseForm


def _axis(chart: Chart, kind: str) -> tuple[tuple[str, ...], int, int]:
    # The names an entry of this kind is looked up in, and the half-open
    # range of positions it may take among them.
    if kind == "fibre":
        return chart.fibre_coords, 0, chart.fibre_dim
    base = base_chart(chart)
    start = base.dim_leaf if kind == "transverse" else 0
    stop = base.dim_leaf if kind == "leaf" else base.dim
    return base.coords, start, stop


def _position(chart: Chart, kind: str, entry) -> int:
    """Position of a table row or column entry, or of a section's fibre,
    given by name or as an int.  kind is 'fibre', 'coordinate' (any base
    coordinate), 'leaf' or 'transverse'."""
    names, start, stop = _axis(chart, kind)
    if isinstance(entry, str):
        if entry not in names:
            prefix = "fibre " if kind == "fibre" else ""
            raise InputError(f"unknown {prefix}coordinate {entry!r}")
        position = names.index(entry)
        if not start <= position < stop:
            raise InputError(f"{entry!r} is not a {kind} coordinate")
        return position
    if not _is_int(entry):
        raise InputError(f"a {kind} position is a name or an int, not {type(entry).__name__}")
    if not start <= entry < stop:
        raise InputError(f"{kind} index {entry} out of range")
    return entry


class _CoefficientTable:
    """Sparse (row, column)-keyed coefficient table; see the module docstring.

    Subclasses set _axes to the kinds of their rows and columns, _chart_type
    to the chart they live over, and _symbol to the name repr prints when
    that is not the type name.
    """

    __slots__ = ("chart", "coefficients")

    _axes: tuple[str, str]
    _chart_type: type = BundleChart
    _symbol: str | None = None

    def __init__(self, chart: Chart, coefficients: Mapping | None = None):
        what = type(self).__name__
        if not isinstance(chart, self._chart_type):
            kind = self._chart_type.__name__
            raise InputError(f"{what} needs {'an' if kind[0] in 'AEIOU' else 'a'} {kind}")
        self.chart = chart
        allowed = allowed_variables(chart)
        table: dict[tuple[int, int], Expression] = {}
        for key, value in (coefficients or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise InputError(f"{what} keys are (row, column) pairs, not {key!r}")
            key = self._key(*key)
            if key in table:
                raise InputError(f"duplicate entry {key} in {what}")
            expr = _as_expression(value)
            _check_component_variables(expr, allowed, f"{what} coefficient")
            if not expr.is_zero():
                table[key] = expr
        self.coefficients = table

    @classmethod
    def _build(cls, chart: Chart, coefficients: dict[tuple[int, int], Expression]):
        # The internal constructor: keys are valid positions, values nonzero
        # coefficients over the chart's variables, and the dict is not shared
        # with anyone else.
        table = object.__new__(cls)
        table.chart = chart
        table.coefficients = coefficients
        return table

    def _key(self, row, col) -> tuple[int, int]:
        rows, cols = self._axes
        return _position(self.chart, rows, row), _position(self.chart, cols, col)

    def _row(self, row) -> dict[tuple[int], Expression]:
        # One row's entries keyed by 1-tuples of their column: the components
        # of a degree-1 form.
        row = _position(self.chart, self._axes[0], row)
        return {(col,): expr for (r, col), expr in self.coefficients.items() if r == row}

    def coefficient(self, row, col) -> Expression:
        return self.coefficients.get(self._key(row, col), Expression.zero())

    def is_zero(self) -> bool:
        return not self.coefficients

    def assignment_lines(self, name: str) -> list[str]:
        rows, cols = (_axis(self.chart, kind)[0] for kind in self._axes)
        return [
            f"{name}[{rows[row]}][{cols[col]}] = {self.coefficients[(row, col)]}"
            for row, col in sorted(self.coefficients)
        ]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and self.coefficients == other.coefficients
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(self.assignment_lines(self._symbol or type(self).__name__)) or "0"
        return f"<{body}>"


class Connection(_CoefficientTable):
    """Connection coefficient table over every base coordinate."""

    __slots__ = ()
    _axes = ("fibre", "coordinate")


class LeafwiseConnection(_CoefficientTable):
    """Partial connection along the leaves: coefficients over leaf coordinates."""

    __slots__ = ()
    _axes = ("fibre", "leaf")


class LeafwiseJetPoint(_CoefficientTable):
    """First-order leafwise contact data: one coefficient per (fibre, leaf)."""

    __slots__ = ()
    _axes = ("fibre", "leaf")


class VerticalValuedLeafwiseForm(_CoefficientTable):
    """A leafwise one-form with values in the vertical tangent directions:
    one degree-1 leafwise form per fibre coordinate."""

    __slots__ = ()
    _axes = ("fibre", "leaf")

    def row(self, fibre) -> LeafwiseForm:
        """The degree-1 leafwise form attached to one fibre coordinate."""
        return LeafwiseForm._build(self.chart, 1, self._row(fibre))


class BundleSection:
    """Section of the bundle: one base-only expression per fibre coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: BundleChart, components):
        if not isinstance(chart, BundleChart):
            raise InputError("BundleSection needs a BundleChart")
        self.chart = chart
        if isinstance(components, Mapping):
            dense = [Expression.zero()] * chart.fibre_dim
            for key, value in components.items():
                dense[_position(chart, "fibre", key)] = value
            components = dense
        components = tuple(_as_expression(c) for c in components)
        if len(components) != chart.fibre_dim:
            raise InputError(
                f"section needs {chart.fibre_dim} components, got {len(components)}"
            )
        allowed = frozenset(chart.base.coords)
        for component in components:
            _check_component_variables(component, allowed, "section component")
        self.components = components

    def component(self, fibre) -> Expression:
        return self.components[_position(self.chart, "fibre", fibre)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def assignment_lines(self, name: str) -> list[str]:
        return [
            f"{name}[{self.chart.fibre_coords[i]}] = {c}"
            for i, c in enumerate(self.components)
            if not c.is_zero()
        ]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and self.components == other.components
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(self.assignment_lines("s")) or "0"
        return f"<{body}>"


def _require_chart(a, b, operation: str):
    if a.chart != b.chart:
        raise ChartMismatchError(f"cannot {operation} over different charts")


def restrict_connection(connection: Connection) -> LeafwiseConnection:
    """Keep the leaf-indexed coefficients, discard the transverse ones."""
    cutoff = connection.chart.dim_leaf
    kept = {
        key: expr for key, expr in connection.coefficients.items() if key[1] < cutoff
    }
    return LeafwiseConnection._build(connection.chart, kept)


def jet_prolongation(section: BundleSection) -> LeafwiseJetPoint:
    """First leafwise jet of a section: the leaf partials of its components."""
    chart = section.chart
    table = {}
    for fibre, component in enumerate(section.components):
        for leaf, name in enumerate(chart.base.leaf_coords):
            derivative = component.partial(name)
            if not derivative.is_zero():
                table[(fibre, leaf)] = derivative
    return LeafwiseJetPoint._build(chart, table)


def connection_as_jet_section(connection: LeafwiseConnection) -> LeafwiseJetPoint:
    """Read a leafwise connection as a jet-valued section over the bundle;
    the coefficient table carries over verbatim."""
    return LeafwiseJetPoint(connection.chart, connection.coefficients)


def jet_section_as_connection(jet: LeafwiseJetPoint) -> LeafwiseConnection:
    """Inverse of connection_as_jet_section."""
    return LeafwiseConnection(jet.chart, jet.coefficients)


def connection_difference(
    a: LeafwiseConnection, b: LeafwiseConnection
) -> VerticalValuedLeafwiseForm:
    """Affine difference a - b, a vertical-valued leafwise one-form."""
    _require_chart(a, b, "subtract connections")
    merged = dict(a.coefficients)
    _add_into(merged, b.coefficients, negate=True)
    return VerticalValuedLeafwiseForm._build(a.chart, merged)


def translate_connection(
    a: LeafwiseConnection, shift: VerticalValuedLeafwiseForm
) -> LeafwiseConnection:
    """Translate a leafwise connection by a vertical-valued leafwise form."""
    _require_chart(a, shift, "translate")
    merged = dict(a.coefficients)
    _add_into(merged, shift.coefficients)
    return LeafwiseConnection._build(a.chart, merged)


def covariant_differential(
    a: LeafwiseConnection, section: BundleSection
) -> VerticalValuedLeafwiseForm:
    """Leafwise covariant differential of a section: the leaf partials of the
    section minus the connection coefficients evaluated along it."""
    _require_chart(a, section, "differentiate")
    chart = a.chart
    bindings = {
        name: section.components[i] for i, name in enumerate(chart.fibre_coords)
    }
    table = {}
    for fibre, component in enumerate(section.components):
        for leaf, name in enumerate(chart.base.leaf_coords):
            coeff = a.coefficients.get((fibre, leaf), Expression.zero())
            value = component.partial(name) - coeff.substitute(bindings)
            if not value.is_zero():
                table[(fibre, leaf)] = value
    return VerticalValuedLeafwiseForm._build(chart, table)
