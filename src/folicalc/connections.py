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

Rows and columns are given by name or as an int; the constructors check
their entries with `charts._checked_entries` and readers resolve them with
`charts._position`.  Coefficients over a bundle chart may mention fibre
variables (connections need not be linear); section components may not.
Operations inside the package build their results with the unchecked
`_build`.

Tables and sections are immutable `charts._Record`s.  A table's
`.coefficients` dict is shared, not copied, and writing to it is undefined
(see `_Record`); it also makes a table unhashable.
"""

from __future__ import annotations

from collections.abc import Mapping

from .charts import (
    BundleChart,
    Chart,
    _Record,
    _axis,
    _checked_entries,
    _position,
    _require,
    _require_chart,
    _set,
    _tuple,
    allowed_variables,
)
from .errors import InputError
from .expr import Expression, _add_into
from .forms import LeafwiseForm


class _CoefficientTable(_Record):
    """Sparse (row, column)-keyed coefficient table; see the module docstring.

    Subclasses set _axes to the kinds of their rows and columns, _coefficient
    to what errors call a coefficient, _chart_type to the chart they live
    over, and _symbol to the name repr prints when that is not the type name.
    """

    __slots__ = ("chart", "coefficients")

    _axes: tuple[str, str]
    _coefficient: str
    _chart_type: type = BundleChart
    _symbol: str | None = None

    def __init__(self, chart: Chart, coefficients: Mapping | None = None):
        what = type(self).__name__
        _require(what, (chart, self._chart_type))
        coefficients = _checked_entries(
            what, chart, self._axes, allowed_variables(chart), self._coefficient, coefficients
        )
        _set(self, "chart", chart)
        _set(self, "coefficients", coefficients)

    @classmethod
    def _build(cls, chart: Chart, coefficients: dict[tuple[int, int], Expression]):
        # The internal constructor: keys are valid positions, values nonzero
        # coefficients over the chart's variables, and the dict is not shared
        # with anyone else.
        table = object.__new__(cls)
        _set(table, "chart", chart)
        _set(table, "coefficients", coefficients)
        return table

    def _row(self, row) -> dict[tuple[int], Expression]:
        # One row's entries keyed by 1-tuples of their column: the components
        # of a degree-1 form.
        row = _position(_axis(self.chart, self._axes[0]), row)
        return {(col,): expr for (r, col), expr in self.coefficients.items() if r == row}

    def coefficient(self, row, col) -> Expression:
        rows, cols = (_axis(self.chart, kind) for kind in self._axes)
        key = _position(rows, row), _position(cols, col)
        return self.coefficients.get(key, Expression.zero())

    def is_zero(self) -> bool:
        return not self.coefficients

    def assignment_lines(self, name: str) -> list[str]:
        rows, cols = (_axis(self.chart, kind)[1] for kind in self._axes)
        return [
            f"{name}[{rows[row]}][{cols[col]}] = {self.coefficients[(row, col)]}"
            for row, col in sorted(self.coefficients)
        ]

    def __repr__(self) -> str:
        body = "; ".join(self.assignment_lines(self._symbol or type(self).__name__)) or "0"
        return f"<{body}>"


class Connection(_CoefficientTable):
    """Connection coefficient table over every base coordinate."""

    __slots__ = ()
    _axes = ("fibre", "coordinate")
    _coefficient = "a connection coefficient"


class LeafwiseConnection(_CoefficientTable):
    """Partial connection along the leaves: coefficients over leaf coordinates."""

    __slots__ = ()
    _axes = ("fibre", "leaf")
    _coefficient = "a connection coefficient"


class LeafwiseJetPoint(_CoefficientTable):
    """First-order leafwise contact data: one coefficient per (fibre, leaf)."""

    __slots__ = ()
    _axes = ("fibre", "leaf")
    _coefficient = "a jet coefficient"


class VerticalValuedLeafwiseForm(_CoefficientTable):
    """A leafwise one-form with values in the vertical tangent directions:
    one degree-1 leafwise form per fibre coordinate."""

    __slots__ = ()
    _axes = ("fibre", "leaf")
    _coefficient = "a vertical-valued form coefficient"

    def row(self, fibre) -> LeafwiseForm:
        """The degree-1 leafwise form attached to one fibre coordinate."""
        return LeafwiseForm._build(self.chart, 1, self._row(fibre))


class BundleSection(_Record):
    """Section of the bundle: one base-only expression per fibre coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: BundleChart, components):
        _require("BundleSection", (chart, BundleChart))
        if not isinstance(components, Mapping):
            components = _tuple("BundleSection", components)
            if len(components) != chart.fibre_dim:
                raise InputError(
                    f"section needs {chart.fibre_dim} components, got {len(components)}"
                )
            components = dict(enumerate(components))
        given = _checked_entries(
            "BundleSection", chart, ("fibre",), frozenset(chart.base.coords),
            "a section component (base only)", components,
        )
        zero = Expression.zero()
        _set(self, "chart", chart)
        _set(self, "components", tuple(given.get(i, zero) for i in range(chart.fibre_dim)))

    def component(self, fibre) -> Expression:
        return self.components[_position(_axis(self.chart, "fibre"), fibre)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def assignment_lines(self, name: str) -> list[str]:
        return [
            f"{name}[{self.chart.fibre_coords[i]}] = {c}"
            for i, c in enumerate(self.components)
            if not c.is_zero()
        ]

    def __repr__(self) -> str:
        body = "; ".join(self.assignment_lines("s")) or "0"
        return f"<{body}>"


def restrict_connection(connection: Connection) -> LeafwiseConnection:
    """Keep the leaf-indexed coefficients, discard the transverse ones."""
    _require("restrict_connection", (connection, Connection))
    cutoff = connection.chart.dim_leaf
    kept = {
        key: expr for key, expr in connection.coefficients.items() if key[1] < cutoff
    }
    return LeafwiseConnection._build(connection.chart, kept)


def _leaf_partials(section: BundleSection) -> dict[tuple[int, int], Expression]:
    # The nonzero leaf partials of the section's components, keyed
    # (fibre, leaf): the table of its first leafwise jet.
    leaves = section.chart.base.leaf_coords
    return {
        (fibre, leaf): derivative
        for fibre, component in enumerate(section.components)
        for leaf, name in enumerate(leaves)
        if (derivative := component.partial(name))
    }


def jet_prolongation(section: BundleSection) -> LeafwiseJetPoint:
    """First leafwise jet of a section: the leaf partials of its components."""
    _require("jet_prolongation", (section, BundleSection))
    return LeafwiseJetPoint._build(section.chart, _leaf_partials(section))


def connection_as_jet_section(connection: LeafwiseConnection) -> LeafwiseJetPoint:
    """Read a leafwise connection as a jet-valued section over the bundle;
    the coefficient table carries over verbatim."""
    _require("connection_as_jet_section", (connection, LeafwiseConnection))
    return LeafwiseJetPoint._build(connection.chart, dict(connection.coefficients))


def jet_section_as_connection(jet: LeafwiseJetPoint) -> LeafwiseConnection:
    """Inverse of connection_as_jet_section."""
    _require("jet_section_as_connection", (jet, LeafwiseJetPoint))
    return LeafwiseConnection._build(jet.chart, dict(jet.coefficients))


def connection_difference(
    a: LeafwiseConnection, b: LeafwiseConnection
) -> VerticalValuedLeafwiseForm:
    """Affine difference a - b, a vertical-valued leafwise one-form."""
    _require("connection_difference", (a, LeafwiseConnection), (b, LeafwiseConnection))
    _require_chart(a, b, "subtract connections")
    merged = _add_into(dict(a.coefficients), b.coefficients, negate=True)
    return VerticalValuedLeafwiseForm._build(a.chart, merged)


def translate_connection(
    a: LeafwiseConnection, shift: VerticalValuedLeafwiseForm
) -> LeafwiseConnection:
    """Translate a leafwise connection by a vertical-valued leafwise form."""
    _require("translate_connection", (a, LeafwiseConnection), (shift, VerticalValuedLeafwiseForm))
    _require_chart(a, shift, "translate")
    merged = _add_into(dict(a.coefficients), shift.coefficients)
    return LeafwiseConnection._build(a.chart, merged)


def covariant_differential(
    a: LeafwiseConnection, section: BundleSection
) -> VerticalValuedLeafwiseForm:
    """Leafwise covariant differential of a section, nabla s = j1(s) - Gamma(s):
    at each (fibre, leaf) slot, the leaf partial of the section's component
    minus the connection coefficient evaluated along the section, that is
    with the section's components put in for the fibre variables."""
    _require("covariant_differential", (a, LeafwiseConnection), (section, BundleSection))
    _require_chart(a, section, "differentiate")
    bindings = dict(zip(a.chart.fibre_coords, section.components))
    along = {key: value for key, c in a.coefficients.items() if (value := c.substitute(bindings))}
    table = _add_into(_leaf_partials(section), along, negate=True)
    return VerticalValuedLeafwiseForm._build(a.chart, table)
