"""Extending a leafwise connection to a full connection.

The construction: pick a reference connection, take the affine difference
between the given leafwise connection and the reference's leafwise
restriction, push that difference through a splitting of the conormal
sequence (turning it into a soldering form over the whole base), and add the
result to the reference.  The leaf-indexed coefficients of the output are
the given leafwise coefficients verbatim, so restricting the extension
always recovers the input; verify_extension checks exactly that and exists
as an executable witness of the statement.  _extensions builds each
splitting's extension from one leafwise difference for extend_connection,
extension_dependence and `verify`, and _dependence subtracts two of them.

Splittings and soldering forms are coefficient tables of the one type in
connections.py.  A splitting lives over the adapted base chart, with leaf
positions as rows and absolute transverse base positions as columns; a
soldering form has fibre rows and a column for every base position.
"""

from __future__ import annotations

from .charts import AdaptedChart, _require
from .errors import ChartMismatchError
from .expr import _add_into, _product_sum
from .forms import ExteriorForm
from .connections import (
    Connection,
    LeafwiseConnection,
    VerticalValuedLeafwiseForm,
    _CoefficientTable,
    connection_difference,
    restrict_connection,
)


class Splitting(_CoefficientTable):
    """Splitting of the conormal sequence over the base: a table of base-only
    coefficients sending each leafwise basis covector to itself minus a
    combination of transverse ones.  Keys are (leaf position, absolute
    transverse position); missing entries read as zero."""

    __slots__ = ()
    _axes = ("leaf", "transverse")
    _coefficient = "a splitting coefficient (base only)"
    _chart_type = AdaptedChart
    _symbol = "B"


class SolderingForm(_CoefficientTable):
    """Vertical-valued one-form over the whole base: one degree-1 exterior
    form per fibre coordinate, stored as a (fibre, base position) table."""

    __slots__ = ()
    _axes = ("fibre", "coordinate")
    _coefficient = "a soldering form coefficient"
    _symbol = "sigma"

    def row(self, fibre) -> ExteriorForm:
        """The degree-1 exterior form attached to one fibre coordinate."""
        return ExteriorForm._build(self.chart, 1, self._row(fibre))


def apply_splitting(
    split: Splitting, difference: VerticalValuedLeafwiseForm
) -> SolderingForm:
    """Push a vertical-valued leafwise form Q through a splitting B: the
    soldering form sigma = Q on leaf slots, and on transverse ones
    sigma[f][t] = -sum over leaves l of B[l][t] * Q[f][l]."""
    _require("apply_splitting", (split, Splitting), (difference, VerticalValuedLeafwiseForm))
    chart = difference.chart
    if split.chart != chart.base:
        raise ChartMismatchError("splitting chart does not match the bundle base")
    pairs = {}
    for (leaf, trans), weight in split.coefficients.items():
        for fibre in range(chart.fibre_dim):
            value = difference.coefficients.get((fibre, leaf))
            if value is not None:
                pairs.setdefault((fibre, trans), []).append((weight, value, True))
    table = dict(difference.coefficients)
    table.update({key: total for key, signed in pairs.items() if (total := _product_sum(signed))})
    return SolderingForm._build(chart, table)


def extend_connection(
    a: LeafwiseConnection, reference: Connection | None, split: Splitting
) -> Connection:
    """Extend a leafwise connection to a full connection.

    The reference connection supplies transverse data (the zero connection
    when omitted); the splitting decides how the leafwise difference spreads
    over the transverse coefficients.  Leaf coefficients of the result equal
    the input's verbatim.
    """
    return _extensions(a, reference, split)[0]


def _extensions(a, reference, *splits) -> list[Connection]:
    # reference + s(Q) for each splitting s, from one Q = a - reference|F;
    # every operand type is checked before any chart.
    _require("extend_connection", (a, LeafwiseConnection))
    chart = a.chart
    if reference is None:
        reference = Connection._build(chart, {})
    _require("extend_connection", (reference, Connection), *[(s, Splitting) for s in splits])
    if reference.chart != chart:
        raise ChartMismatchError("reference connection lives over a different chart")
    difference = connection_difference(a, restrict_connection(reference))
    sigmas = [apply_splitting(split, difference).coefficients for split in splits]
    return [Connection._build(chart, _add_into(dict(reference.coefficients), s)) for s in sigmas]


def verify_extension(
    a: LeafwiseConnection, reference: Connection | None, split: Splitting
) -> bool:
    """Check that restricting the extension gives back the leafwise input,
    coefficient by coefficient.  Always true; a False return would flag an
    implementation defect, which is the point of having it executable."""
    restricted = restrict_connection(extend_connection(a, reference, split))
    return restricted.coefficients == a.coefficients


def extension_dependence(
    a: LeafwiseConnection,
    reference: Connection | None,
    split_one: Splitting,
    split_two: Splitting,
) -> SolderingForm:
    """Difference of the extensions built from two splittings.

    The leaf-indexed entries are always zero; the transverse entries measure
    how the extension depends on the choice of splitting.
    """
    return _dependence(*_extensions(a, reference, split_one, split_two))


def _dependence(first: Connection, second: Connection) -> SolderingForm:
    table = _add_into(dict(first.coefficients), second.coefficients, negate=True)
    return SolderingForm._build(first.chart, table)
