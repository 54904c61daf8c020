"""Extending a leafwise connection to a full connection.

The construction: pick a reference connection, take the affine difference
between the given leafwise connection and the reference's leafwise
restriction, push that difference through a splitting of the conormal
sequence (turning it into a soldering form over the whole base), and add the
result to the reference.  The leaf-indexed coefficients of the output are
the given leafwise coefficients verbatim, so restricting the extension
always recovers the input; verify_extension checks exactly that and exists
as an executable witness of the statement.  Every splitting is the identity
on leaf slots, so the dependence on the splitting is s1(Q) - s2(Q) for the
leafwise difference Q: one sum of products per transverse slot, formed by
the _transverse that apply_splitting shares, with no extension built.

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
    table = dict(difference.coefficients)
    table.update(_transverse(difference, (split, True)))
    return SolderingForm._build(difference.chart, table)


def _transverse(difference, *signed) -> dict:
    # The nonzero transverse slots of the sum of -B.Q over (B, True) and of
    # +B.Q over (B, False) in signed: one _product_sum per (fibre, t) of the
    # pairs (B[l][t], Q[f][l]) of every splitting.
    chart = difference.chart
    pairs = {}
    for split, negate in signed:
        if split.chart != chart.base:
            raise ChartMismatchError("splitting chart does not match the bundle base")
        for (leaf, trans), weight in split.coefficients.items():
            for fibre in range(chart.fibre_dim):
                value = difference.coefficients.get((fibre, leaf))
                if value is not None:
                    pairs.setdefault((fibre, trans), []).append((weight, value, negate))
    return {key: total for key, terms in pairs.items() if (total := _product_sum(terms))}


def extend_connection(
    a: LeafwiseConnection, reference: Connection | None, split: Splitting
) -> Connection:
    """Extend a leafwise connection to a full connection.

    The reference connection supplies transverse data (the zero connection
    when omitted); the splitting decides how the leafwise difference spreads
    over the transverse coefficients.  Leaf coefficients of the result equal
    the input's verbatim.
    """
    return _extension(*_difference(a, reference, split), split)


def _difference(a, reference, *splits) -> tuple[Connection, VerticalValuedLeafwiseForm]:
    # The reference (the zero connection when omitted) and Q = a - reference|F;
    # every operand type is checked before any chart.
    _require("extend_connection", (a, LeafwiseConnection))
    chart = a.chart
    if reference is None:
        reference = Connection._build(chart, {})
    _require("extend_connection", (reference, Connection), *[(s, Splitting) for s in splits])
    if reference.chart != chart:
        raise ChartMismatchError("reference connection lives over a different chart")
    return reference, connection_difference(a, restrict_connection(reference))


def _extension(reference: Connection, difference, split: Splitting) -> Connection:
    # reference + s(Q).
    sigma = apply_splitting(split, difference).coefficients
    return Connection._build(reference.chart, _add_into(dict(reference.coefficients), sigma))


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
    """Difference of the extensions built from two splittings, formed as
    Delta = s1(Q) - s2(Q) with Q = a - reference|F and no extension built.

    The leaf-indexed entries are always zero; the transverse entries measure
    how the extension depends on the choice of splitting.
    """
    difference = _difference(a, reference, split_one, split_two)[1]
    return _dependence(difference, split_one, split_two)


def _dependence(difference, split_one: Splitting, split_two: Splitting) -> SolderingForm:
    # s1(Q) - s2(Q): -B1.Q + B2.Q on each transverse slot.
    table = _transverse(difference, (split_one, True), (split_two, False))
    return SolderingForm._build(difference.chart, table)
