"""Leafwise and exterior forms on a single adapted chart.

Forms are stored on the strictly increasing multi-index basis: a degree-r
form maps each index tuple (i1 < ... < ir) to a coefficient Expression, and
zero coefficients are never stored.  Leafwise indices run over the leaf block
only; exterior indices run over all base coordinates.  The redundant fully
antisymmetric components (and their 1/r! normalisation) never appear: all
signs are produced by counting inversions while merging index tuples.

A form may live over a bundle chart, in which case its coefficients may
mention fibre variables; its indices still refer to base coordinates only.
Zero forms of degree above the top dimension are representable (they arise
from differentials and wedges at the top of the complex) but can never have
components.
"""

from __future__ import annotations

from typing import Mapping

from .charts import Chart, _check_component_variables, allowed_variables, base_chart
from .errors import ChartMismatchError, InputError
from .expr import Expression, Scalar, _add_into, _as_expression, _is_int


def merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Interleave two strictly increasing index tuples.

    Returns (merged, sign) where sign is the parity of the permutation that
    sorts the concatenation, or (None, 0) if an index repeats.
    """
    if not left:
        return right, 1
    if not right:
        return left, 1
    out = []
    inversions = 0
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return None, 0
        if left[i] < right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
            inversions += len(left) - i
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out), (-1 if inversions & 1 else 1)


class _Form:
    """Shared mechanics of the two graded algebras."""

    __slots__ = ("chart", "degree", "components")

    # Subclasses fix the index range and the printed basis prefix.
    _basis_prefix = ""

    def __init__(
        self,
        chart: Chart,
        degree: int,
        components: Mapping[tuple, Expression | Scalar] | None = None,
    ):
        if not _is_int(degree) or degree < 0:
            raise InputError("form degree must be a non-negative integer")
        self.chart = chart
        self.degree = degree
        limit = self._index_limit(chart)
        names = base_chart(chart).coords
        allowed = allowed_variables(chart)
        cleaned: dict[tuple[int, ...], Expression] = {}
        for index, value in (components or {}).items():
            index = self._resolve_index(index, names, limit)
            if len(index) != degree:
                raise InputError(
                    f"multi-index {index} has length {len(index)}, form degree is {degree}"
                )
            if index in cleaned:
                raise InputError(f"duplicate component for multi-index {index}")
            expr = _as_expression(value)
            _check_component_variables(expr, allowed, "coefficient")
            if not expr.is_zero():
                cleaned[index] = expr
        self.components = cleaned

    @classmethod
    def _build(cls, chart: Chart, degree: int, components: dict):
        # The internal constructor: components maps valid, strictly increasing
        # multi-indices of this degree to nonzero coefficients over the
        # chart's variables, and the dict is not shared with anyone else.
        form = object.__new__(cls)
        form.chart = chart
        form.degree = degree
        form.components = components
        return form

    def _resolve_index(self, index, names, limit) -> tuple[int, ...]:
        if not isinstance(index, tuple):
            raise InputError(f"a multi-index is a tuple, not {type(index).__name__}")
        out = []
        for entry in index:
            if isinstance(entry, str):
                if entry not in names:
                    raise InputError(f"unknown coordinate {entry!r} in multi-index")
                entry = names.index(entry)
            elif not _is_int(entry):
                raise InputError(
                    f"a multi-index entry is a name or an int, not {type(entry).__name__}"
                )
            if not 0 <= entry < limit:
                raise InputError(f"index {entry} out of range for {type(self).__name__}")
            out.append(entry)
        if any(a >= b for a, b in zip(out, out[1:])):
            raise InputError(f"multi-index {tuple(out)} is not strictly increasing")
        return tuple(out)

    @classmethod
    def _index_limit(cls, chart: Chart) -> int:
        raise NotImplementedError

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0):
        return cls(chart, degree)

    @classmethod
    def from_function(cls, chart: Chart, value: Expression | Scalar):
        """Degree-0 form wrapping a single coefficient."""
        return cls(chart, 0, {(): value})

    def function_value(self) -> Expression:
        """The coefficient of a degree-0 form."""
        if self.degree != 0:
            raise InputError("not a degree-0 form")
        return self.components.get((), Expression.zero())

    def is_zero(self) -> bool:
        return not self.components

    def component(self, index) -> Expression:
        index = self._resolve_index(index, base_chart(self.chart).coords, self._index_limit(self.chart))
        return self.components.get(index, Expression.zero())

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.components == other.components
        )

    __hash__ = None

    def __add__(self, other):
        return form_add(self, other)

    def __neg__(self):
        scaled = {index: -expr for index, expr in self.components.items()}
        return self._build(self.chart, self.degree, scaled)

    def __sub__(self, other):
        return form_add(self, -other)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        names = base_chart(self.chart).coords
        pieces = []
        for index in sorted(self.components):
            expr = self.components[index]
            basis = "^".join(f"{self._basis_prefix}{names[i]}" for i in index)
            negative = False
            if len(expr.terms) == 1:
                mono, coeff = expr.terms[0]
                if coeff < 0:
                    negative = True
                    expr = -expr
                if expr == Expression.one():
                    body = basis if basis else "1"
                else:
                    body = f"{expr} {basis}" if basis else str(expr)
            else:
                body = f"({expr}) {basis}" if basis else str(expr)
            if not pieces:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append((" - " if negative else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class LeafwiseForm(_Form):
    """Antisymmetric coefficient table over the leafwise basis only."""

    __slots__ = ()
    _basis_prefix = "~d"

    @classmethod
    def _index_limit(cls, chart: Chart) -> int:
        return chart.dim_leaf


class ExteriorForm(_Form):
    """Antisymmetric coefficient table over the full base coordinate basis."""

    __slots__ = ()
    _basis_prefix = "d"

    @classmethod
    def _index_limit(cls, chart: Chart) -> int:
        return chart.dim


def _require_same_kind(a: _Form, b: _Form, operation: str):
    if type(a) is not type(b):
        raise ChartMismatchError(
            f"cannot {operation} {type(a).__name__} and {type(b).__name__}"
        )
    if a.chart != b.chart:
        raise ChartMismatchError(f"cannot {operation} forms over different charts")


def form_add(a: _Form, b: _Form) -> _Form:
    """Componentwise sum of two forms of the same kind, chart, and degree."""
    _require_same_kind(a, b, "add")
    if a.degree != b.degree:
        raise ChartMismatchError(
            f"cannot add forms of degrees {a.degree} and {b.degree}"
        )
    merged = dict(a.components)
    _add_into(merged, b.components)
    return a._build(a.chart, a.degree, merged)


def wedge(a: _Form, b: _Form) -> _Form:
    """Exterior product; repeated basis indices kill a term, interleaving
    two index blocks contributes the sign of the sorting permutation."""
    _require_same_kind(a, b, "wedge")
    out: dict[tuple[int, ...], Expression] = {}
    for left, f in a.components.items():
        for right, g in b.components.items():
            merged, sign = merge_indices(left, right)
            if merged is not None:
                _add_into(out, {merged: f * g}, sign < 0)
    return a._build(a.chart, a.degree + b.degree, out)


def _coboundary(form: _Form, index_range: int, result_kind):
    names = base_chart(form.chart).coords
    out: dict[tuple[int, ...], Expression] = {}
    for index, expr in form.components.items():
        for direction in range(index_range):
            derivative = expr.partial(names[direction])
            if derivative.is_zero():
                continue
            merged, sign = merge_indices((direction,), index)
            if merged is not None:
                _add_into(out, {merged: derivative}, sign < 0)
    return result_kind._build(form.chart, form.degree + 1, out)


def leafwise_differential(form: LeafwiseForm) -> LeafwiseForm:
    """Coboundary differentiating along leaf coordinates only; raises the
    degree by one and vanishes identically above the leaf dimension."""
    if not isinstance(form, LeafwiseForm):
        raise ChartMismatchError("leafwise differential needs a LeafwiseForm")
    return _coboundary(form, form.chart.dim_leaf, LeafwiseForm)


def exterior_differential(form: ExteriorForm) -> ExteriorForm:
    """The usual exterior derivative over all base coordinates."""
    if not isinstance(form, ExteriorForm):
        raise ChartMismatchError("exterior differential needs an ExteriorForm")
    return _coboundary(form, form.chart.dim, ExteriorForm)


def restrict_form(form: ExteriorForm) -> LeafwiseForm:
    """Restriction to leaves: drop every component touching a transverse
    index and reread the survivors on the leafwise basis."""
    if not isinstance(form, ExteriorForm):
        raise ChartMismatchError("restriction needs an ExteriorForm")
    cutoff = form.chart.dim_leaf
    kept = {
        index: expr
        for index, expr in form.components.items()
        if all(i < cutoff for i in index)
    }
    return LeafwiseForm._build(form.chart, form.degree, kept)
