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

Forms are immutable `charts._Record`s that print their document lines
through `assignment_lines`, as tables do.  Their shared `.components` dict
must not be written to (see `_Record`); it makes a form unhashable.
"""

from __future__ import annotations

from collections.abc import Mapping

from .charts import (
    Chart,
    _Record,
    _axis,
    _checked_entries,
    _multi_index,
    _require,
    _require_chart,
    _set,
    allowed_variables,
    base_chart,
)
from .errors import ChartMismatchError, InputError
from .expr import Expression, Scalar, _add_into, _is_int, _product_sum


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


class _Form(_Record):
    """Shared mechanics of the two graded algebras."""

    __slots__ = ("chart", "degree", "components")

    # Subclasses fix the index axis, what errors call a coefficient and the
    # printed basis prefix.
    _kind: str
    _coefficient: str
    _basis_prefix = ""

    def __init__(
        self,
        chart: Chart,
        degree: int,
        components: Mapping[tuple, Expression | Scalar] | None = None,
    ):
        what = type(self).__name__
        _require(what, (chart, Chart))
        if not _is_int(degree) or degree < 0:
            raise InputError("form degree must be a non-negative integer")
        components = _checked_entries(
            what, chart, (self._kind,), allowed_variables(chart), self._coefficient,
            components, degree,
        )
        _set(self, "chart", chart)
        _set(self, "degree", degree)
        _set(self, "components", components)

    @classmethod
    def _build(cls, chart: Chart, degree: int, components: dict):
        # The internal constructor: components maps valid, strictly increasing
        # multi-indices of this degree to nonzero coefficients over the
        # chart's variables, and the dict is not shared with anyone else.
        form = object.__new__(cls)
        _set(form, "chart", chart)
        _set(form, "degree", degree)
        _set(form, "components", components)
        return form

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
        index = _multi_index(_axis(self.chart, self._kind), index)
        return self.components.get(index, Expression.zero())

    def __add__(self, other):
        return form_add(self, other)

    def __neg__(self):
        scaled = {index: -expr for index, expr in self.components.items()}
        return self._build(self.chart, self.degree, scaled)

    def __sub__(self, other):
        _require("form_add", (other, type(self)))
        return form_add(self, -other)

    def assignment_lines(self, name: str) -> list[str]:
        """Document assignment lines, sorted by multi-index; a zero form of
        positive degree declares its degree instead."""
        names = base_chart(self.chart).coords
        lines = []
        if not self.components and self.degree > 0:
            lines.append(f"degree {self.degree}")
        for index in sorted(self.components):
            suffix = "".join(f"[{names[i]}]" for i in index)
            lines.append(f"{name}{suffix} = {self.components[index]}")
        return lines

    def __str__(self) -> str:
        if not self.components:
            return "0"
        names = base_chart(self.chart).coords
        pieces = []
        for index in sorted(self.components):
            expr = self.components[index]
            basis = "^".join(f"{self._basis_prefix}{names[i]}" for i in index)
            negative = False
            if len(expr._coeffs) == 1:
                (numerator,) = expr._coeffs.values()
                if numerator < 0:
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
    _kind = "leaf"
    _coefficient = "a form coefficient"
    _basis_prefix = "~d"


class ExteriorForm(_Form):
    """Antisymmetric coefficient table over the full base coordinate basis."""

    __slots__ = ()
    _kind = "coordinate"
    _coefficient = "an exterior_form coefficient"
    _basis_prefix = "d"


Form = LeafwiseForm | ExteriorForm


def form_add(a: _Form, b: _Form) -> _Form:
    """Componentwise sum of two forms of the same kind, chart, and degree."""
    _require("form_add", (a, Form), (b, type(a)))
    _require_chart(a, b, "add forms")
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
    _require("wedge", (a, Form), (b, type(a)))
    _require_chart(a, b, "wedge forms")
    return _wedge_sum(((a, b, False),))


def _wedge_sum(terms) -> _Form:
    """The sum of a ^ b over (a, b, negate) terms, each negated where its
    flag is set; the terms are forms of one kind and chart whose degrees add
    to one degree, and there is at least one.  Each component is one sum of
    products, so products that two terms share meet in one kernel call: the
    ring multiplies each unordered pair of factors once, and a pair whose
    signs cancel, like the mirrored products of a 1-form wedged with
    itself, is never formed."""
    pairs: dict[tuple[int, ...], list] = {}
    for a, b, negate in terms:
        for left, f in a.components.items():
            for right, g in b.components.items():
                merged, sign = merge_indices(left, right)
                if merged is not None:
                    pairs.setdefault(merged, []).append((f, g, negate != (sign < 0)))
    out = {merged: total for merged, signed in pairs.items() if (total := _product_sum(signed))}
    first, second, _ = terms[0]
    return first._build(first.chart, first.degree + second.degree, out)


def _coboundary(form: _Form, index_range: int):
    """d(f dz_I) = sum of df/dz_j dz_j ^ dz_I over the first index_range
    base coordinates z_j.  Only directions that f holds and I lacks are
    differentiated; the others contribute zero."""
    names = base_chart(form.chart).coords[:index_range]
    out: dict[tuple[int, ...], Expression] = {}
    for index, expr in form.components.items():
        held = expr.variables()
        for direction, name in enumerate(names):
            if name in held:
                merged, sign = merge_indices((direction,), index)
                if merged is not None:
                    _add_into(out, {merged: expr.partial(name)}, sign < 0)
    return form._build(form.chart, form.degree + 1, out)


def leafwise_differential(form: LeafwiseForm) -> LeafwiseForm:
    """Coboundary differentiating along leaf coordinates only; raises the
    degree by one and vanishes identically above the leaf dimension."""
    _require("leafwise_differential", (form, LeafwiseForm))
    return _coboundary(form, form.chart.dim_leaf)


def exterior_differential(form: ExteriorForm) -> ExteriorForm:
    """The usual exterior derivative over all base coordinates."""
    _require("exterior_differential", (form, ExteriorForm))
    return _coboundary(form, form.chart.dim)


def restrict_form(form: ExteriorForm) -> LeafwiseForm:
    """Restriction to leaves: drop every component touching a transverse
    index and reread the survivors on the leafwise basis."""
    _require("restrict_form", (form, ExteriorForm))
    cutoff = form.chart.dim_leaf
    kept = {
        index: expr
        for index, expr in form.components.items()
        if all(i < cutoff for i in index)
    }
    return LeafwiseForm._build(form.chart, form.degree, kept)
