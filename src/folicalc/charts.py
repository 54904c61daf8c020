"""Adapted coordinate charts and the foliation predicates.

An adapted chart splits the base coordinates into leaf coordinates (running
along leaves) followed by transverse coordinates (constant on leaves).  A
bundle chart adds fibre coordinates on top of an adapted base chart.  All
positional index conventions in this package follow the stored order: base
positions 0..dim-1 with the leaf block first, fibre positions 0..fibre_dim-1.

An index is a name or an int position on one axis of a chart.  `_position`
resolves one index, and `_checked_entries` checks every entry a table, form
or section constructor is given, so the text format reports the constructors'
own errors at its tokens.

The foliation predicates read which variables an expression holds: over an
exact polynomial chart a leaf partial vanishes exactly when no term holds
that leaf coordinate, so deciding that a function, a transition or a fibre
transition is constant on leaves builds no derivative.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import attrgetter

from .errors import ChartMismatchError, InputError
from .expr import Expression, _as_expression, _is_int, _needs, is_identifier

_set = object.__setattr__


class _Record:
    """Immutable record (charts, maps, documents, reports, tables, forms and
    sections): its fields (two or more) are its __slots__, set once through
    _set.  ==, hash, repr, match and pickling or copying (rebuilt by __init__,
    so checked again) read them; a subclass with __slots__ = () keeps its
    parent's.  Dict fields (.coefficients, .components) are shared; writing to
    one is undefined (a stored zero breaks is_zero and ==, a bad key copying)."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)
            cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)


def _require(operation: str, *operands):
    """The one operand type check: each (value, kind) operand's value is a
    kind (a type, or a union such as Chart), or a ChartMismatchError says
    which it is not.  A success runs one isinstance per operand."""
    for value, kind in operands:
        if not isinstance(value, kind):
            raise ChartMismatchError(_needs(operation, value, kind))


def _tuple(operation: str, values, kind: type = object) -> tuple:
    try:
        items = iter(values)
    except TypeError:
        raise ChartMismatchError(_needs(operation, values, Iterable)) from None
    values = tuple(items)  # a TypeError from the caller's own iterator propagates
    for value in values:
        if not isinstance(value, kind):
            _require(operation, (value, kind))
    return values


def _require_chart(a, b, operation: str):
    if a.chart != b.chart:
        raise ChartMismatchError(f"cannot {operation} over different charts")


def _checked_names(operation: str, names: Sequence[str], what: str) -> tuple[str, ...]:
    if isinstance(names, str):
        raise InputError(f"{what} names are a sequence of names, not the string {names!r}")
    names = _tuple(operation, names)
    for name in names:
        if not is_identifier(name):
            raise InputError(f"invalid {what} name {name!r}")
    return names


class AdaptedChart(_Record):
    """Named base coordinates split into a leaf block and a transverse block."""

    __slots__ = ("leaf_coords", "transverse_coords")

    def __init__(self, leaf_coords: Sequence[str], transverse_coords: Sequence[str] = ()):
        leaf_coords = _checked_names("AdaptedChart", leaf_coords, "coordinate")
        transverse_coords = _checked_names("AdaptedChart", transverse_coords, "coordinate")
        if not leaf_coords:
            raise InputError("an adapted chart needs at least one leaf coordinate")
        names = leaf_coords + transverse_coords
        if len(set(names)) != len(names):
            raise InputError("chart coordinate names must be distinct")
        _set(self, "leaf_coords", leaf_coords)
        _set(self, "transverse_coords", transverse_coords)

    @property
    def coords(self) -> tuple[str, ...]:
        return self.leaf_coords + self.transverse_coords

    @property
    def dim(self) -> int:
        return len(self.leaf_coords) + len(self.transverse_coords)

    @property
    def dim_leaf(self) -> int:
        return len(self.leaf_coords)

    def position(self, name: str) -> int:
        """Base position of a coordinate name."""
        return _position(_axis(self, "coordinate"), name)


class BundleChart(_Record):
    """Fibred chart: an adapted base chart plus fibre coordinates."""

    __slots__ = ("base", "fibre_coords")

    def __init__(self, base: AdaptedChart, fibre_coords: Sequence[str]):
        _require("BundleChart", (base, AdaptedChart))
        fibre_coords = _checked_names("BundleChart", fibre_coords, "fibre")
        if not fibre_coords:
            raise InputError("a bundle chart needs at least one fibre coordinate")
        if not set(base.coords).isdisjoint(fibre_coords):
            raise InputError("fibre names must be distinct from base coordinates")
        if len(set(fibre_coords)) != len(fibre_coords):
            raise InputError("fibre names must be distinct")
        _set(self, "base", base)
        _set(self, "fibre_coords", fibre_coords)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def dim_leaf(self) -> int:
        return self.base.dim_leaf

    @property
    def fibre_dim(self) -> int:
        return len(self.fibre_coords)

    @property
    def all_coords(self) -> tuple[str, ...]:
        return self.base.coords + self.fibre_coords


Chart = AdaptedChart | BundleChart


def base_chart(chart: Chart) -> AdaptedChart:
    """The adapted base chart underlying either chart kind."""
    return chart.base if isinstance(chart, BundleChart) else chart


def allowed_variables(chart: Chart) -> frozenset[str]:
    """Variable names an expression over this chart may mention."""
    if isinstance(chart, BundleChart):
        return frozenset(chart.all_coords)
    return frozenset(chart.coords)


def _check_variables(exprs: Iterable[Expression], allowed: frozenset[str], what: str):
    for expr in exprs:
        extra = expr.variables() - allowed
        if extra:
            raise InputError(f"variable {min(extra)!r} is not available in {what}")


def _axis(chart: Chart, kind: str) -> tuple[str, tuple[str, ...], int, int]:
    # An index axis: its kind, the names an index is looked up in, and the
    # half-open range of positions it may take among them.  kind is 'fibre',
    # 'coordinate' (any base coordinate), 'leaf' or 'transverse'.
    if kind == "fibre":
        return kind, chart.fibre_coords, 0, chart.fibre_dim
    base = base_chart(chart)
    start = base.dim_leaf if kind == "transverse" else 0
    stop = base.dim_leaf if kind == "leaf" else base.dim
    return kind, base.coords, start, stop


def _position(axis: tuple, index, entry=None, part=None) -> int:
    """Position of one index, a name or an int, on an axis from _axis.  An
    error carries entry and part (see InputError) when they are given."""
    kind, names, start, stop = axis
    if isinstance(index, str):
        if index not in names:
            prefix = "fibre " if kind == "fibre" else ""
            raise InputError(f"unknown {prefix}coordinate {index!r}", entry, part)
        position = names.index(index)
        if not start <= position < stop:
            raise InputError(f"{index!r} is not a {kind} coordinate", entry, part)
        return position
    if not _is_int(index):
        raise InputError(
            f"a {kind} position is a name or an int, not {type(index).__name__}", entry, part
        )
    if not start <= index < stop:
        raise InputError(f"{kind} index {index} out of range", entry, part)
    return index


def _multi_index(axis, key, entry=None) -> tuple[int, ...]:
    """Positions of a form's multi-index: a strictly increasing tuple of
    indices on one axis."""
    if not isinstance(key, tuple):
        raise InputError(f"a multi-index is a tuple, not {type(key).__name__}", entry)
    positions = tuple([_position(axis, index, entry, part) for part, index in enumerate(key)])
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise InputError("multi-index must be strictly increasing", entry, 0)
    return positions


def _checked_entries(
    operation: str, chart: Chart, kinds: tuple[str, ...], allowed: frozenset[str], what: str,
    entries: Mapping | None, degree: int | None = None,
) -> dict:
    """The entries (None for none) given to a table, form or section
    constructor called operation, keyed by position, with zeros dropped.

    A table's key is a tuple of one index per axis kind in kinds, and a
    section's (one kind) is its index alone.  A form passes its degree, and
    its key is a multi-index of that length on kinds[0].  Values are
    Expressions or exact scalars over the allowed variables, called what in
    errors.  Each entry's indices are checked first (a table's key must be
    a pair before that), then a multi-index's order and length, a repeat
    and the value, and the first bad entry raises an InputError carrying
    entry and part (see errors.py).
    """
    if entries is not None and not isinstance(entries, dict):
        _require(operation, (entries, Mapping))
    axes = [_axis(chart, kind) for kind in kinds]
    out = {}
    seen = set()
    for key, value in (entries or {}).items():
        if degree is not None:
            position = _multi_index(axes[0], key, key)
            if len(position) != degree:
                raise InputError(
                    f"multi-index length {len(key)} disagrees with degree {degree}", key
                )
        elif len(axes) == 1:
            position = _position(axes[0], key, key, 0)
        elif isinstance(key, tuple) and len(key) == 2:
            position = _position(axes[0], key[0], key, 0), _position(axes[1], key[1], key, 1)
        else:
            raise InputError(f"keys are ({', '.join(kinds)}) pairs, not {key!r}", key)
        if position in seen:
            raise InputError(f"duplicate entry {key!r}", key)
        seen.add(position)
        try:
            value = _as_expression(value)
            _check_variables((value,), allowed, what)
        except InputError as error:
            raise InputError(str(error), key, "value") from None
        if not value.is_zero():
            out[position] = value
    return out


class TransitionMap(_Record):
    """Coordinate change: one target-coordinate expression per base coordinate,
    written in the source chart's variables."""

    __slots__ = ("target", "components")

    def __init__(self, target: AdaptedChart, components: Sequence[Expression]):
        _require("TransitionMap", (target, AdaptedChart))
        components = _tuple("TransitionMap", components, Expression)
        if len(components) != target.dim:
            raise InputError(f"transition needs {target.dim} components, got {len(components)}")
        _set(self, "target", target)
        _set(self, "components", components)

    @classmethod
    def identity(cls, chart: AdaptedChart) -> "TransitionMap":
        _require("TransitionMap.identity", (chart, AdaptedChart))
        return cls(chart, tuple(Expression.variable(name) for name in chart.coords))


def _constant_on_leaves(exprs: Iterable[Expression], leaf_coords: tuple[str, ...]) -> bool:
    return all(expr.variables().isdisjoint(leaf_coords) for expr in exprs)


def check_adapted_transition(transition: TransitionMap, source: AdaptedChart) -> bool:
    """True iff every transverse target coordinate is independent of every
    source leaf coordinate, i.e. the coordinate change respects the foliation."""
    _require("check_adapted_transition", (transition, TransitionMap), (source, AdaptedChart))
    target = transition.target
    if target.dim != source.dim or target.dim_leaf != source.dim_leaf:
        raise ChartMismatchError("transition charts disagree on dimensions")
    _check_variables(transition.components, frozenset(source.coords), "a transition component")
    return _constant_on_leaves(transition.components[target.dim_leaf:], source.leaf_coords)


def check_foliated_bundle_transition(
    fibre_transition: Sequence[Expression], chart: BundleChart
) -> bool:
    """True iff every fibre transition component is constant along leaves."""
    _require("check_foliated_bundle_transition", (chart, BundleChart))
    fibre_transition = _tuple("check_foliated_bundle_transition", fibre_transition, Expression)
    if len(fibre_transition) != chart.fibre_dim:
        raise InputError(
            f"expected {chart.fibre_dim} fibre transition components, got {len(fibre_transition)}"
        )
    _check_variables(fibre_transition, allowed_variables(chart), "a fibre transition component")
    return _constant_on_leaves(fibre_transition, chart.base.leaf_coords)


def is_foliated_function(f: Expression, chart: AdaptedChart) -> bool:
    """True iff f is constant on leaves: every leaf partial vanishes, that
    is, no leaf coordinate occurs in f."""
    _require("is_foliated_function", (f, Expression), (chart, AdaptedChart))
    _check_variables((f,), frozenset(chart.coords), "a function")
    return _constant_on_leaves((f,), chart.leaf_coords)
