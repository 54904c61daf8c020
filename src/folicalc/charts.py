"""Adapted coordinate charts and the foliation predicates.

An adapted chart splits the base coordinates into leaf coordinates (running
along leaves) followed by transverse coordinates (constant on leaves).  A
bundle chart adds fibre coordinates on top of an adapted base chart.  All
positional index conventions in this package follow the stored order: base
positions 0..dim-1 with the leaf block first, fibre positions 0..fibre_dim-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ChartMismatchError, InputError
from .expr import Expression, is_identifier


def _checked_names(names: Sequence[str], what: str) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if not is_identifier(name):
            raise InputError(f"invalid {what} name {name!r}")
    return names


@dataclass(frozen=True)
class AdaptedChart:
    """Named base coordinates split into a leaf block and a transverse block."""

    leaf_coords: tuple[str, ...]
    transverse_coords: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "leaf_coords", _checked_names(self.leaf_coords, "coordinate"))
        object.__setattr__(
            self, "transverse_coords", _checked_names(self.transverse_coords, "coordinate")
        )
        if not self.leaf_coords:
            raise InputError("an adapted chart needs at least one leaf coordinate")
        names = self.leaf_coords + self.transverse_coords
        if len(set(names)) != len(names):
            raise InputError("chart coordinate names must be distinct")

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
        try:
            return self.coords.index(name)
        except ValueError:
            raise InputError(f"unknown coordinate {name!r}") from None


@dataclass(frozen=True)
class BundleChart:
    """Fibred chart: an adapted base chart plus fibre coordinates."""

    base: AdaptedChart
    fibre_coords: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.base, AdaptedChart):
            raise InputError("bundle chart needs an AdaptedChart base")
        object.__setattr__(self, "fibre_coords", _checked_names(self.fibre_coords, "fibre"))
        if not self.fibre_coords:
            raise InputError("a bundle chart needs at least one fibre coordinate")
        names = self.base.coords + self.fibre_coords
        if len(set(names)) != len(names):
            raise InputError("fibre names must be distinct from base coordinates")

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

    def fibre_position(self, name: str) -> int:
        try:
            return self.fibre_coords.index(name)
        except ValueError:
            raise InputError(f"unknown fibre coordinate {name!r}") from None


Chart = AdaptedChart | BundleChart


def base_chart(chart: Chart) -> AdaptedChart:
    """The adapted base chart underlying either chart kind."""
    return chart.base if isinstance(chart, BundleChart) else chart


def allowed_variables(chart: Chart) -> frozenset[str]:
    """Variable names an expression over this chart may mention."""
    if isinstance(chart, BundleChart):
        return frozenset(chart.all_coords)
    return frozenset(chart.coords)


def _check_component_variables(expr: Expression, allowed: frozenset[str], what: str):
    extra = expr.variables() - allowed
    if extra:
        name = sorted(extra)[0]
        raise InputError(f"{what} mentions undeclared variable {name!r}")


@dataclass(frozen=True)
class TransitionMap:
    """Coordinate change: one target-coordinate expression per base coordinate,
    written in the source chart's variables."""

    target: AdaptedChart
    components: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for component in self.components:
            if not isinstance(component, Expression):
                raise InputError("transition components must be expressions")
        if len(self.components) != self.target.dim:
            raise InputError(
                f"transition needs {self.target.dim} components, got {len(self.components)}"
            )

    @classmethod
    def identity(cls, chart: AdaptedChart) -> "TransitionMap":
        return cls(chart, tuple(Expression.variable(name) for name in chart.coords))


def check_adapted_transition(transition: TransitionMap, source: AdaptedChart) -> bool:
    """True iff every transverse target coordinate is independent of every
    source leaf coordinate, i.e. the coordinate change respects the foliation."""
    target = transition.target
    if target.dim != source.dim or target.dim_leaf != source.dim_leaf:
        raise ChartMismatchError("transition charts disagree on dimensions")
    allowed = frozenset(source.coords)
    for component in transition.components:
        _check_component_variables(component, allowed, "transition component")
    for position in range(target.dim_leaf, target.dim):
        component = transition.components[position]
        for leaf in source.leaf_coords:
            if not component.partial(leaf).is_zero():
                return False
    return True


def check_foliated_bundle_transition(
    fibre_transition: Sequence[Expression], chart: BundleChart
) -> bool:
    """True iff every fibre transition component is constant along leaves."""
    fibre_transition = tuple(fibre_transition)
    if len(fibre_transition) != chart.fibre_dim:
        raise InputError(
            f"expected {chart.fibre_dim} fibre transition components, got {len(fibre_transition)}"
        )
    allowed = frozenset(chart.all_coords)
    for component in fibre_transition:
        _check_component_variables(component, allowed, "fibre transition component")
    for component in fibre_transition:
        for leaf in chart.base.leaf_coords:
            if not component.partial(leaf).is_zero():
                return False
    return True


def is_foliated_function(f: Expression, chart: AdaptedChart) -> bool:
    """True iff f is constant on leaves: every leaf partial vanishes."""
    _check_component_variables(f, frozenset(chart.coords), "function")
    return all(f.partial(leaf).is_zero() for leaf in chart.leaf_coords)
