"""Command dispatch producing pass/fail reports.

Each verb resolves named objects from a parsed document, runs the matching
library operations, and returns a Report whose entries are deterministic in
document order.  Input problems (unknown names, kind mismatches) raise
InputError; a returned Report with a failing check means a mathematical
check did not hold.  `verify` builds the first splitting's extension and,
with two splittings, Delta = s1(Q) - s2(Q) from one leafwise difference Q.
`check` builds each Leibniz right-hand side,
d~a ^ b + (-1)^p a ^ d~b, as one `forms._wedge_sum`, so where a form is
paired with itself the mirrored products meet in one sum of products: they
cancel or double there instead of being formed twice.
"""

from __future__ import annotations

from .charts import (
    _Record,
    _require,
    _set,
    _tuple,
    check_adapted_transition,
    check_foliated_bundle_transition,
    is_foliated_function,
)
from .connections import Connection, LeafwiseConnection, restrict_connection
from .dsl import DeclaredTransition, Document
from .errors import InputError
from .extension import Splitting, _dependence, _difference, _extension, extend_connection
from .expr import _product_sum
from .forms import (
    _wedge_sum,
    exterior_differential,
    leafwise_differential,
    restrict_form,
    wedge,
)


class CheckResult(_Record):
    __slots__ = ("name", "status", "payload")

    def __init__(self, name: str, status: str, payload: str = ""):
        _set(self, "name", name)
        _set(self, "status", status)  # "pass" | "fail"
        _set(self, "payload", payload)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Report(_Record):
    __slots__ = ("command", "checks")

    def __init__(self, command: str, checks: tuple[CheckResult, ...]):
        _set(self, "command", command)
        _set(self, "checks", _tuple("Report", checks, CheckResult))

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_text(self) -> str:
        lines = []
        for check in self.checks:
            line = f"[{check.status}] {check.name}"
            if check.payload:
                line += f": {check.payload}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # only here: the text report is the common case
        return json.dumps(
            {
                "command": self.command,
                "checks": [
                    {"name": c.name, "status": c.status, "payload": c.payload}
                    for c in self.checks
                ],
            },
            indent=2,
        )


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _identity(name: str, residual) -> CheckResult:
    # An identity holds when its residual vanishes; a failure shows it.
    holds = residual.is_zero()
    return CheckResult(name, _status(holds), "" if holds else str(residual))


def _payload_lines(name: str, value) -> str:
    lines = value.assignment_lines(name)
    return "; ".join(lines) if lines else f"{name} = 0"


def run_command(verb: str, document: Document, names=()) -> Report:
    """Run one CLI verb against a document and collect its checks."""
    _require("run_command", (verb, str), (document, Document))
    names = _tuple("run_command", names)
    handler = _HANDLERS.get(verb)
    if handler is None:
        raise InputError(f"unknown command {verb!r}")
    return Report(verb, handler(document, names))


def _run_check(document: Document, names) -> list[CheckResult]:
    if names:
        raise InputError("check takes no --name arguments")
    results: list[CheckResult] = []
    base_coords = frozenset(document.base.coords)
    groups = []
    kinds = (("form", leafwise_differential), ("exterior_form", exterior_differential))
    for kind, differential in kinds:
        objects = document.of_kind(kind)
        # Each form's differential, built once for every check below.
        ds = [differential(obj.value) for obj in objects]
        groups.append((objects, ds, differential))
        for obj, d in zip(objects, ds):
            form = obj.value
            results.append(_identity(f"{kind}.{obj.name}.d_squared", differential(d)))
            if kind == "exterior_form":
                commuted = restrict_form(d) - leafwise_differential(restrict_form(form))
                results.append(_identity(f"exterior_form.{obj.name}.restrict_commutes", commuted))
            elif form.degree == 0 and (value := form.function_value()).variables() <= base_coords:
                foliated = is_foliated_function(value, document.base)
                status = _status(foliated == d.is_zero())
                payload = "foliated" if foliated else "not foliated"
                results.append(CheckResult(f"form.{obj.name}.foliated_kernel", status, payload))
    for objects, ds, differential in groups:
        for i, (left, d_left) in enumerate(zip(objects, ds)):
            for right, d_right in zip(objects[i:], ds[i:]):
                a, b = left.value, right.value
                rhs = _wedge_sum(((d_left, b, False), (a, d_right, a.degree % 2 == 1)))
                residual = differential(wedge(a, b)) - rhs
                results.append(_identity(f"leibniz.{left.name}.{right.name}", residual))
    for obj in document.of_kind("transition"):
        transition: DeclaredTransition = obj.value
        adapted = check_adapted_transition(transition.base_map, document.base)
        results.append(CheckResult(f"transition.{obj.name}.adapted", _status(adapted)))
        if transition.fibre_components is not None:
            foliated = check_foliated_bundle_transition(
                transition.fibre_components, document.bundle
            )
            results.append(
                CheckResult(f"transition.{obj.name}.foliated_bundle", _status(foliated))
            )
    return results


def _named(document: Document, names, verb: str, kinds: tuple[str, ...], count: int):
    # The objects a diff, wedge or restrict names: count of them, each of
    # one of kinds.
    if len(names) != count:
        wanted = "one --name" if count == 1 else "two --name arguments"
        raise InputError(f"{verb} takes exactly {wanted}")
    objects = [document.lookup(name) for name in names]
    for obj in objects:
        if obj.kind not in kinds:
            raise InputError(f"{verb}: object {obj.name!r} has kind {obj.kind!r}, "
                             f"expected {' or '.join(kinds)}")
    return objects


def _run_diff(document: Document, names) -> list[CheckResult]:
    (obj,) = _named(document, names, "diff", ("form", "exterior_form"), 1)
    if obj.kind == "form":
        result = leafwise_differential(obj.value)
    else:
        result = exterior_differential(obj.value)
    return [CheckResult(f"diff.{obj.name}", "pass", str(result))]


def _run_wedge(document: Document, names) -> list[CheckResult]:
    left, right = _named(document, names, "wedge", ("form", "exterior_form"), 2)
    if left.kind != right.kind:
        raise InputError(
            f"wedge: {left.name!r} and {right.name!r} are forms of different kinds"
        )
    result = wedge(left.value, right.value)
    return [CheckResult(f"wedge.{left.name}.{right.name}", "pass", str(result))]


def _run_restrict(document: Document, names) -> list[CheckResult]:
    (obj,) = _named(document, names, "restrict", ("exterior_form", "connection"), 1)
    if obj.kind == "exterior_form":
        return [CheckResult(f"restrict.{obj.name}", "pass", str(restrict_form(obj.value)))]
    restricted = restrict_connection(obj.value)
    payload = _payload_lines(f"{obj.name}_F", restricted)
    return [CheckResult(f"restrict.{obj.name}", "pass", payload)]


def _pick_extension_inputs(document: Document, names, verb: str, max_splittings: int):
    leafwise: LeafwiseConnection | None = None
    reference: Connection | None = None
    splittings: list[Splitting] = []
    for name in names:
        obj = document.lookup(name)
        if obj.kind == "leafwise_connection":
            if leafwise is not None:
                raise InputError(f"{verb}: more than one leafwise_connection named")
            leafwise = obj.value
        elif obj.kind == "connection":
            if reference is not None:
                raise InputError(f"{verb}: more than one connection named")
            reference = obj.value
        elif obj.kind == "splitting":
            if len(splittings) >= max_splittings:
                raise InputError(f"{verb}: too many splittings named")
            splittings.append(obj.value)
        else:
            raise InputError(
                f"{verb}: object {obj.name!r} has kind {obj.kind!r}, expected "
                "leafwise_connection, connection, or splitting"
            )
    if leafwise is None:
        raise InputError(f"{verb} needs a leafwise_connection --name")
    if not splittings:
        raise InputError(f"{verb} needs a splitting --name")
    return leafwise, reference, splittings


def _run_extend(document: Document, names) -> list[CheckResult]:
    leafwise, reference, splittings = _pick_extension_inputs(
        document, names, "extend", max_splittings=1
    )
    extended = extend_connection(leafwise, reference, splittings[0])
    return [CheckResult("extension", "pass", _payload_lines("Gamma'", extended))]


def _run_verify(document: Document, names) -> list[CheckResult]:
    leafwise, reference, splittings = _pick_extension_inputs(
        document, names, "verify", max_splittings=2
    )
    # The first extension and, with two splittings, Delta, from one Q.
    gamma, difference = _difference(leafwise, reference, *splittings)
    first = _extension(gamma, difference, splittings[0])
    round_trip = _status(restrict_connection(first) == leafwise)
    results = [CheckResult("extension.round_trip", round_trip, _payload_lines("Gamma'", first))]
    if len(splittings) == 2:
        delta = _dependence(difference, *splittings)
        leaf_zero = all(coord >= delta.chart.dim_leaf for _, coord in delta.coefficients)
        shape = _status(leaf_zero and _dependence_matches(leafwise, reference, splittings, delta))
        results.append(CheckResult("extension.dependence", shape, _payload_lines("Delta", delta)))
    return results


def _dependence_matches(leafwise, reference, splittings, delta) -> bool:
    # Transverse entries must equal -(B1-B2)[alpha][A] * Q[i][alpha], summed
    # over the leaf index, with Q = A - Gamma|F read slot by slot (no
    # reference reads as zero): a dense check that builds no extension.
    chart = delta.chart
    first, second = splittings
    held = reference.coefficients if reference else {}
    for fibre in range(chart.fibre_dim):
        q = [leafwise.coefficient(fibre, leaf) - held.get((fibre, leaf), 0)
             for leaf in range(chart.dim_leaf)]
        for trans in range(chart.dim_leaf, chart.dim):
            expected = _product_sum([
                (first.coefficient(leaf, trans) - second.coefficient(leaf, trans), q[leaf], True)
                for leaf in range(chart.dim_leaf)
            ])
            if delta.coefficient(fibre, trans) != expected:
                return False
    return True


_HANDLERS = {
    "check": _run_check,
    "diff": _run_diff,
    "wedge": _run_wedge,
    "restrict": _run_restrict,
    "extend": _run_extend,
    "verify": _run_verify,
}
VERBS = tuple(_HANDLERS)
