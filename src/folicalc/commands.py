"""Command dispatch producing pass/fail reports.

Each verb resolves named objects from a parsed document, runs the matching
library operations, and returns a Report whose entries are deterministic in
document order.  Input problems (unknown names, kind mismatches) raise
InputError; a returned Report with a failing check means a mathematical
check did not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .charts import (
    check_adapted_transition,
    check_foliated_bundle_transition,
    is_foliated_function,
)
from .connections import (
    Connection,
    LeafwiseConnection,
    connection_difference,
    restrict_connection,
)
from .dsl import DeclaredTransition, Document, DocumentObject
from .errors import InputError
from .extension import Splitting, extend_connection, extension_dependence, verify_extension
from .expr import Expression
from .forms import (
    exterior_differential,
    form_add,
    leafwise_differential,
    restrict_form,
    wedge,
)

VERBS = ("check", "diff", "wedge", "restrict", "extend", "verify")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    payload: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Report:
    command: str
    checks: tuple[CheckResult, ...]

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


def _payload_lines(name: str, value) -> str:
    lines = value.assignment_lines(name)
    return "; ".join(lines) if lines else f"{name} = 0"


def run_command(verb: str, document: Document, names=()) -> Report:
    """Run one CLI verb against a document and collect its checks."""
    names = list(names)
    if verb not in VERBS:
        raise InputError(f"unknown command {verb!r}")
    handler = {
        "check": _run_check,
        "diff": _run_diff,
        "wedge": _run_wedge,
        "restrict": _run_restrict,
        "extend": _run_extend,
        "verify": _run_verify,
    }[verb]
    return Report(verb, tuple(handler(document, names)))


def _expect_kind(obj: DocumentObject, kinds: tuple[str, ...], verb: str):
    if obj.kind not in kinds:
        wanted = " or ".join(kinds)
        raise InputError(f"{verb}: object {obj.name!r} has kind {obj.kind!r}, expected {wanted}")


def _run_check(document: Document, names) -> list[CheckResult]:
    if names:
        raise InputError("check takes no --name arguments")
    results: list[CheckResult] = []
    leafwise = document.of_kind("form")
    exterior = document.of_kind("exterior_form")
    for obj in leafwise:
        form = obj.value
        residual = leafwise_differential(leafwise_differential(form))
        results.append(
            CheckResult(
                f"form.{obj.name}.d_squared",
                _status(residual.is_zero()),
                "" if residual.is_zero() else str(residual),
            )
        )
        if form.degree == 0:
            value = form.function_value()
            if value.variables() <= frozenset(document.base.coords):
                foliated = is_foliated_function(value, document.base)
                kernel = leafwise_differential(form).is_zero()
                results.append(
                    CheckResult(
                        f"form.{obj.name}.foliated_kernel",
                        _status(foliated == kernel),
                        "foliated" if foliated else "not foliated",
                    )
                )
    for obj in exterior:
        form = obj.value
        residual = exterior_differential(exterior_differential(form))
        results.append(
            CheckResult(
                f"exterior_form.{obj.name}.d_squared",
                _status(residual.is_zero()),
                "" if residual.is_zero() else str(residual),
            )
        )
        commuted = form_add(
            restrict_form(exterior_differential(form)),
            -leafwise_differential(restrict_form(form)),
        )
        results.append(
            CheckResult(
                f"exterior_form.{obj.name}.restrict_commutes",
                _status(commuted.is_zero()),
                "" if commuted.is_zero() else str(commuted),
            )
        )
    for group, differential in ((leafwise, leafwise_differential), (exterior, exterior_differential)):
        for i, left in enumerate(group):
            for right in group[i:]:
                a, b = left.value, right.value
                signed = wedge(a, differential(b))
                if a.degree % 2:
                    signed = -signed
                residual = differential(wedge(a, b)) - (wedge(differential(a), b) + signed)
                results.append(
                    CheckResult(
                        f"leibniz.{left.name}.{right.name}",
                        _status(residual.is_zero()),
                        "" if residual.is_zero() else str(residual),
                    )
                )
    for obj in document.of_kind("transition"):
        transition: DeclaredTransition = obj.value
        adapted = check_adapted_transition(transition.base_map, document.base)
        results.append(
            CheckResult(f"transition.{obj.name}.adapted", _status(adapted))
        )
        if transition.fibre_components is not None and document.bundle is not None:
            foliated = check_foliated_bundle_transition(
                transition.fibre_components, document.bundle
            )
            results.append(
                CheckResult(f"transition.{obj.name}.foliated_bundle", _status(foliated))
            )
    return results


def _run_diff(document: Document, names) -> list[CheckResult]:
    if len(names) != 1:
        raise InputError("diff takes exactly one --name")
    obj = document.lookup(names[0])
    _expect_kind(obj, ("form", "exterior_form"), "diff")
    if obj.kind == "form":
        result = leafwise_differential(obj.value)
    else:
        result = exterior_differential(obj.value)
    return [CheckResult(f"diff.{obj.name}", "pass", str(result))]


def _run_wedge(document: Document, names) -> list[CheckResult]:
    if len(names) != 2:
        raise InputError("wedge takes exactly two --name arguments")
    left = document.lookup(names[0])
    right = document.lookup(names[1])
    for obj in (left, right):
        _expect_kind(obj, ("form", "exterior_form"), "wedge")
    if left.kind != right.kind:
        raise InputError(
            f"wedge: {left.name!r} and {right.name!r} are forms of different kinds"
        )
    result = wedge(left.value, right.value)
    return [CheckResult(f"wedge.{left.name}.{right.name}", "pass", str(result))]


def _run_restrict(document: Document, names) -> list[CheckResult]:
    if len(names) != 1:
        raise InputError("restrict takes exactly one --name")
    obj = document.lookup(names[0])
    _expect_kind(obj, ("exterior_form", "connection"), "restrict")
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
    extended = extend_connection(leafwise, reference, splittings[0])
    round_trip = verify_extension(leafwise, reference, splittings[0])
    results = [
        CheckResult(
            "extension.round_trip",
            _status(round_trip),
            _payload_lines("Gamma'", extended),
        )
    ]
    if len(splittings) == 2:
        delta = extension_dependence(leafwise, reference, splittings[0], splittings[1])
        cutoff = delta.chart.dim_leaf
        leaf_zero = all(coord >= cutoff for _, coord in delta.coefficients)
        formula_ok = _dependence_matches(leafwise, reference, splittings, delta)
        results.append(
            CheckResult(
                "extension.dependence",
                _status(leaf_zero and formula_ok),
                _payload_lines("Delta", delta),
            )
        )
    return results


def _dependence_matches(leafwise, reference, splittings, delta) -> bool:
    # Transverse entries must equal -(B1-B2)[alpha][A] * Q[i][alpha], summed
    # over the leaf index.
    chart = delta.chart
    if reference is None:
        reference = Connection(chart)
    difference = connection_difference(leafwise, restrict_connection(reference))
    first, second = splittings
    for fibre in range(chart.fibre_dim):
        for trans in range(chart.dim_leaf, chart.dim):
            expected = Expression.zero()
            for leaf in range(chart.dim_leaf):
                weight = first.coefficient(leaf, trans) - second.coefficient(leaf, trans)
                expected = expected - weight * difference.coefficient(fibre, leaf)
            if delta.coefficient(fibre, trans) != expected:
                return False
    return True
