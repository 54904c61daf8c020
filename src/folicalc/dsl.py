"""Text format for charts, forms, connections, splittings, and transitions.

Grammar (whitespace-insensitive between tokens, '#' comments to end of line):

    document := block+
    block    := kind name? '{' item* '}'
    item     := key index* '=' expr | key value+
    index    := '[' identifier ']'

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' natural)?
    base     := rational | identifier | '(' expr ')' | '-' base
    rational := integer ('/' positive-integer)?

Block kinds: one mandatory `manifold` (items `dim N`, `leaf N`,
`coords z1 ...`), an optional `bundle` (item `fibre u ...`), and named object
blocks `form`, `exterior_form`, `connection`, `leafwise_connection`,
`splitting`, `section`, `transition`.  Assignments inside an object block use
the block's own name as key; coefficient slots index as name[fibre][coord]
for connections, name[coord]... for forms, name[leaf][transverse] for
splittings, name[fibre] for sections, and name[coord] for transitions.
Unassigned coefficients default to zero; unassigned transition components
default to the identity.  Multi-indices must be written strictly increasing.
A `form` or `exterior_form` block may carry an explicit `degree N` item,
which is how a zero form of positive degree is written down.

Directive items of known single arity (`dim`, `leaf`, `degree`) consume one
value; list directives (`coords`, `fibre`) consume values greedily, so they
belong last in their block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .charts import (
    AdaptedChart,
    BundleChart,
    Chart,
    TransitionMap,
    allowed_variables,
    base_chart,
)
from .connections import BundleSection, Connection, LeafwiseConnection
from .errors import InputError, ParseError
from .expr import Expression
from .extension import Splitting
from .forms import ExteriorForm, LeafwiseForm

_MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[{}\[\]()=+\-*^/])
    """,
    re.VERBOSE,
)

_OBJECT_KINDS = (
    "form",
    "exterior_form",
    "connection",
    "leafwise_connection",
    "splitting",
    "section",
    "transition",
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "ident", "eof", or the operator character itself
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[Token]:
    # A generator, so that a syntax error costs only the text before it.
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        value = match.group()
        column = pos - line_start + 1
        if kind == "number" or kind == "ident":
            yield Token(kind, value, line, column)
        elif kind == "op":
            yield Token(value, value, line, column)
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = match.end()
    yield Token("eof", "", line, len(text) - line_start + 1)


def _integer(token: Token) -> int:
    try:
        return int(token.text)
    except ValueError:
        # Longer than the interpreter's int/str conversion limit.
        raise ParseError(
            f"integer literal has too many digits ({len(token.text)})",
            token.line,
            token.column,
        ) from None


# -- raw syntax ---------------------------------------------------------------


@dataclass
class RawAssign:
    key: Token
    indices: list[Token]
    expr: Expression
    expr_token: Token


@dataclass
class RawDirective:
    key: Token
    values: list[Token]


@dataclass
class RawBlock:
    kind: Token
    name: Token | None
    items: list


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.ahead: list[Token] = []  # tokens pulled but not yet consumed
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        ahead = self.ahead
        while len(ahead) <= offset:
            if ahead and ahead[-1].kind == "eof":
                return ahead[-1]
            ahead.append(next(self.tokens))
        return ahead[offset]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            del self.ahead[0]
        return token

    def error(self, message: str, token: Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def expect(self, kind: str, description: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            shown = token.text or "end of input"
            self.error(f"expected {description}, found {shown!r}", token)
        return self.advance()

    # -- expression grammar --------------------------------------------------

    def parse_expression(self) -> Expression:
        # All terms go into one sum at the end: folding `value + right` per
        # operator would copy the partial sum each time, which is quadratic.
        added = [self._term()]
        subtracted = []
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            (added if op.kind == "+" else subtracted).append(self._term())
        return Expression.sum(added, subtracted)

    def _term(self) -> Expression:
        value = self._factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self._factor()
        return value

    def _factor(self) -> Expression:
        value = self._base()
        if self.peek().kind == "^":
            self.advance()
            exponent_token = self.expect("number", "a natural number exponent")
            value = value ** _integer(exponent_token)
        return value

    def _base(self) -> Expression:
        negations = 0
        while self.peek().kind == "-":
            self.advance()
            negations += 1
        token = self.peek()
        if token.kind == "number":
            self.advance()
            numerator = _integer(token)
            if self.peek().kind == "/":
                self.advance()
                denominator_token = self.expect("number", "a positive denominator")
                denominator = _integer(denominator_token)
                if denominator == 0:
                    self.error("denominator must be positive", denominator_token)
                value = Expression.constant(Fraction(numerator, denominator))
            else:
                value = Expression.constant(numerator)
        elif token.kind == "ident":
            self.advance()
            value = Expression.variable(token.text)
        elif token.kind == "(":
            if self.depth >= _MAX_NESTING:
                self.error("expression is nested too deeply", token)
            self.depth += 1
            self.advance()
            value = self.parse_expression()
            self.expect(")", "')'")
            self.depth -= 1
        else:
            shown = token.text or "end of input"
            self.error(f"expected an expression, found {shown!r}", token)
        return -value if negations % 2 else value

    # -- document grammar ------------------------------------------------------

    def parse_blocks(self) -> list[RawBlock]:
        blocks = []
        if self.peek().kind == "eof":
            self.error("expected a block")
        while self.peek().kind != "eof":
            blocks.append(self._block())
        return blocks

    def _block(self) -> RawBlock:
        kind = self.expect("ident", "a block kind")
        name = None
        if self.peek().kind == "ident":
            name = self.advance()
        self.expect("{", "'{'")
        items = []
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                self.error("unterminated block (missing '}')")
            items.append(self._item())
        self.advance()
        return RawBlock(kind, name, items)

    def _item(self):
        key = self.expect("ident", "an item key")
        if self.peek().kind in ("[", "="):
            indices = []
            while self.peek().kind == "[":
                self.advance()
                indices.append(self.expect("ident", "an index name"))
                self.expect("]", "']'")
            self.expect("=", "'='")
            expr_token = self.peek()
            expr = self.parse_expression()
            return RawAssign(key, indices, expr, expr_token)
        values = []
        if key.text in ("dim", "leaf", "degree"):
            token = self.peek()
            if token.kind not in ("number", "ident"):
                self.error(f"expected a value after {key.text!r}", token)
            values.append(self.advance())
        else:
            while True:
                token = self.peek()
                if token.kind == "number":
                    values.append(self.advance())
                elif token.kind == "ident" and self.peek(1).kind not in ("[", "="):
                    values.append(self.advance())
                else:
                    break
            if not values:
                self.error(f"expected a value after {key.text!r}")
        return RawDirective(key, values)


def parse_expression(text: str) -> Expression:
    """Parse a standalone polynomial expression."""
    parser = _Parser(text)
    value = parser.parse_expression()
    if parser.peek().kind != "eof":
        parser.error(f"unexpected {parser.peek().text!r} after expression")
    return value


# -- documents -----------------------------------------------------------------


@dataclass(frozen=True)
class DeclaredTransition:
    """A transition block: a base coordinate change plus, over a bundle,
    optional fibre transition components."""

    base_map: TransitionMap
    fibre_components: tuple[Expression, ...] | None = None


@dataclass(frozen=True)
class DocumentObject:
    kind: str
    name: str
    value: object


@dataclass(frozen=True)
class Document:
    """A parsed input file: one chart plus named objects in declaration order."""

    chart: Chart
    objects: tuple[DocumentObject, ...]

    @property
    def base(self) -> AdaptedChart:
        return base_chart(self.chart)

    @property
    def bundle(self) -> BundleChart | None:
        return self.chart if isinstance(self.chart, BundleChart) else None

    def lookup(self, name: str) -> DocumentObject:
        for obj in self.objects:
            if obj.name == name:
                return obj
        raise InputError(f"unknown object {name!r}")

    def of_kind(self, *kinds: str) -> list[DocumentObject]:
        return [obj for obj in self.objects if obj.kind in kinds]


def parse_document(text: str) -> Document:
    """Parse and validate a document, or raise a positioned ParseError."""
    parser = _Parser(text)
    return _build_document(parser.parse_blocks())


# -- semantic construction ------------------------------------------------------


def _directive_map(block: RawBlock, allowed: tuple[str, ...]) -> dict[str, RawDirective]:
    out: dict[str, RawDirective] = {}
    for item in block.items:
        if isinstance(item, RawAssign):
            raise ParseError(
                f"{block.kind.text} block takes no assignments",
                item.key.line,
                item.key.column,
            )
        if item.key.text not in allowed:
            raise ParseError(
                f"unknown item {item.key.text!r} in {block.kind.text} block",
                item.key.line,
                item.key.column,
            )
        if item.key.text in out:
            raise ParseError(
                f"duplicate {item.key.text!r} item", item.key.line, item.key.column
            )
        out[item.key.text] = item
    return out


def _natural(directive: RawDirective, what: str) -> int:
    token = directive.values[0]
    if token.kind != "number":
        raise ParseError(f"{what} takes a number", token.line, token.column)
    return _integer(token)


def _name_list(directive: RawDirective, what: str) -> list[Token]:
    for token in directive.values:
        if token.kind != "ident":
            raise ParseError(f"{what} takes coordinate names", token.line, token.column)
    return directive.values


def _build_chart(blocks: list[RawBlock]) -> Chart:
    manifolds = [b for b in blocks if b.kind.text == "manifold"]
    if not manifolds:
        first = blocks[0].kind
        raise ParseError("a manifold block is required", first.line, first.column)
    if len(manifolds) > 1:
        extra = manifolds[1].kind
        raise ParseError("duplicate manifold block", extra.line, extra.column)
    manifold = manifolds[0]
    directives = _directive_map(manifold, ("dim", "leaf", "coords"))
    for required in ("dim", "leaf", "coords"):
        if required not in directives:
            raise ParseError(
                f"manifold block needs a {required!r} item",
                manifold.kind.line,
                manifold.kind.column,
            )
    dim = _natural(directives["dim"], "dim")
    leaf = _natural(directives["leaf"], "leaf")
    coord_tokens = _name_list(directives["coords"], "coords")
    if leaf < 1:
        token = directives["leaf"].values[0]
        raise ParseError("leaf dimension must be at least 1", token.line, token.column)
    if leaf > dim:
        token = directives["leaf"].values[0]
        raise ParseError("leaf dimension exceeds dim", token.line, token.column)
    if len(coord_tokens) != dim:
        token = directives["coords"].key
        raise ParseError(
            f"coords lists {len(coord_tokens)} names, dim is {dim}",
            token.line,
            token.column,
        )
    seen: set[str] = set()
    for token in coord_tokens:
        if token.text in seen:
            raise ParseError(
                f"duplicate coordinate {token.text!r}", token.line, token.column
            )
        seen.add(token.text)
    names = [t.text for t in coord_tokens]
    base = AdaptedChart(tuple(names[:leaf]), tuple(names[leaf:]))

    bundles = [b for b in blocks if b.kind.text == "bundle"]
    if len(bundles) > 1:
        extra = bundles[1].kind
        raise ParseError("duplicate bundle block", extra.line, extra.column)
    if not bundles:
        return base
    bundle = bundles[0]
    fibre_directives = _directive_map(bundle, ("fibre",))
    if "fibre" not in fibre_directives:
        raise ParseError(
            "bundle block needs a 'fibre' item", bundle.kind.line, bundle.kind.column
        )
    fibre_tokens = _name_list(fibre_directives["fibre"], "fibre")
    for token in fibre_tokens:
        if token.text in seen:
            raise ParseError(
                f"fibre name {token.text!r} collides with a coordinate",
                token.line,
                token.column,
            )
        seen.add(token.text)
    return BundleChart(base, tuple(t.text for t in fibre_tokens))


def _check_expr_vars(assign: RawAssign, allowed: frozenset[str], context: str):
    extra = assign.expr.variables() - allowed
    if extra:
        name = sorted(extra)[0]
        raise ParseError(
            f"variable {name!r} is not available in {context}",
            assign.expr_token.line,
            assign.expr_token.column,
        )


def _assignments(block: RawBlock, name: str, extra_directives=()) -> list[RawAssign]:
    out = []
    for item in block.items:
        if isinstance(item, RawDirective):
            if item.key.text in extra_directives:
                continue
            raise ParseError(
                f"unexpected item {item.key.text!r} in {block.kind.text} block",
                item.key.line,
                item.key.column,
            )
        if item.key.text != name:
            raise ParseError(
                f"assignments in this block must use its name {name!r}",
                item.key.line,
                item.key.column,
            )
        out.append(item)
    return out


def _find_directive(block: RawBlock, key: str) -> RawDirective | None:
    for item in block.items:
        if isinstance(item, RawDirective) and item.key.text == key:
            return item
    return None


def _coordinate_position(token: Token, base: AdaptedChart) -> int:
    if token.text not in base.coords:
        raise ParseError(
            f"unknown coordinate {token.text!r}", token.line, token.column
        )
    return base.coords.index(token.text)


def _build_form(block: RawBlock, name: str, chart: Chart, leafwise: bool):
    base = base_chart(chart)
    limit = base.dim_leaf if leafwise else base.dim
    what = "form" if leafwise else "exterior_form"
    degree = None
    directive = _find_directive(block, "degree")
    if directive is not None:
        degree = _natural(directive, "degree")
    components: dict[tuple[int, ...], Expression] = {}
    assigned: set[tuple[int, ...]] = set()
    for assign in _assignments(block, name, extra_directives=("degree",)):
        positions = []
        for token in assign.indices:
            position = _coordinate_position(token, base)
            if leafwise and position >= limit:
                raise ParseError(
                    f"{token.text!r} is not a leaf coordinate",
                    token.line,
                    token.column,
                )
            positions.append(position)
        index = tuple(positions)
        if any(a >= b for a, b in zip(index, index[1:])):
            token = assign.indices[0]
            raise ParseError(
                "multi-index must be strictly increasing", token.line, token.column
            )
        if index in assigned:
            raise ParseError(
                f"duplicate assignment to {name!r}",
                assign.key.line,
                assign.key.column,
            )
        assigned.add(index)
        if degree is None:
            degree = len(index)
        elif len(index) != degree:
            raise ParseError(
                f"multi-index length {len(index)} disagrees with degree {degree}",
                assign.key.line,
                assign.key.column,
            )
        _check_expr_vars(assign, allowed_variables(chart), f"a {what} coefficient")
        if not assign.expr.is_zero():
            components[index] = assign.expr
    if degree is None:
        degree = 0
    kind = LeafwiseForm if leafwise else ExteriorForm
    return kind(chart, degree, components)


def _two_indices(assign: RawAssign, usage: str):
    if len(assign.indices) != 2:
        raise ParseError(
            f"coefficients here are indexed as {usage}",
            assign.key.line,
            assign.key.column,
        )
    return assign.indices


def _build_table(block: RawBlock, name: str, chart: BundleChart, leaf_only: bool):
    base = chart.base
    table: dict[tuple[int, int], Expression] = {}
    assigned: set[tuple[int, int]] = set()
    for assign in _assignments(block, name):
        fibre_token, coord_token = _two_indices(assign, f"{name}[fibre][coordinate]")
        if fibre_token.text not in chart.fibre_coords:
            raise ParseError(
                f"unknown fibre coordinate {fibre_token.text!r}",
                fibre_token.line,
                fibre_token.column,
            )
        fibre = chart.fibre_coords.index(fibre_token.text)
        coord = _coordinate_position(coord_token, base)
        if leaf_only and coord >= base.dim_leaf:
            raise ParseError(
                f"{coord_token.text!r} is not a leaf coordinate",
                coord_token.line,
                coord_token.column,
            )
        if (fibre, coord) in assigned:
            raise ParseError(
                f"duplicate assignment to {name!r}",
                assign.key.line,
                assign.key.column,
            )
        assigned.add((fibre, coord))
        _check_expr_vars(
            assign, allowed_variables(chart), "a connection coefficient"
        )
        if not assign.expr.is_zero():
            table[(fibre, coord)] = assign.expr
    return table


def _build_splitting(block: RawBlock, name: str, chart: Chart) -> Splitting:
    base = base_chart(chart)
    table: dict[tuple[int, int], Expression] = {}
    assigned: set[tuple[int, int]] = set()
    for assign in _assignments(block, name):
        leaf_token, trans_token = _two_indices(assign, f"{name}[leaf][transverse]")
        leaf = _coordinate_position(leaf_token, base)
        if leaf >= base.dim_leaf:
            raise ParseError(
                f"{leaf_token.text!r} is not a leaf coordinate",
                leaf_token.line,
                leaf_token.column,
            )
        trans = _coordinate_position(trans_token, base)
        if trans < base.dim_leaf:
            raise ParseError(
                f"{trans_token.text!r} is not a transverse coordinate",
                trans_token.line,
                trans_token.column,
            )
        if (leaf, trans) in assigned:
            raise ParseError(
                f"duplicate assignment to {name!r}",
                assign.key.line,
                assign.key.column,
            )
        assigned.add((leaf, trans))
        _check_expr_vars(
            assign, frozenset(base.coords), "a splitting coefficient (base only)"
        )
        if not assign.expr.is_zero():
            table[(leaf, trans)] = assign.expr
    return Splitting(base, table)


def _build_section(block: RawBlock, name: str, chart: BundleChart) -> BundleSection:
    components: dict[int, Expression] = {}
    for assign in _assignments(block, name):
        if len(assign.indices) != 1:
            raise ParseError(
                f"section components are indexed as {name}[fibre]",
                assign.key.line,
                assign.key.column,
            )
        token = assign.indices[0]
        if token.text not in chart.fibre_coords:
            raise ParseError(
                f"unknown fibre coordinate {token.text!r}", token.line, token.column
            )
        fibre = chart.fibre_coords.index(token.text)
        if fibre in components:
            raise ParseError(
                f"duplicate assignment to {name!r}",
                assign.key.line,
                assign.key.column,
            )
        _check_expr_vars(
            assign, frozenset(chart.base.coords), "a section component (base only)"
        )
        components[fibre] = assign.expr
    return BundleSection(chart, components)


def _build_transition(block: RawBlock, name: str, chart: Chart) -> DeclaredTransition:
    base = base_chart(chart)
    bundle = chart if isinstance(chart, BundleChart) else None
    base_components: dict[int, Expression] = {}
    fibre_components: dict[int, Expression] = {}
    for assign in _assignments(block, name):
        if len(assign.indices) != 1:
            raise ParseError(
                f"transition components are indexed as {name}[coordinate]",
                assign.key.line,
                assign.key.column,
            )
        token = assign.indices[0]
        if token.text in base.coords:
            position = base.coords.index(token.text)
            if position in base_components:
                raise ParseError(
                    f"duplicate assignment to {name!r}",
                    assign.key.line,
                    assign.key.column,
                )
            _check_expr_vars(
                assign, frozenset(base.coords), "a base transition component"
            )
            base_components[position] = assign.expr
        elif bundle is not None and token.text in bundle.fibre_coords:
            position = bundle.fibre_coords.index(token.text)
            if position in fibre_components:
                raise ParseError(
                    f"duplicate assignment to {name!r}",
                    assign.key.line,
                    assign.key.column,
                )
            _check_expr_vars(
                assign, allowed_variables(chart), "a fibre transition component"
            )
            fibre_components[position] = assign.expr
        else:
            raise ParseError(
                f"unknown coordinate {token.text!r}", token.line, token.column
            )
    components = tuple(
        base_components.get(i, Expression.variable(name_))
        for i, name_ in enumerate(base.coords)
    )
    fibre_part = None
    if fibre_components:
        fibre_part = tuple(
            fibre_components.get(i, Expression.variable(name_))
            for i, name_ in enumerate(bundle.fibre_coords)
        )
    return DeclaredTransition(TransitionMap(base, components), fibre_part)


def _build_document(blocks: list[RawBlock]) -> Document:
    chart = _build_chart(blocks)
    bundle = chart if isinstance(chart, BundleChart) else None
    objects: list[DocumentObject] = []
    names: set[str] = set()
    for block in blocks:
        kind = block.kind.text
        if kind in ("manifold", "bundle"):
            continue
        if kind not in _OBJECT_KINDS:
            raise ParseError(
                f"unknown block kind {kind!r}", block.kind.line, block.kind.column
            )
        if block.name is None:
            raise ParseError(
                f"{kind} block needs a name", block.kind.line, block.kind.column
            )
        name = block.name.text
        if name in names:
            raise ParseError(
                f"duplicate name {name!r}", block.name.line, block.name.column
            )
        names.add(name)
        if kind in ("connection", "leafwise_connection", "section") and bundle is None:
            raise ParseError(
                f"a bundle block is required for a {kind}",
                block.kind.line,
                block.kind.column,
            )
        if kind == "form":
            value = _build_form(block, name, chart, leafwise=True)
        elif kind == "exterior_form":
            value = _build_form(block, name, chart, leafwise=False)
        elif kind == "connection":
            value = Connection(bundle, _build_table(block, name, bundle, leaf_only=False))
        elif kind == "leafwise_connection":
            value = LeafwiseConnection(
                bundle, _build_table(block, name, bundle, leaf_only=True)
            )
        elif kind == "splitting":
            value = _build_splitting(block, name, chart)
        elif kind == "section":
            value = _build_section(block, name, bundle)
        else:
            value = _build_transition(block, name, chart)
        objects.append(DocumentObject(kind, name, value))
    return Document(chart, tuple(objects))


# -- canonical printing -----------------------------------------------------------


def form_assignment_lines(name: str, form) -> list[str]:
    """Document assignment lines for a form, sorted by multi-index."""
    names = base_chart(form.chart).coords
    lines = []
    if not form.components and form.degree > 0:
        lines.append(f"degree {form.degree}")
    for index in sorted(form.components):
        suffix = "".join(f"[{names[i]}]" for i in index)
        lines.append(f"{name}{suffix} = {form.components[index]}")
    return lines


def _transition_lines(name: str, transition: DeclaredTransition, chart: Chart) -> list[str]:
    base = base_chart(chart)
    lines = []
    for coord, component in zip(base.coords, transition.base_map.components):
        if component != Expression.variable(coord):
            lines.append(f"{name}[{coord}] = {component}")
    if transition.fibre_components is not None and isinstance(chart, BundleChart):
        for coord, component in zip(chart.fibre_coords, transition.fibre_components):
            if component != Expression.variable(coord):
                lines.append(f"{name}[{coord}] = {component}")
    return lines


def print_document(document: Document) -> str:
    """Canonical text for a document; parsing it back yields an equal Document."""
    base = document.base
    blocks: list[str] = []
    manifold_lines = [
        f"dim {base.dim}",
        f"leaf {base.dim_leaf}",
        "coords " + " ".join(base.coords),
    ]
    blocks.append(_block_text("manifold", None, manifold_lines))
    bundle = document.bundle
    if bundle is not None:
        blocks.append(
            _block_text("bundle", None, ["fibre " + " ".join(bundle.fibre_coords)])
        )
    for obj in document.objects:
        if obj.kind in ("form", "exterior_form"):
            lines = form_assignment_lines(obj.name, obj.value)
        elif obj.kind == "transition":
            lines = _transition_lines(obj.name, obj.value, document.chart)
        else:
            lines = obj.value.assignment_lines(obj.name)
        blocks.append(_block_text(obj.kind, obj.name, lines))
    return "\n\n".join(blocks) + "\n"


def _block_text(kind: str, name: str | None, lines: list[str]) -> str:
    header = f"{kind} {name} {{" if name else f"{kind} {{"
    if not lines:
        return header + "}"
    body = "\n".join(f"  {line}" for line in lines)
    return f"{header}\n{body}\n}}"
