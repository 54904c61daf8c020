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

A term is built without ring operations on its numbers and names.  Number
factors fold into one integer numerator and denominator, identifier factors
into one {name: exponent} map, and the term becomes a single monomial with a
single coefficient; only parenthesised factors are raised and multiplied as
expressions.  This works because negation sits inside `^`: `-x^n` reads as
`(-x)^n`, so a run of minus signs before a factor is just the sign
(-1)^(minus signs * n) of the whole term, and `-z1^2` is `z1^2`.  A `^0`
factor is 1, whatever its base (`0^0` included).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .charts import (
    AdaptedChart,
    BundleChart,
    Chart,
    TransitionMap,
    allowed_variables,
    base_chart,
)
from .connections import BundleSection, Connection, LeafwiseConnection, _position
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
      | (?P<bad>.)
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


class Token(NamedTuple):
    kind: str  # "number", "ident", "eof", or the operator character itself
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[Token]:
    # A generator, so that a syntax error costs only the text before it.
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            # Only whitespace spans lines: a comment stops before its newline.
            value = match.group()
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + value.rfind("\n") + 1
        elif kind != "comment":
            value = match.group()
            column = match.start() - line_start + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}", line, column)
            yield Token(value if kind == "op" else kind, value, line, column)
    yield Token("eof", "", line, len(text) - line_start + 1)


def _error_at(token: Token, message: str) -> ParseError:
    return ParseError(message, token.line, token.column)


def _integer(token: Token) -> int:
    try:
        return int(token.text)
    except ValueError:
        # Longer than the interpreter's int/str conversion limit.
        raise _error_at(
            token, f"integer literal has too many digits ({len(token.text)})"
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
        self.token = next(self.tokens)  # the current token, not yet consumed
        self.following: Token | None = None  # pulled past it by lookahead()
        self.depth = 0

    def advance(self) -> Token:
        # Consume the current token and read the next one at once, so any
        # check on a token's value must run before its advance().
        token = self.token
        if self.following is not None:
            self.token, self.following = self.following, None
        elif token.kind != "eof":
            self.token = next(self.tokens)
        return token

    def lookahead(self) -> Token:
        # The token after the current one.
        if self.following is None:
            token = self.token
            self.following = token if token.kind == "eof" else next(self.tokens)
        return self.following

    def error(self, message: str, token: Token | None = None):
        raise _error_at(token or self.token, message)

    def current(self, kind: str, description: str) -> Token:
        token = self.token
        if token.kind != kind:
            shown = token.text or "end of input"
            self.error(f"expected {description}, found {shown!r}", token)
        return token

    def expect(self, kind: str, description: str) -> Token:
        self.current(kind, description)
        return self.advance()

    # -- expression grammar --------------------------------------------------

    def parse_expression(self) -> Expression:
        # All terms go into one sum at the end: folding `value + right` per
        # operator would copy the partial sum each time, which is quadratic.
        added = [self._term()]
        subtracted = []
        while self.token.kind in ("+", "-"):
            op = self.advance()
            (added if op.kind == "+" else subtracted).append(self._term())
        return Expression.sum(added, subtracted)

    def _term(self) -> Expression:
        # Folds number and name factors into one coefficient and one monomial
        # (see the module docstring); only groups are ring products.
        numerator = denominator = 1
        exponents: dict[str, int] = {}
        groups = []
        while True:
            negations = 0
            while self.token.kind == "-":
                self.advance()
                negations += 1
            token = self.token
            kind = token.kind
            if kind == "number":
                value = _integer(token)
                self.advance()
                divisor = 1
                if self.token.kind == "/":
                    self.advance()
                    divisor = _integer(self.current("number", "a positive denominator"))
                    if divisor == 0:
                        self.error("denominator must be positive")
                    self.advance()
            elif kind == "ident":
                self.advance()
            elif kind == "(":
                if self.depth >= _MAX_NESTING:
                    self.error("expression is nested too deeply")
                self.depth += 1
                self.advance()
                value = self.parse_expression()
                self.expect(")", "')'")
                self.depth -= 1
            else:
                shown = token.text or "end of input"
                self.error(f"expected an expression, found {shown!r}")
            power = 1
            if self.token.kind == "^":
                self.advance()
                power = _integer(self.current("number", "a natural number exponent"))
                self.advance()
            if power:
                if negations & power & 1:
                    numerator = -numerator
                if kind == "number":
                    numerator *= value**power
                    denominator *= divisor**power
                elif kind == "ident":
                    exponents[token.text] = exponents.get(token.text, 0) + power
                else:
                    groups.append(value if power == 1 else value**power)
            if self.token.kind != "*":
                break
            self.advance()
        if not numerator:
            return Expression.zero()
        term = Expression._build(
            {tuple(sorted(exponents.items())): Fraction(numerator, denominator)}
        )
        for group in groups:
            term = term * group
        return term

    # -- document grammar ------------------------------------------------------

    def parse_blocks(self) -> list[RawBlock]:
        blocks = []
        if self.token.kind == "eof":
            self.error("expected a block")
        while self.token.kind != "eof":
            blocks.append(self._block())
        return blocks

    def _block(self) -> RawBlock:
        kind = self.expect("ident", "a block kind")
        name = None
        if self.token.kind == "ident":
            name = self.advance()
        self.expect("{", "'{'")
        items = []
        while self.token.kind != "}":
            if self.token.kind == "eof":
                self.error("unterminated block (missing '}')")
            items.append(self._item())
        self.advance()
        return RawBlock(kind, name, items)

    def _item(self):
        key = self.expect("ident", "an item key")
        if self.token.kind in ("[", "="):
            indices = []
            while self.token.kind == "[":
                self.advance()
                indices.append(self.expect("ident", "an index name"))
                self.expect("]", "']'")
            self.expect("=", "'='")
            expr_token = self.token
            expr = self.parse_expression()
            return RawAssign(key, indices, expr, expr_token)
        values = []
        if key.text in ("dim", "leaf", "degree"):
            token = self.token
            if token.kind not in ("number", "ident"):
                self.error(f"expected a value after {key.text!r}", token)
            values.append(self.advance())
        else:
            while True:
                token = self.token
                if token.kind == "number":
                    values.append(self.advance())
                elif token.kind == "ident" and self.lookahead().kind not in ("[", "="):
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
    if parser.token.kind != "eof":
        parser.error(f"unexpected {parser.token.text!r} after expression")
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
            raise _error_at(item.key, f"{block.kind.text} block takes no assignments")
        if item.key.text not in allowed:
            raise _error_at(
                item.key, f"unknown item {item.key.text!r} in {block.kind.text} block"
            )
        if item.key.text in out:
            raise _error_at(item.key, f"duplicate {item.key.text!r} item")
        out[item.key.text] = item
    return out


def _natural(directive: RawDirective, what: str) -> int:
    token = directive.values[0]
    if token.kind != "number":
        raise _error_at(token, f"{what} takes a number")
    return _integer(token)


def _name_list(directive: RawDirective, what: str) -> list[Token]:
    for token in directive.values:
        if token.kind != "ident":
            raise _error_at(token, f"{what} takes coordinate names")
    return directive.values


def _build_chart(blocks: list[RawBlock]) -> Chart:
    manifolds = [b for b in blocks if b.kind.text == "manifold"]
    if not manifolds:
        first = blocks[0].kind
        raise _error_at(first, "a manifold block is required")
    if len(manifolds) > 1:
        extra = manifolds[1].kind
        raise _error_at(extra, "duplicate manifold block")
    manifold = manifolds[0]
    directives = _directive_map(manifold, ("dim", "leaf", "coords"))
    for required in ("dim", "leaf", "coords"):
        if required not in directives:
            raise _error_at(manifold.kind, f"manifold block needs a {required!r} item")
    dim = _natural(directives["dim"], "dim")
    leaf = _natural(directives["leaf"], "leaf")
    coord_tokens = _name_list(directives["coords"], "coords")
    if leaf < 1:
        token = directives["leaf"].values[0]
        raise _error_at(token, "leaf dimension must be at least 1")
    if leaf > dim:
        token = directives["leaf"].values[0]
        raise _error_at(token, "leaf dimension exceeds dim")
    if len(coord_tokens) != dim:
        token = directives["coords"].key
        raise _error_at(token, f"coords lists {len(coord_tokens)} names, dim is {dim}")
    seen: set[str] = set()
    for token in coord_tokens:
        if token.text in seen:
            raise _error_at(token, f"duplicate coordinate {token.text!r}")
        seen.add(token.text)
    names = [t.text for t in coord_tokens]
    base = AdaptedChart(tuple(names[:leaf]), tuple(names[leaf:]))

    bundles = [b for b in blocks if b.kind.text == "bundle"]
    if len(bundles) > 1:
        extra = bundles[1].kind
        raise _error_at(extra, "duplicate bundle block")
    if not bundles:
        return base
    bundle = bundles[0]
    fibre_directives = _directive_map(bundle, ("fibre",))
    if "fibre" not in fibre_directives:
        raise _error_at(bundle.kind, "bundle block needs a 'fibre' item")
    fibre_tokens = _name_list(fibre_directives["fibre"], "fibre")
    for token in fibre_tokens:
        if token.text in seen:
            raise _error_at(
                token, f"fibre name {token.text!r} collides with a coordinate"
            )
        seen.add(token.text)
    return BundleChart(base, tuple(t.text for t in fibre_tokens))


def _check_expr_vars(assign: RawAssign, allowed: frozenset[str], context: str):
    extra = assign.expr.variables() - allowed
    if extra:
        name = sorted(extra)[0]
        raise _error_at(
            assign.expr_token, f"variable {name!r} is not available in {context}"
        )


def _index_position(token: Token, chart: Chart, kind: str) -> int:
    # The library's check of an index name, reported at the token.
    try:
        return _position(chart, kind, token.text)
    except InputError as error:
        raise _error_at(token, str(error)) from None


def _assignments(block: RawBlock, name: str, extra_directives=()) -> list[RawAssign]:
    out = []
    for item in block.items:
        if isinstance(item, RawDirective):
            if item.key.text in extra_directives:
                continue
            raise _error_at(
                item.key,
                f"unexpected item {item.key.text!r} in {block.kind.text} block",
            )
        if item.key.text != name:
            raise _error_at(
                item.key, f"assignments in this block must use its name {name!r}"
            )
        out.append(item)
    return out


def _find_directive(block: RawBlock, key: str) -> RawDirective | None:
    for item in block.items:
        if isinstance(item, RawDirective) and item.key.text == key:
            return item
    return None


def _build_form(block: RawBlock, name: str, chart: Chart, leafwise: bool):
    axis = "leaf" if leafwise else "coordinate"
    what = "form" if leafwise else "exterior_form"
    degree = None
    directive = _find_directive(block, "degree")
    if directive is not None:
        degree = _natural(directive, "degree")
    components: dict[tuple[int, ...], Expression] = {}
    assigned: set[tuple[int, ...]] = set()
    for assign in _assignments(block, name, extra_directives=("degree",)):
        index = tuple(_index_position(token, chart, axis) for token in assign.indices)
        if any(a >= b for a, b in zip(index, index[1:])):
            token = assign.indices[0]
            raise _error_at(token, "multi-index must be strictly increasing")
        if index in assigned:
            raise _error_at(assign.key, f"duplicate assignment to {name!r}")
        assigned.add(index)
        if degree is None:
            degree = len(index)
        elif len(index) != degree:
            raise _error_at(
                assign.key,
                f"multi-index length {len(index)} disagrees with degree {degree}",
            )
        _check_expr_vars(assign, allowed_variables(chart), f"a {what} coefficient")
        if not assign.expr.is_zero():
            components[index] = assign.expr
    if degree is None:
        degree = 0
    kind = LeafwiseForm if leafwise else ExteriorForm
    return kind._build(chart, degree, components)


# Table block kinds: the table type, how its assignments are indexed, and
# what its coefficients are called in a diagnostic.
_TABLE_KINDS = {
    "connection": (Connection, "[fibre][coordinate]", "a connection coefficient"),
    "leafwise_connection": (
        LeafwiseConnection, "[fibre][coordinate]", "a connection coefficient"
    ),
    "splitting": (Splitting, "[leaf][transverse]", "a splitting coefficient (base only)"),
}


def _build_table(block: RawBlock, name: str, kind: str, chart: Chart):
    table_type, usage, what = _TABLE_KINDS[kind]
    if not isinstance(chart, table_type._chart_type):
        chart = base_chart(chart)  # a splitting lives over the base
    allowed = allowed_variables(chart)
    table: dict[tuple[int, int], Expression] = {}
    assigned: set[tuple[int, int]] = set()
    for assign in _assignments(block, name):
        if len(assign.indices) != 2:
            raise _error_at(assign.key, f"coefficients here are indexed as {name}{usage}")
        key = tuple(
            _index_position(token, chart, axis)
            for token, axis in zip(assign.indices, table_type._axes)
        )
        if key in assigned:
            raise _error_at(assign.key, f"duplicate assignment to {name!r}")
        assigned.add(key)
        _check_expr_vars(assign, allowed, what)
        if not assign.expr.is_zero():
            table[key] = assign.expr
    return table_type._build(chart, table)


def _build_section(block: RawBlock, name: str, chart: BundleChart) -> BundleSection:
    components: dict[int, Expression] = {}
    for assign in _assignments(block, name):
        if len(assign.indices) != 1:
            raise _error_at(
                assign.key, f"section components are indexed as {name}[fibre]"
            )
        fibre = _index_position(assign.indices[0], chart, "fibre")
        if fibre in components:
            raise _error_at(assign.key, f"duplicate assignment to {name!r}")
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
            raise _error_at(
                assign.key, f"transition components are indexed as {name}[coordinate]"
            )
        token = assign.indices[0]
        if token.text in base.coords:
            position = base.coords.index(token.text)
            if position in base_components:
                raise _error_at(assign.key, f"duplicate assignment to {name!r}")
            _check_expr_vars(
                assign, frozenset(base.coords), "a base transition component"
            )
            base_components[position] = assign.expr
        elif bundle is not None and token.text in bundle.fibre_coords:
            position = bundle.fibre_coords.index(token.text)
            if position in fibre_components:
                raise _error_at(assign.key, f"duplicate assignment to {name!r}")
            _check_expr_vars(
                assign, allowed_variables(chart), "a fibre transition component"
            )
            fibre_components[position] = assign.expr
        else:
            raise _error_at(token, f"unknown coordinate {token.text!r}")
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
            raise _error_at(block.kind, f"unknown block kind {kind!r}")
        if block.name is None:
            raise _error_at(block.kind, f"{kind} block needs a name")
        name = block.name.text
        if name in names:
            raise _error_at(block.name, f"duplicate name {name!r}")
        names.add(name)
        if kind in ("connection", "leafwise_connection", "section") and bundle is None:
            raise _error_at(block.kind, f"a bundle block is required for a {kind}")
        if kind == "form":
            value = _build_form(block, name, chart, leafwise=True)
        elif kind == "exterior_form":
            value = _build_form(block, name, chart, leafwise=False)
        elif kind in _TABLE_KINDS:
            value = _build_table(block, name, kind, chart)
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
