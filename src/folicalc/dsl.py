"""Text format for charts, forms, connections, splittings, and transitions.

Grammar (whitespace-insensitive between tokens, '#' comments to end of line):

    document := block+
    block    := ('manifold' | 'bundle') '{' item* '}' | kind name '{' item* '}'
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
A `form` or `exterior_form` block may carry one explicit `degree N` item,
which is how a zero form of positive degree is written down.

An object block is checked in two passes.  The first checks what only the
block shows: each assignment's name and index count, repeated assignments
and `degree` items.  The second hands the assignments to the library
constructor, whose error for a bad entry is reported at that entry's index,
coefficient or key token.  So the first fault of the first pass is reported
before any fault of the second.

Directive items of known single arity (`dim`, `leaf`, `degree`) consume one
value; list directives (`coords`, `fibre`) consume values greedily, so they
belong last in their block.

Both readings of a term below share one fold, _fold.  It takes the term's
number and name factors one at a time, as (base, divisor, power, negations),
and returns one reduced (monomial, numerator, denominator) entry: number
factors fold into one integer numerator and denominator, name factors into
one {name: exponent} map, and no ring operation runs.  Negation sits inside
`^`: `-x^n` reads as `(-x)^n`, so a run of minus signs before a factor is
just the sign (-1)^(minus signs * n) of the whole term, and `-z1^2` is
`z1^2`.  A `^0` factor is 1, whatever its base (`0^0` included).  A group
whose value is a number folds as that number; any other group is raised to
its power and multiplied in.  A number factor that would take the term's
numerator or denominator past expr's bit limit is refused, before its
power or product is computed, with a ParseError at the factor.  A ring
operation that expr refuses for its size is reported through one parser
method: a group's power or product at the group's '(', a sum whose common
denominator passes the bit limit at the sum's first token.

Canonical sums are read a term at a time.  Where a sum starts with a
number, a name, '-' or '(', at any nesting depth (an assignment's right-hand
side, a standalone expression or a group), parse_expression first scans
the leading run of flat terms with one _TERM_RE match per term.  A flat
term is an optional '-' and up to 32 factors joined by '*', each a number,
`a/b`, `(a/b)`, `(-a/b)` or a name with an optional `^n`, and no whitespace
inside; spaces or tabs may surround the '+' or '-' before it.  Each scanned
term's factors are split from its match string and folded as above, a
parenthesised number as a number with its sign, and the entries are summed
in one pass.
Each distinct factor text, its minus signs included, is converted once per
parse through a table the parser holds for that call (a 1,000-term
coefficient has ~5,000 factors, ~40 distinct); one that fails is not kept.
The scan stops before the first term that is followed, past any whitespace,
by '^', '/', '*', '(' or a comment, or that holds a literal past the int/str
digit limit, a zero denominator or a number past the bit limit, or more
factors; the next token is then read at the offset after the last scanned
term.  A scanned span reads to the same value as the token path would, so
the token path still makes every diagnostic.  A diagnostic's line and
column are counted from the text when the error is raised.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .charts import (
    AdaptedChart,
    BundleChart,
    Chart,
    TransitionMap,
    _Record,
    _checked_entries,
    _require,
    _set,
    _tuple,
    allowed_variables,
    base_chart,
)
from .connections import BundleSection, Connection, LeafwiseConnection
from .errors import InputError, ParseError
from . import expr as expr_module
from .expr import Expression, _entry_sum, is_identifier
from .extension import Splitting
from .forms import ExteriorForm, LeafwiseForm

_MAX_NESTING = 64

# The next comment or token after any whitespace.  The last alternative
# matches the end of the text, so no match backtracks into the whitespace.
# Comments are read one per match: a repeated group would keep a backtracking
# entry per comment line, 40 MB for 100,000 lines on CPython 3.11.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*
      (?: (?P<comment>\#[^\n]*)
        | (?P<number>[0-9]+)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<op>[{}\[\]()=+\-*^/])
        | (?P<bad>.)
        | (?P<eof>\Z)
      )
    """,
    re.VERBOSE,
)

# One flat term, the operator before it included: a run of up to 32
# number, a/b, (a/b), (-a/b) or name factors, each with an optional ^n,
# joined by '*'.  The guards after a factor keep a failed match from
# backtracking into a shorter name or number, and the lookahead makes sure
# that no ^, /, *, ( or comment follows, past any whitespace, that the token
# path would read as part of the term.  Spaces after an operator match only
# after one, so a failed match backs out of a run of spaces in linear time.
_NUMBER = r"[0-9]+(?:/[0-9]+)?"
_FACTOR = rf"(?:{_NUMBER}|\(-?{_NUMBER}\)|[A-Za-z_][A-Za-z0-9_]*)(?:\^[0-9]+)?(?![A-Za-z0-9_])"
_TERM_RE = re.compile(
    rf"[ \t]*(?:([+-])[ \t]*)?(-?)({_FACTOR}(?:\*{_FACTOR}){{0,31}})"
    r"(?=[ \t\r\n]*(?:[^*^/(# \t\r\n]|\Z))"
)

# kind is "number", "ident", "eof", or the operator character itself;
# offset is the index of the token's first character in source, the text.
Token = namedtuple("Token", ("kind", "text", "offset", "source"))
# Builds a Token from one tuple of its fields without the Python-level
# Token.__new__, at about half the cost per token.
_new_token = tuple.__new__

# The kinds of first token that the term scanner may start at.
_SCANNED = ("number", "ident", "-", "(")


def _token_at(text: str, pos: int) -> Token:
    # The token after any whitespace and comments from pos on.
    match = _TOKEN_RE.match(text, pos)
    while match.lastgroup == "comment":
        match = _TOKEN_RE.match(text, match.end())
    kind = match.lastgroup
    value = match.group(kind)
    token = _new_token(Token, (value if kind == "op" else kind, value, match.start(kind), text))
    if kind == "bad":
        raise _error_at(token, f"unexpected character {value!r}")
    return token


def _error_at(token: Token, message: str) -> ParseError:
    text, offset = token.source, token.offset
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _integer(token: Token) -> int:
    try:
        return int(token.text)
    except ValueError:
        # Longer than the interpreter's int/str conversion limit.
        raise _error_at(
            token, f"integer literal has too many digits ({len(token.text)})"
        ) from None


# -- raw syntax ---------------------------------------------------------------


RawAssign = namedtuple("RawAssign", ("key", "indices", "expr", "expr_token"))
RawDirective = namedtuple("RawDirective", ("key", "values"))
RawBlock = namedtuple("RawBlock", ("kind", "name", "items"))


def _fold(factors: Iterable[tuple]) -> tuple[tuple, int, int]:
    # One term's number and name factors, each (base, divisor, power,
    # negations) with base an int or a name, as one reduced (monomial,
    # numerator, denominator) entry; see the module docstring.  The factors
    # are read one at a time, so a term of any length folds in bounded space.
    # ValueError, before it is computed, for a number factor that would take
    # the numerator or denominator past expr's _MAX_COEFF_BITS (read at each
    # call).  With n and b nonzero, n * b**p has at least n.bit_length() +
    # p * (b.bit_length() - 1) bits.  The bound is kept in integers, so a
    # power of any size is checked at once; for b = 0 or +-1 it adds no bits,
    # so those powers never trip it.  Every number factor is checked, a
    # number group's too, so no grouping gets round the limit.
    numerator = denominator = 1
    limit = expr_module._MAX_COEFF_BITS
    exponents: dict[str, int] = {}
    for base, divisor, power, negations in factors:
        if negations & power & 1:
            numerator = -numerator
        if isinstance(base, int):
            if (numerator.bit_length() + power * (abs(base).bit_length() - 1) > limit
                    or denominator.bit_length() + power * (divisor.bit_length() - 1) > limit):
                raise ValueError(f"number too large: the term's coefficient would pass "
                                 f"{limit} bits")
            numerator *= base**power
            denominator *= divisor**power
        elif power:
            exponents[base] = exponents.get(base, 0) + power
    g = math.gcd(numerator, denominator)
    return tuple(sorted(exponents.items())), numerator // g, denominator // g


def _scanned_factor(factor: str) -> tuple:
    # One scanned factor's text, with the minus signs before it, for _fold.
    # ValueError where the token path would raise: a literal past the int/str
    # digit limit or a zero denominator.
    base = factor.lstrip("-")
    negations = len(factor) - len(base)
    base, _, power = base.partition("^")
    if base[0] > "9":  # a name: letters and '_' sort after digits and '('
        divisor = 1
    else:
        base, _, divisor = base.strip("()").partition("/")
        base, divisor = int(base), int(divisor or 1)
        if not divisor:
            raise ValueError(factor)
    return base, divisor, int(power or 1), negations


class _Parser:
    def __init__(self, text: str, operation: str):
        _require(operation, (text, str))
        self.text = text
        self.token = _token_at(text, 0)  # the current token, not yet consumed
        self.depth = 0
        self.factor_table: dict[str, tuple] = {}  # _scanned_factor by text

    def advance(self) -> Token:
        # Consume the current token and read the next one at once, so any
        # check on a token's value must run before its advance().
        token = self.token
        self.token = _token_at(self.text, token.offset + len(token.text))
        return token

    def lookahead(self) -> Token:
        # The token after the current one, read again by the next advance().
        return _token_at(self.text, self.token.offset + len(self.token.text))

    def error(self, message: str, token: Token | None = None):
        raise _error_at(token or self.token, message)

    def ring(self, token: Token, operation, *args):
        # operation(*args), with a ring operation's InputError (a result past
        # expr's size limits) reported at token.
        try:
            return operation(*args)
        except InputError as error:
            self.error(str(error), token)

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
        start = self.token
        added, subtracted = [], []
        if self.token.kind in _SCANNED:
            self._scan_terms(added)
        if not added:
            added.append(self._term())
        while self.token.kind in ("+", "-"):
            op = self.advance()
            (added if op.kind == "+" else subtracted).append(self._term())
        if len(added) == 1 and not subtracted:
            return added[0]  # a term or a scanned sum is canonical already
        return self.ring(start, Expression.sum, added, subtracted)

    def _scan_terms(self, added: list):
        # The sum of the leading run of flat terms, one _TERM_RE match and
        # one _fold entry each, their factors converted once per distinct
        # text (see the module docstring), goes to added; the next token is
        # then read after the last of them.
        text, pos, table = self.text, self.token.offset, self.factor_table
        entries = []
        while match := _TERM_RE.match(text, pos):
            op, sign, body = match.groups("")
            if not entries:  # the first term: its operator is a leading '-'
                sign, op = op + sign, "+"
            elif not op:
                break
            factors = []
            try:
                for factor in (sign + body).split("*"):
                    converted = table.get(factor)
                    if converted is None:
                        converted = table[factor] = _scanned_factor(factor)
                    factors.append(converted)
                monomial, numerator, denominator = _fold(factors)
            except ValueError:
                break
            entries.append((monomial, numerator if op == "+" else -numerator, denominator))
            pos = match.end()
        if entries:
            added.append(self.ring(self.token, _entry_sum, entries))
            self.token = _token_at(text, pos)

    def _term(self) -> Expression:
        # One _fold entry for the number and name factors (see the module
        # docstring), times the groups.
        groups = []
        try:
            monomial, numerator, denominator = _fold(self._factors(groups))
        except ValueError as error:  # at the number factor _fold refused
            self.error(str(error), self.factor)
        term = Expression._build({monomial: numerator} if numerator else {}, denominator)
        for token, group in groups if numerator else ():
            term = self.ring(token, term.__mul__, group)
        return term

    def _factors(self, groups: list) -> Iterator[tuple]:
        # The term's factors for _fold, as they are read, each one's token
        # after its minus signs kept as self.factor.  A group that is a
        # number is yielded as one; any other goes to groups, raised to its
        # power, with its '(' token, and yields only its sign.
        while True:
            negations = 0
            while self.token.kind == "-":
                self.advance()
                negations += 1
            token = self.token
            kind, base, divisor = token.kind, token.text, 1
            if kind == "number":
                base = _integer(token)
                self.advance()
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
                group = self.parse_expression()
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
            if kind == "(" and group.variables():
                if power:
                    raised = group if power == 1 else self.ring(token, pow, group, power)
                    groups.append((token, raised))
                base = 1
            elif kind == "(":
                value = group.evaluate({})
                base, divisor = value.numerator, value.denominator
            self.factor = token
            yield base, divisor, power, negations
            if self.token.kind != "*":
                break
            self.advance()

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
    parser = _Parser(text, "parse_expression")
    value = parser.parse_expression()
    if parser.token.kind != "eof":
        parser.error(f"unexpected {parser.token.text!r} after expression")
    return value


# -- documents -----------------------------------------------------------------


class DeclaredTransition(_Record):
    """A transition block: a base coordinate change plus, over a bundle,
    optional fibre transition components."""

    __slots__ = ("base_map", "fibre_components")

    def __init__(self, base_map: TransitionMap, fibre_components: tuple | None = None):
        _require("DeclaredTransition", (base_map, TransitionMap))
        if fibre_components is not None:
            fibre_components = _tuple("DeclaredTransition", fibre_components, Expression)
        _set(self, "base_map", base_map)
        _set(self, "fibre_components", fibre_components)


class DocumentObject(_Record):
    __slots__ = ("kind", "name", "value")

    def __init__(self, kind: str, name: str, value: object):
        _require("DocumentObject", (kind, str))
        if kind not in _OBJECT_KINDS:
            raise InputError(f"unknown object kind {kind!r}")
        if not is_identifier(name):
            raise InputError(f"invalid object name {name!r}")
        _require("DocumentObject", (value, _OBJECT_KINDS[kind][0] or DeclaredTransition))
        _set(self, "kind", kind)
        _set(self, "name", name)
        _set(self, "value", value)


class Document(_Record):
    """A parsed input file: one chart plus named objects in declaration order."""

    __slots__ = ("chart", "objects")

    def __init__(self, chart: Chart, objects: tuple[DocumentObject, ...]):
        _require("Document", (chart, Chart))
        objects = _tuple("Document", objects, DocumentObject)
        # What parse_document would build from the printed text: distinct
        # names, each object over the chart its block kind is built on, and
        # fibre transition components only over a bundle, one per fibre
        # coordinate, with every transition component over the variables
        # that _transition_entries allows.
        base = base_chart(chart)
        fibres = chart.fibre_dim if isinstance(chart, BundleChart) else None
        names = set()
        for obj in objects:
            if obj.name in names:
                raise InputError(f"duplicate name {obj.name!r}")
            names.add(obj.name)
            if obj.kind == "transition":
                over, expected = obj.value.base_map.target, base
                components = dict(zip(base.coords, obj.value.base_map.components))
                given = obj.value.fibre_components
                if given is not None:
                    if fibres is None:
                        raise InputError(
                            f"transition {obj.name!r} has fibre components, but the "
                            "document has no bundle"
                        )
                    if len(given) != fibres:
                        raise InputError(
                            f"transition {obj.name!r} needs {fibres} fibre components, "
                            f"got {len(given)}"
                        )
                    components.update(zip(chart.fibre_coords, given))
            else:
                over = obj.value.chart
                expected = base if obj.kind == "splitting" else chart
            if over != expected:
                raise InputError(f"{obj.kind} {obj.name!r} is not over the document's chart")
            if obj.kind == "transition":
                try:
                    _transition_entries(chart, components)
                except InputError as error:
                    raise InputError(f"transition {obj.name!r}: {error}") from None
        _set(self, "chart", chart)
        _set(self, "objects", objects)

    @staticmethod
    def _build(chart: Chart, objects: tuple[DocumentObject, ...]) -> "Document":
        # The internal constructor, for objects _build_document has checked
        # block by block; the checks above would only repeat its own.
        document = object.__new__(Document)
        _set(document, "chart", chart)
        _set(document, "objects", objects)
        return document

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
    parser = _Parser(text, "parse_document")
    return _build_document(parser.parse_blocks())


# -- semantic construction ------------------------------------------------------


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


def _setup_block(blocks: list[RawBlock], kind: str, items: tuple[str, ...]):
    # The directives of the one unnamed `kind` block by key, every item
    # given once and nothing else, or None if there is no such block.
    found = [b for b in blocks if b.kind.text == kind]
    if len(found) > 1:
        raise _error_at(found[1].kind, f"duplicate {kind} block")
    if not found:
        return None
    block = found[0]
    if block.name is not None:
        raise _error_at(block.name, f"a {kind} block takes no name")
    directives: dict[str, RawDirective] = {}
    for item in block.items:
        if isinstance(item, RawAssign):
            raise _error_at(item.key, f"{kind} block takes no assignments")
        if item.key.text not in items:
            raise _error_at(item.key, f"unknown item {item.key.text!r} in {kind} block")
        if item.key.text in directives:
            raise _error_at(item.key, f"duplicate {item.key.text!r} item")
        directives[item.key.text] = item
    for required in items:
        if required not in directives:
            raise _error_at(block.kind, f"{kind} block needs a {required!r} item")
    return directives


def _build_chart(blocks: list[RawBlock]) -> Chart:
    directives = _setup_block(blocks, "manifold", ("dim", "leaf", "coords"))
    if directives is None:
        raise _error_at(blocks[0].kind, "a manifold block is required")
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
    fibre_directives = _setup_block(blocks, "bundle", ("fibre",))
    if fibre_directives is None:
        return base
    fibre_tokens = _name_list(fibre_directives["fibre"], "fibre")
    for token in fibre_tokens:
        if token.text in names:
            raise _error_at(token, f"fibre name {token.text!r} collides with a coordinate")
        if token.text in seen:
            raise _error_at(token, f"duplicate fibre name {token.text!r}")
        seen.add(token.text)
    return BundleChart(base, tuple(t.text for t in fibre_tokens))


# Object block kinds: the type a block builds (None for a transition), the
# index count of its assignments (None for a form, whose degree the form
# checks) and the diagnostic for a wrong count.
_OBJECT_KINDS = {
    "form": (LeafwiseForm, None, None),
    "exterior_form": (ExteriorForm, None, None),
    "connection": (Connection, 2, "coefficients here are indexed as {}[fibre][coordinate]"),
    "leafwise_connection": (
        LeafwiseConnection, 2, "coefficients here are indexed as {}[fibre][coordinate]"
    ),
    "splitting": (Splitting, 2, "coefficients here are indexed as {}[leaf][transverse]"),
    "section": (BundleSection, 1, "section components are indexed as {}[fibre]"),
    "transition": (None, 1, "transition components are indexed as {}[coordinate]"),
}


def _shape(block: RawBlock, name: str, count: int | None, usage: str | None):
    # What only the block can check: assignments use its name, have the
    # right index count and do not repeat, and a form block has at most one
    # degree item.  Returns the assignments keyed by their index names, and
    # the degree if one is given.
    assigns: dict[tuple[str, ...], RawAssign] = {}
    degree = None
    for item in block.items:
        key = item.key
        if isinstance(item, RawDirective):
            if count is not None or key.text != "degree":
                raise _error_at(key, f"unexpected item {key.text!r} in {block.kind.text} block")
            if degree is not None:
                raise _error_at(key, "duplicate 'degree' item")
            degree = _natural(item, "degree")
            continue
        if key.text != name:
            raise _error_at(key, f"assignments in this block must use its name {name!r}")
        if count is not None and len(item.indices) != count:
            raise _error_at(key, usage.format(name))
        index = tuple(token.text for token in item.indices)
        if index in assigns:
            raise _error_at(key, f"duplicate assignment to {name!r}")
        assigns[index] = item
    return assigns, degree


def _located(assigns: dict, build, *args):
    # build(*args, {key: expression}), with an entry it rejects reported at
    # its index, coefficient or key token.
    try:
        return build(*args, {key: assign.expr for key, assign in assigns.items()})
    except InputError as error:
        assign = assigns[error.entry]
        if error.part is None:
            token = assign.key
        elif error.part == "value":
            token = assign.expr_token
        else:
            token = assign.indices[error.part]
        raise _error_at(token, str(error)) from None


def _build_object(block: RawBlock, name: str, kind: str, chart: Chart):
    object_type, count, usage = _OBJECT_KINDS[kind]
    assigns, degree = _shape(block, name, count, usage)
    if count is None:
        if degree is None:
            degree = len(next(iter(assigns), ()))
        return _located(assigns, object_type, chart, degree)
    if count == 1:
        assigns = {index: assign for (index,), assign in assigns.items()}
    if object_type is None:
        return _build_transition(assigns, chart)
    if object_type is Splitting:
        chart = base_chart(chart)
    return _located(assigns, object_type, chart)


def _transition_entries(chart: Chart, components: dict):
    # The one rule for transition components, keyed by coordinate name: a
    # base component may mention base coordinates only, a fibre component
    # fibre coordinates too.  Each is checked as one _checked_entries entry
    # on the axis its name is on, so the first bad one raises there.
    base = base_chart(chart)
    fibres = chart.fibre_coords if isinstance(chart, BundleChart) else ()
    for coord, component in components.items():
        if coord in fibres:
            checked = ("fibre",), allowed_variables(chart), "a fibre transition component"
        else:
            checked = ("coordinate",), frozenset(base.coords), "a base transition component"
        _checked_entries("transition", chart, *checked, {coord: component})


def _build_transition(assigns: dict, chart: Chart) -> DeclaredTransition:
    # Transitions have no validating library type: the assignments, keyed
    # by coordinate name, are checked by _transition_entries, and a
    # component not assigned stays the identity.
    _located(assigns, _transition_entries, chart)
    given = {coord: assign.expr for coord, assign in assigns.items()}
    base = base_chart(chart)
    fibres = chart.fibre_coords if isinstance(chart, BundleChart) else ()
    components = tuple(given.get(c, Expression.variable(c)) for c in base.coords)
    fibre_part = None
    if any(c in given for c in fibres):
        fibre_part = tuple(given.get(c, Expression.variable(c)) for c in fibres)
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
        value = _build_object(block, name, kind, chart)
        objects.append(DocumentObject(kind, name, value))
    return Document._build(chart, tuple(objects))


# -- canonical printing -----------------------------------------------------------


def _transition_lines(name: str, transition: DeclaredTransition, chart: Chart) -> list[str]:
    base = base_chart(chart)
    lines = []
    for coord, component in zip(base.coords, transition.base_map.components):
        if component != Expression.variable(coord):
            lines.append(f"{name}[{coord}] = {component}")
    # Every fibre component, identity or not, so that the parsed transition
    # keeps them (the document holds one per fibre coordinate).
    if transition.fibre_components is not None:
        for coord, component in zip(chart.fibre_coords, transition.fibre_components):
            lines.append(f"{name}[{coord}] = {component}")
    return lines


def print_document(document: Document) -> str:
    """Canonical text for a document; parsing it back yields an equal Document."""
    _require("print_document", (document, Document))
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
        if obj.kind == "transition":
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
