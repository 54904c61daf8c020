"""Correctness checks that take a different route from the code under test.

Results printed by folicalc are read back with the benchmark's own small
evaluator and compared, at a seeded rational point, with values computed
from the generated inputs in plain Fraction arithmetic: closed-form product
rules for derivatives, shuffle sums for wedges, and the extension and
dependence formulas written out entry by entry.  None of this calls the
package's parser or ring.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

_TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|\S")


class _Evaluator:
    """Recursive descent over the .fol expression grammar, computing the
    value at a point directly; `-x^2` reads as (-x)^2, as in the DSL."""

    def __init__(self, text: str, values):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.values = values
        self.powers: dict = {}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expr(self) -> Fraction:
        total = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                total += self.term()
            else:
                total -= self.term()
        return total

    def term(self) -> Fraction:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value *= self.factor()
        return value

    def factor(self) -> Fraction:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        token = self.take()
        if token.isdigit():
            value = Fraction(int(token))
            if self.peek() == "/":
                self.take()
                value /= int(self.take())
        elif token == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
        elif not negate and self.peek() == "^":
            self.take()
            key = (token, int(self.take()))
            cached = self.powers.get(key)
            if cached is None:
                cached = self.powers[key] = self.values[token] ** key[1]
            return cached
        else:
            value = self.values[token]
        if negate:
            value = -value
        if self.peek() == "^":
            self.take()
            value = value ** int(self.take())
        return value


def eval_text(text: str, values) -> Fraction:
    """Value of a printed polynomial at a point."""
    reader = _Evaluator(text, values)
    value = reader.expr()
    if reader.pos != len(reader.tokens):
        raise ValueError(f"trailing text in {text[:60]!r}")
    return value


def _split_top(text: str):
    """Split at top-level ' + ' and ' - ' separators: [(sign, piece)]."""
    pieces = []
    depth = 0
    start = 0
    sign = 1
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch == " " and text[i + 1 : i + 3] in ("+ ", "- "):
            pieces.append((sign, text[start:i]))
            sign = -1 if text[i + 1] == "-" else 1
            i += 3
            start = i
            continue
        i += 1
    pieces.append((sign, text[start:]))
    return pieces


def form_values(text: str, degree: int, prefix: str, coords, values) -> dict:
    """Read a printed form ("(p) ~dz1^~dz2 - q ~dz3 ...") into
    {index tuple: value at the point}."""
    if text == "0":
        return {}
    if degree == 0:
        return {(): eval_text(text, values)}
    out = {}
    for sign, piece in _split_top(text):
        if piece.startswith("("):
            depth = 0
            for j, ch in enumerate(piece):
                depth += ch == "("
                depth -= ch == ")"
                if depth == 0:
                    break
            coeff, basis = piece[1:j], piece[j + 2 :]
        elif " " in piece:
            coeff, basis = piece.rsplit(" ", 1)
        else:
            coeff, basis = "1", piece
        index = []
        for covector in basis.split("^"):
            if not covector.startswith(prefix):
                raise ValueError(f"bad basis {basis!r}")
            index.append(coords.index(covector[len(prefix) :]))
        out[tuple(index)] = sign * eval_text(coeff, values)
    return out


_ENTRY = re.compile(r"[^\[]+((?:\[\w+\])+) = (.*)\Z")


def table_values(payload: str, values) -> dict:
    """Read "N[a][b] = p; ..." lines into {(a, b): value}."""
    out = {}
    for line in payload.split("; "):
        match = _ENTRY.match(line)
        if match is None:
            if line.endswith(" = 0"):
                continue
            raise ValueError(f"unreadable entry {line[:60]!r}")
        key = tuple(re.findall(r"\[(\w+)\]", match.group(1)))
        out[key] = eval_text(match.group(2), values)
    return out


def same_values(got: dict, expected: dict) -> str | None:
    """Compare two sparse value tables, missing entries reading as zero."""
    for key in set(got) | set(expected):
        if got.get(key, 0) != expected.get(key, 0):
            return f"entry {key}: got {got.get(key, 0)}, expected {expected.get(key, 0)}"
    return None


# -- raw polynomial tables ----------------------------------------------------


def raw_value(poly: dict, values) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = coeff
        for name, exponent in mono:
            term *= values[name] ** exponent
        total += term
    return total


def raw_partial_value(poly: dict, name: str, values) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.items():
        exps = dict(mono)
        k = exps.get(name, 0)
        if not k:
            continue
        term = coeff * k
        for var, exponent in mono:
            term *= values[var] ** (exponent - 1 if var == name else exponent)
        total += term
    return total


# -- exterior algebra by brute force -------------------------------------------


def permutation_sign(sequence) -> int:
    """Sign of the permutation sorting the sequence; 0 on a repeat."""
    sign = 1
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] == sequence[j]:
                return 0
            if sequence[i] > sequence[j]:
                sign = -sign
    return sign


def shuffle_wedge(left: dict, p: int, right: dict, q: int, limit: int) -> dict:
    """Wedge of two value tables as the shuffle sum over every split of each
    target multi-index."""
    out = {}
    for target in itertools.combinations(range(limit), p + q):
        total = Fraction(0)
        for picks in itertools.combinations(range(p + q), p):
            a = tuple(target[i] for i in picks)
            b = tuple(target[i] for i in range(p + q) if i not in picks)
            if a in left and b in right:
                total += permutation_sign(a + b) * left[a] * right[b]
        if total:
            out[target] = total
    return out


def differential(partials, degree: int, limit: int) -> dict:
    """d of a form given partials(index, direction) -> value, as the sum
    over directions with the sign of moving the new covector into place."""
    out = {}
    for target in itertools.combinations(range(limit), degree + 1):
        total = Fraction(0)
        for slot, direction in enumerate(target):
            rest = target[:slot] + target[slot + 1 :]
            total += (-1) ** slot * partials(rest, direction)
        if total:
            out[target] = total
    return out
