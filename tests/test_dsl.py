"""Document parsing, validation diagnostics, and canonical printing."""

from __future__ import annotations

import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import folicalc as fc
from folicalc import Expression, dsl, parse_document, print_document

import faults
import oracles
import randgen
from test_expr import _assert_canonical

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.fol"))

MINIMAL = "manifold { dim 3 leaf 2 coords z1 z2 z3 }"

FULL = """\
manifold {
  dim 3
  leaf 2
  coords z1 z2 z3
}

bundle {
  fibre u
}

form phi {
  phi = z1*z3
}

form omega {
  omega[z1] = z2
  omega[z2] = u^2
}

exterior_form sigma {
  sigma[z1][z3] = z2 - 1/2
}

connection Gamma {
  Gamma[u][z3] = u
}

leafwise_connection A {
  A[u][z1] = u
}

splitting B {
  B[z1][z3] = z2
}

section s {
  s[u] = z1 + z3^2
}

transition t {
  t[z1] = z1 + z3
  t[u] = z3*u
}
"""


def err(text: str) -> fc.ParseError:
    with pytest.raises(fc.ParseError) as info:
        parse_document(text)
    return info.value


def test_minimal_document():
    doc = parse_document(MINIMAL)
    assert doc.base.dim == 3
    assert doc.base.dim_leaf == 2
    assert doc.base.coords == ("z1", "z2", "z3")
    assert doc.bundle is None
    assert doc.objects == ()


def test_full_document_objects():
    doc = parse_document(FULL)
    assert [o.kind for o in doc.objects] == [
        "form",
        "form",
        "exterior_form",
        "connection",
        "leafwise_connection",
        "splitting",
        "section",
        "transition",
    ]
    a = doc.lookup("A").value
    assert a.coefficient("u", "z1") == Expression.variable("u")
    t = doc.lookup("t").value
    # unassigned components default to the identity
    assert t.base_map.components[1] == Expression.variable("z2")
    assert t.fibre_components == (Expression.variable("z3") * Expression.variable("u"),)


def test_comments_and_whitespace_insensitive():
    doc = parse_document("manifold{dim 3 leaf 2 # inline\n coords z1 z2 z3}")
    assert doc.base.dim == 3


def test_leafwise_index_out_of_range():
    error = err(MINIMAL + "\nbundle { fibre u }\nleafwise_connection A { A[u][z3] = u }")
    assert "leaf coordinate" in error.message
    assert error.line == 3


def test_syntax_error_positioned():
    error = err("manifold { dim 3 leaf 2 coords z1 z2 z3 ")
    assert "missing '}'" in error.message


def test_unknown_character():
    error = err("manifold { dim 3 leaf 2 coords z1 z2 z3 } $")
    assert "unexpected character" in error.message


def test_missing_manifold():
    assert "manifold" in err("form w { w = 1 }").message


def test_duplicate_manifold():
    assert "duplicate manifold" in err(MINIMAL + "\n" + MINIMAL).message


def test_coords_count_mismatch():
    assert "coords" in err("manifold { dim 3 leaf 2 coords z1 z2 }").message


def test_leaf_dimension_bounds():
    assert "at least 1" in err("manifold { dim 2 leaf 0 coords z1 z2 }").message
    assert "exceeds" in err("manifold { dim 1 leaf 2 coords z1 }").message


def test_duplicate_coordinate():
    assert "duplicate coordinate" in err("manifold { dim 2 leaf 1 coords z1 z1 }").message


def test_duplicate_object_name():
    text = MINIMAL + "\nform w { w = z1 }\nform w { w = z2 }"
    assert "duplicate name" in err(text).message


def test_undeclared_variable_in_coefficient():
    error = err(MINIMAL + "\nform w { w = q + z1 }")
    assert "'q'" in error.message


def test_fibre_variable_rejected_in_splitting():
    text = MINIMAL + "\nbundle { fibre u }\nsplitting B { B[z1][z3] = u }"
    assert "'u'" in err(text).message


def test_fibre_variable_rejected_in_section():
    text = MINIMAL + "\nbundle { fibre u }\nsection s { s[u] = u }"
    assert "'u'" in err(text).message


def test_connection_requires_bundle():
    assert "bundle" in err(MINIMAL + "\nconnection G { }").message


def test_assignment_key_must_match_block_name():
    error = err(MINIMAL + "\nform w { v = z1 }")
    assert "'w'" in error.message


def test_multi_index_must_increase():
    error = err(MINIMAL + "\nform w { w[z2][z1] = z3 }")
    assert "strictly increasing" in error.message


def test_duplicate_assignment():
    error = err(MINIMAL + "\nform w { w[z1] = z3 w[z1] = 0 }")
    assert "duplicate assignment" in error.message


def test_mixed_degrees_rejected():
    error = err(MINIMAL + "\nform w { w[z1] = z3 w[z1][z2] = 1 }")
    assert "degree" in error.message


def test_degree_directive_for_zero_forms():
    doc = parse_document(MINIMAL + "\nform w { degree 2 }")
    form = doc.lookup("w").value
    assert form.degree == 2 and form.is_zero()
    again = parse_document(print_document(doc))
    assert again == doc


def test_degree_directive_conflict():
    error = err(MINIMAL + "\nform w { degree 2 w[z1] = z3 }")
    assert "degree" in error.message


@pytest.mark.parametrize("kind", ["form", "exterior_form"])
def test_second_degree_item_is_rejected(kind):
    text = MINIMAL + f"\n{kind} w {{ degree 1 w[z1] = 1 degree 3 }}"
    error = err(text)
    assert error.message == "duplicate 'degree' item"
    assert (error.line, error.column) == (2, len(kind) + 25)


def test_shape_faults_report_before_entry_faults():
    # An unknown coordinate in the first assignment and a wrong index count
    # in the second: the count is a fault of the block's shape, found first.
    text = faults.HEADER + "connection G { G[u][q] = 1 G[u] = 2 }"
    assert str(err(text)) == "3:28: coefficients here are indexed as G[fibre][coordinate]"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_injected_fault_is_reported_at_its_token(data):
    def pick(options):
        return data.draw(st.sampled_from(options))

    block = faults.valid_block(pick)
    parse_document(block.text())
    fault, item, part = faults.inject(pick, block)
    error = err(block.text())
    assert (error.line, error.column) == block.position(item, part), (fault, block.text())


def test_zero_assignments_fix_degree():
    doc = parse_document(MINIMAL + "\nform w { w[z1] = 0 }")
    form = doc.lookup("w").value
    assert form.degree == 1 and form.is_zero()


def test_unknown_block_kind():
    assert "unknown block kind" in err(MINIMAL + "\ngadget g { }").message


def test_round_trip_fixpoint_on_samples():
    assert SAMPLES, "sample documents must ship with the repository"
    for path in SAMPLES:
        text = path.read_text(encoding="utf-8")
        doc = parse_document(text)
        printed = print_document(doc)
        assert parse_document(printed) == doc, path.name
        assert print_document(parse_document(printed)) == printed, path.name


def test_print_is_idempotent_canonicalization():
    for text in (MINIMAL, FULL):
        printed = print_document(parse_document(text))
        assert print_document(parse_document(printed)) == printed


def test_print_parse_fixpoint_on_random_documents():
    # Every block kind over random adapted and bundle charts: the printed
    # text parses back to an equal Document and prints again byte for byte.
    for seed in range(300):
        document = randgen.document(random.Random(seed))
        printed = print_document(document)
        assert parse_document(printed) == document, seed
        assert print_document(parse_document(printed)) == printed, seed


_BREAKS = ("\n", "\r\n", "\n  # c\n")


def test_error_positions_are_counted_from_the_text():
    # A '$' put at a random offset outside a comment of a printed document,
    # with its line breaks rewritten, is reported at the line and column
    # counted here by splitting the text before it on "\n".
    for seed in range(300):
        rng = random.Random(seed)
        text = print_document(randgen.document(rng)).replace("\n", _BREAKS[seed % 3])
        while True:
            offset = rng.randint(0, len(text))
            if text.rfind("#", 0, offset) <= text.rfind("\n", 0, offset):
                break
        error = err(text[:offset] + "$" + text[offset:])
        lines = text[:offset].split("\n")
        assert error.message == "unexpected character '$'", (seed, offset)
        assert (error.line, error.column) == (len(lines), len(lines[-1]) + 1), (seed, offset)


_RUNS = {"spaces": " " * 200_000, "hashes": "#" * 200_000, "comment lines": "# \n" * 70_000}


@pytest.mark.parametrize("run", _RUNS.values(), ids=_RUNS.keys())
def test_long_whitespace_and_comment_runs_parse_in_linear_time(run):
    # Between blocks, after a term, after an operator and at the end of the
    # text.  A pattern that backtracks into the run, or tries every split of
    # it, takes minutes on these.
    texts = (
        MINIMAL + run + "\nform w { w = z1 }",
        MINIMAL + "\nform w { w = z1" + run + "\n}",
        MINIMAL + "\nform w { w = z1 -" + run + "\nz2 }",
        MINIMAL + "\n" + run,
    )
    for text in texts:
        start = time.perf_counter()
        document = parse_document(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 1, (text[-20:], elapsed)
        assert document.base.dim == 3


def test_error_after_a_long_comment_block_is_on_its_line():
    # Comments are skipped one at a time, in bounded memory: a pattern that
    # repeats a group per comment line keeps a backtracking entry for each,
    # about 40 MB here.
    text = MINIMAL + "\n" + "# c\n" * 100_000 + "form w { w = $ }"
    tracemalloc.start()
    try:
        error = err(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error.message == "unexpected character '$'"
    assert (error.line, error.column) == (100_002, 14)
    assert peak < 1e6, peak


def test_fuzz_smoke_never_crashes():
    rng = random.Random(1234)
    alphabet = "mz123 {}[]()=+-*^/#\n\tabfld"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            doc = parse_document(text)
        except fc.ParseError as error:
            assert error.line >= 1 and error.column >= 1
        else:
            assert isinstance(doc, fc.Document)


def test_deep_nesting_is_a_diagnostic_not_a_crash():
    text = MINIMAL + "\nform w { w = " + "(" * 5000 + "z1" + ")" * 5000 + " }"
    with pytest.raises(fc.ParseError) as info:
        parse_document(text)
    assert "nested" in info.value.message


def test_earlier_grammar_error_wins_over_later_bad_character():
    # Tokens are read on demand, so the parser stops at the first error in
    # reading order and never looks at the '$' further on.
    error = err("manifold { dim 3 leaf 2 coords z1 z2 z3 }\nform w { w = z1 + }\n$")
    assert "expected an expression" in error.message
    assert (error.line, error.column) == (2, 19)


def test_bad_character_before_grammar_error_is_reported():
    error = err("manifold { dim 3 leaf 2 coords z1 z2 z3 }\nform w { w = $ + }")
    assert "unexpected character" in error.message
    assert (error.line, error.column) == (2, 14)


@pytest.mark.parametrize(
    "template, column",
    [
        ("form w {{ w = {} }}", 14),
        ("form w {{ w = 1/{} }}", 16),
        ("form w {{ w = z1^{} }}", 17),
        ("form w {{ degree {} }}", 17),
    ],
)
def test_oversized_integer_literal_is_positioned(template, column):
    text = MINIMAL + "\n" + template.format("1" * 5001)
    error = err(text)
    assert "too many digits" in error.message
    assert (error.line, error.column) == (2, column)


BIG = "1" * 5001


@pytest.mark.parametrize(
    "tail, message, line, column",
    [
        # A value check reports before the token after it is read.
        ("\nform w { w = 1/0$", "denominator must be positive", 2, 16),
        ("\nform w { w = z1^" + BIG + "$", "too many digits", 2, 17),
        ("\nform w { w = 1/" + BIG + "$", "too many digits", 2, 16),
        ("\nform w { w = " + BIG + "$", "too many digits", 2, 14),
        # Directive values are converted after the whole document is read.
        ("\nform w { degree " + BIG + "$", "unexpected character '$'", 2, 5018),
        ("\nform w { w = z1^ }$", "expected a natural number exponent", 2, 18),
        ("\nform w { w = z1 + 1", "unterminated block", 2, 20),
        ("\nform w {", "unterminated block", 2, 9),
        ("\r\n# note\r\n# more\r\nform w { w = z1^-2 }", "exponent, found '-'", 4, 17),
        ("\r\n# note\r\nform w { w = 2/0 }\r\n", "denominator must be positive", 3, 16),
        # After scanned terms: the zero denominator is reported before the
        # exponent that would drop its factor, and a term that a comment and
        # a newline do not end is read by the token path.
        ("\nform w { w = 1/0^0 }", "denominator must be positive", 2, 16),
        ("\nform w { w = z1 + 1/0^0*z2 }", "denominator must be positive", 2, 21),
        ("\nform w { w = z1 # c\n*z2 + 1/0 }", "denominator must be positive", 3, 9),
        ("\nform w { w = z1 + " + BIG + " }", "too many digits (5001)", 2, 19),
        ("\nform w { w = z1 - z2^" + BIG + " }", "too many digits (5001)", 2, 22),
        ("\nform w { w = z1 + z2 z3 }", "expected a value after 'z3'", 2, 25),
        ("\nform w { w = z1 + z2^ }", "exponent, found '}'", 2, 23),
    ],
)
def test_error_position_and_order(tail, message, line, column):
    error = err(MINIMAL + tail)
    assert message in error.message
    assert (error.line, error.column) == (line, column)


# -- the term scanner ---------------------------------------------------------
#
# The scanner reads leading flat terms by one pattern match each; with the
# pattern swapped for one that never matches, the token path reads every
# term.  Both must give an equal Expression or Document, or the same
# (message, line, column).


def _outcome(parse, text):
    try:
        return parse(text)
    except fc.ParseError as error:
        return (error.message, error.line, error.column)


def _both_paths(monkeypatch, parse, text):
    scanned = _outcome(parse, text)
    with monkeypatch.context() as patch:
        patch.setattr(dsl, "_TERM_RE", re.compile("(?!)"))
        return scanned, _outcome(parse, text)


_FACTORS = ("0", "1", "2", "007", "12", "0/5", "1/0", "3/4", "10/6", "z1", "z2", "u",
            "_a1", "x9", "(-1/2)", "(3/4)", "(0)", "(-0/5)", "(-7)", "(1/0)")
_LONG = ("9" * 4300, "1" * 4301)  # at and past the int/str digit limit
_POWERS = ("", "", "", "^0", "^1", "^2", "^3", "^007", " ^2", "^ 2", "^" + _LONG[1])
_SIGNS = ("", "", "", "", "-", "--", "- ", "-\t")
_TIMES = ("*", "*", "*", "*", " * ", "*\n", " # c\n*", "\t*", "*-")
_OPS = (" + ", " - ", " + ", " - ", "+", "-", "\t+\t", " +  ", "\n+ ", " # c\n+ ", " -- ",
        "+-", " - -", "\r\n- ", " ")
_LEADS = ("", "", "", " ", "\n", "# c\n", "\t")
_TAILS = ("", "", "", "^2", "*", "/3", ")", " # c\n*z2", " $", "\n", " z1", " (", " # c",
          "\n^2", "\n\n* z1", "1", "=", "]")


def _random_expression(rng, depth=0):
    text = ""
    for position in range(rng.choice((1, 1, 2, 3, 5, 8))):
        if position:
            text += rng.choice(_OPS)
        count = rng.choice((1, 1, 2, 3, 4)) if rng.random() > 0.02 else rng.randint(31, 34)
        for index in range(count):
            if index:
                text += rng.choice(_TIMES)
            if depth < 2 and rng.random() < 0.05:
                base = "(" + _random_expression(rng, depth + 1) + ")"
            elif rng.random() < 0.01:
                base = rng.choice(_LONG)
            else:
                base = rng.choice(_FACTORS)
            power = rng.choice(_POWERS) if rng.random() > 0.01 else "^" + _LONG[1]
            text += rng.choice(_SIGNS) + base + power
    return text


def test_scanner_agrees_with_the_token_path_on_expressions(monkeypatch):
    rng = random.Random(2010)
    for _ in range(3000):
        text = rng.choice(_LEADS) + _random_expression(rng) + rng.choice(_TAILS)
        scanned, tokens = _both_paths(monkeypatch, fc.parse_expression, text)
        assert scanned == tokens, text


# Unreduced literals, zero terms and one-term groups, with their readings.
_UNREDUCED = {
    "2/4*z1 + 6/8*z2": "1/2*z1 + 3/4*z2",
    "0*z1 - 0/3": "0",
    "(1/2)*(2/3)*z1": "1/3*z1",
    "-(-1/2)^3*z1": "1/8*z1",
    "(0)*z1 + (z1)^0": "1",
}


def test_parsed_sums_are_stored_canonically_on_both_paths(monkeypatch):
    # Scanned terms are summed as entries, not through Expression.sum, so ==
    # between the two paths does not show the stored layout: each path's
    # result is checked on its own.
    rng = random.Random(2012)
    texts = list(_UNREDUCED) + [_random_expression(rng) for _ in range(1500)]
    checked = 0
    for text in texts:
        scanned, tokens = _both_paths(monkeypatch, fc.parse_expression, text)
        assert scanned == tokens, text
        if isinstance(scanned, Expression):
            _assert_canonical(scanned)
            _assert_canonical(tokens)
            checked += 1
        if text in _UNREDUCED:
            assert str(scanned) == _UNREDUCED[text]
    assert checked > 400


def _mutations(rng, text):
    # The text workload's three early errors, and random one-character edits.
    at = text.index("{") + 1
    yield text[:at] + "{" + text[at:]
    if " = " in text:
        at = text.index(" = ")
        yield text[: at + 1] + text[at + 3 :]
    if "[" in text:
        at = text.index("[") + 1
        yield text[:at] + "[" + text[at:]
    for _ in range(4):
        at = rng.randrange(len(text))
        yield text[:at] + rng.choice("+-*^/()#\n 0z\t") + text[at:]
        yield text[:at] + text[at + 1 :]


def _random_document(rng):
    base = randgen.adapted_chart(rng)
    chart = randgen.bundle_chart(rng, base)
    variables = sorted(chart.all_coords)

    def coefficient():
        return randgen.expression(rng, variables, max_degree=4, max_terms=rng.choice((3, 12)))

    components = tuple(randgen.expression(rng, base.coords) for _ in base.coords)
    return fc.Document(chart, (
        fc.DocumentObject("form", "alpha", fc.LeafwiseForm(chart, 1, {
            (i,): coefficient() for i in range(chart.dim_leaf)})),
        fc.DocumentObject("exterior_form", "sigma", randgen.exterior_form(rng, chart)),
        fc.DocumentObject("connection", "G", randgen.connection(rng, chart)),
        fc.DocumentObject("leafwise_connection", "A", randgen.leafwise_connection(rng, chart)),
        fc.DocumentObject("splitting", "B", randgen.splitting(rng, base)),
        fc.DocumentObject("section", "s", randgen.section(rng, chart)),
        fc.DocumentObject("transition", "t", fc.DeclaredTransition(
            fc.TransitionMap(base, components))),
    ))


def test_scanner_agrees_with_the_token_path_on_documents(monkeypatch):
    rng = random.Random(2011)
    for _ in range(60):
        document = _random_document(rng)
        text = print_document(document)
        assert _both_paths(monkeypatch, parse_document, text) == (document, document)
        for bad in _mutations(rng, text):
            scanned, tokens = _both_paths(monkeypatch, parse_document, bad)
            assert scanned == tokens, bad


def test_scanner_reads_canonical_terms_without_the_token_path(monkeypatch):
    calls = []
    term = dsl._Parser._term
    monkeypatch.setattr(dsl._Parser, "_term", lambda self: calls.append(1) or term(self))
    assert str(fc.parse_expression("-1*z1^2 + 1/2*z1 - 3*z2^2 + z3")) == (
        "-1*z1^2 - 3*z2^2 + 1/2*z1 + z3"
    )
    assert calls == []
    # Raw coefficients as bench.gen.raw_text writes them: parenthesised
    # rationals and negative integers are number factors.
    assert str(fc.parse_expression("(-1/2)*z1 + (2/3)*u*z1*z2 + (-3)*z2^2 + 5*u")) == (
        "2/3*u*z1*z2 - 3*z2^2 + 5*u - 1/2*z1"
    )
    assert calls == []
    # A parenthesised term, the terms inside it and every term after it go
    # through _term.
    fc.parse_expression("z1 + (z2 + 1) - z3")
    assert len(calls) == 4


@pytest.mark.parametrize(
    "text, expected",
    [
        ("( -1/2)*z1", "-1/2*z1"),
        ("((1/2))*z1", "1/2*z1"),
        ("(1/2) ^2*z1", "1/4*z1"),
        ("(1/2)*(z1 + 1)", "1/2*z1 + 1/2"),
    ],
)
def test_groups_the_scanner_leaves_to_the_token_path(monkeypatch, text, expected):
    # Space inside or after the parentheses, a nested group or a group of
    # more than a number is not a scanned factor.
    calls = []
    term = dsl._Parser._term
    monkeypatch.setattr(dsl._Parser, "_term", lambda self: calls.append(1) or term(self))
    scanned, tokens = _both_paths(monkeypatch, fc.parse_expression, text)
    assert calls and scanned == tokens
    assert str(scanned) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        # A comment and a newline do not end a term that '*' continues.
        ("u # c\n*z2", "u*z2"),
        ("u\n*z2 + 1", "u*z2 + 1"),
        ("z1 + u # c\n*z2", "u*z2 + z1"),
        # '-' binds inside '^': -z1^2 is (-z1)^2, and ^0 drops its factor.
        ("-z1^2 - -z2^3", "z2^3 + z1^2"),
        ("--z1^3 + 2", "z1^3 + 2"),
        ("-z1^0*z2 + 0^0 + 007*0/5", "z2 + 1"),
        ("z1" + "*z1" * 40, "z1^41"),
        # A parenthesised number is a number factor, its sign inside '^'.
        ("-(-1/2)^2", "1/4"),
        ("(-1/2)^3*z1", "-1/8*z1"),
        ("(-1/2)^0", "1"),
    ],
)
def test_scanned_readings(text, expected):
    assert str(fc.parse_expression(text)) == expected


# -- the scanner's factor table ------------------------------------------------
#
# The scanner converts each distinct factor text, the minus signs before it
# included, once per parse.  Sums that reuse a few factor texts must read as
# the token path and the ring-op oracle read them.

# Factor texts with their parse-tree bases and powers (oracles.parse_tree_value).
_POOL = {
    "z1": (("var", "z1"), None),
    "z1^2": (("var", "z1"), 2),
    "z1^3": (("var", "z1"), 3),
    "z2^0": (("var", "z2"), 0),
    "3/7": (("num", 3, 7), None),
    "(3/4)": (("num", 3, 4), None),
    "(-1/2)^3": (("group", ([(1, ("num", 1, 2), None)], [])), 3),
}


@st.composite
def _pooled_sums(draw):
    # (text, parse tree) of a flat sum over _POOL: each term an operator, a
    # run of 0 to 2 minus signs before its first factor, and 1 to 4 factors,
    # as in -z1^3 - -z1^3.  The first term's operator is not written.
    terms = draw(st.lists(st.tuples(
        st.sampled_from("+-"),
        st.integers(0, 2),
        st.lists(st.sampled_from(sorted(_POOL)), min_size=1, max_size=4),
    ), min_size=1, max_size=12))
    text, first, rest = "", None, []
    for op, minus, factors in terms:
        tree = [(0, *_POOL[factor]) for factor in factors]
        tree[0] = (minus, *_POOL[factors[0]])
        body = "-" * minus + "*".join(factors)
        if first is None:
            text, first = body, tree
        else:
            text += f" {op} {body}"
            rest.append((op, tree))
    return text, (first, rest)


@settings(max_examples=200, deadline=None)
@given(_pooled_sums())
def test_factor_table_keeps_every_value(sum_and_tree):
    text, tree = sum_and_tree
    value = fc.parse_expression(text)
    # Inside a group every term is read by the token path.
    assert value == fc.parse_expression("(" + text + ")"), text
    assert value == oracles.parse_tree_value(tree), text


_TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)
_DIGITS = f"integer literal has too many digits ({len(_TOO_LONG)})"


@pytest.mark.parametrize(
    "parse, text, expected",
    [
        # A factor that fails to convert, after valid terms that reuse
        # factors, and again after it: the first is reported.
        (fc.parse_expression, "z1 + 3/7*z1^2 - 1/0*z1 + 3/7 - 1/0",
         ("denominator must be positive", 1, 19)),
        (fc.parse_expression, "-(3/4)*z1 + z1\n- 1/0 + z1 - 1/0",
         ("denominator must be positive", 2, 5)),
        (fc.parse_expression, "(-1/2)^3*z1 - (1/0) + (1/0)",
         ("denominator must be positive", 1, 18)),
        (fc.parse_expression, f"3/7 + {_TOO_LONG} + 3/7 - {_TOO_LONG}", (_DIGITS, 1, 7)),
        (fc.parse_expression, f"z1 - z1^2 + z1^{_TOO_LONG} - z1^{_TOO_LONG}",
         (_DIGITS, 1, 16)),
        # One table serves every assignment of a document.
        (parse_document,
         MINIMAL + "\nform w {\n  w[z1] = 3/7*z1 + 1/2\n  w[z2] = 3/7*z1 - 1/0 + 1/2\n}",
         ("denominator must be positive", 4, 22)),
    ],
)
def test_factor_table_keeps_every_diagnostic(monkeypatch, parse, text, expected):
    assert _both_paths(monkeypatch, parse, text) == (expected, expected)


def test_a_parsed_document_is_checked_once(monkeypatch):
    # _build_document checks each block as it builds it, so the parsed
    # Document does not run its constructor's checks again; the public
    # constructor still does.
    calls = {"_transition_entries": 0, "_checked_entries": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(dsl, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(dsl, name, counted)
    document = parse_document(SAMPLES[0].with_name("foliated_bundle.fol").read_text())
    assert calls == {"_transition_entries": 1, "_checked_entries": 3}
    assert fc.Document(document.chart, document.objects) == document
    assert calls == {"_transition_entries": 2, "_checked_entries": 9}


def test_scanner_memory_is_bounded():
    # One match per term, with a bounded factor repeat: a 600 KB single term
    # stays within a few MB, and a long flat sum within what the token path
    # needs for its terms (about 720 bytes a term on CPython 3.11).  The time
    # bound only catches runaway backtracking.
    single = "z1" + "*z1" * 200_000
    coefficients = ("3/7*", "", "5*", "1/2*")
    flat = "".join(
        (" - " if i % 3 == 0 else " + ") + coefficients[i % 4] + f"u*z1^{i}"
        for i in range(50_001, 1, -1)
    )[3:]
    for text, limit in ((single, 4e6), (flat, 50_000 * 1000)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            value = fc.parse_expression(text)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit and elapsed < 60, (len(text), peak, elapsed)
        if text is single:
            assert value == Expression.variable("z1") ** 200_001
        else:
            assert str(value) == flat
