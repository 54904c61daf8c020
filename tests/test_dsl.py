"""Document parsing, validation diagnostics, and canonical printing."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import folicalc as fc
from folicalc import Expression, parse_document, print_document

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
    ],
)
def test_error_position_and_order(tail, message, line, column):
    error = err(MINIMAL + tail)
    assert message in error.message
    assert (error.line, error.column) == (line, column)
