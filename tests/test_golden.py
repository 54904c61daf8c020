"""Golden outputs: the CLI on every sample, and the DSL's positioned diagnostics.

`golden/cli_transcript.txt` records, for every sample, every verb and every
`--name` set below, in text and `--json`, the exit code, stdout and stderr of
`folicalc.cli.main`, followed by `print_document` of each sample.  The test
compares it byte for byte.  Regenerate it only for an intended change of
output, from the repository root:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden; test_golden.write_transcript()"
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import folicalc as fc
from folicalc.cli import main
from folicalc.commands import VERBS

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "golden" / "cli_transcript.txt"

# The README's verify and extend examples, tried on every sample.
NAME_SETS = (("A", "B", "B0"), ("A", "Gamma", "B"))


def _samples() -> list[Path]:
    return sorted((ROOT / "samples").glob("*.fol"))


def _argvs(sample: Path):
    path = f"samples/{sample.name}"
    objects = fc.parse_document(sample.read_text()).objects
    name_sets = [()] + [(obj.name,) for obj in objects] + list(NAME_SETS)
    for verb in VERBS:
        for names in name_sets:
            flags = [arg for name in names for arg in ("--name", name)]
            yield [verb, path, *flags]
            yield [verb, path, *flags, "--json"]


def render_transcript() -> str:
    """The transcript text; file paths in it are relative to the repo root."""
    parts = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for sample in _samples():
            for argv in _argvs(sample):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                parts.append(
                    f"$ folicalc {' '.join(argv)}\nexit {code}\n"
                    f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
                )
        for sample in _samples():
            document = fc.parse_document(sample.read_text())
            parts.append(
                f"$ print_document samples/{sample.name}\n{fc.print_document(document)}"
            )
    finally:
        os.chdir(cwd)
    return "\n".join(parts)


def write_transcript():
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(render_transcript())


def test_cli_transcript_is_unchanged():
    assert render_transcript() == TRANSCRIPT.read_text()


BUNDLE = "manifold { dim 4 leaf 2 coords z1 z2 z3 z4 }\nbundle { fibre u v }\n"
BASE = "manifold { dim 4 leaf 2 coords z1 z2 z3 z4 }\n"

# (document, exact `line:col: message`) for every check a table block makes:
# fibre, coordinate, leaf and transverse names, index count, duplicates and
# the variables a coefficient may mention, plus which check reports first.
TABLE_ERRORS = [
    # connection
    (BUNDLE + "connection G { G[w][z1] = 1 }", "3:18: unknown fibre coordinate 'w'"),
    (BUNDLE + "connection G { G[z1][u] = 1 }", "3:18: unknown fibre coordinate 'z1'"),
    (BUNDLE + "connection G { G[u][q] = 1 }", "3:21: unknown coordinate 'q'"),
    (BUNDLE + "connection G { G[w][q] = 1 }", "3:18: unknown fibre coordinate 'w'"),
    (BUNDLE + "connection G { G[u] = 1 }", "3:16: coefficients here are indexed as G[fibre][coordinate]"),
    (BUNDLE + "connection G { G = 1 }", "3:16: coefficients here are indexed as G[fibre][coordinate]"),
    (BUNDLE + "connection G { G[u][z1][z2] = 1 }", "3:16: coefficients here are indexed as G[fibre][coordinate]"),
    (BUNDLE + "connection G { G[u][z3] = 1 G[u][z3] = z1 }", "3:29: duplicate assignment to 'G'"),
    (BUNDLE + "connection G { G[u][z1] = 0 G[u][z1] = 0 }", "3:29: duplicate assignment to 'G'"),
    (BUNDLE + "connection G { G[u][z1] = q }", "3:27: variable 'q' is not available in a connection coefficient"),
    (BUNDLE + "connection G { G[u][z1] = q G[w][z1] = 1 }", "3:27: variable 'q' is not available in a connection coefficient"),
    (BUNDLE + "connection G { G[u][z1] = 1 G[u][z1] = q }", "3:29: duplicate assignment to 'G'"),
    (BUNDLE + "connection G { H[u][z1] = 1 }", "3:16: assignments in this block must use its name 'G'"),
    (BUNDLE + "connection G {\n  G[u][z1] = 1\n  G[v][zz] = 2\n}", "5:8: unknown coordinate 'zz'"),
    # leafwise_connection
    (BUNDLE + "leafwise_connection A { A[u][z3] = 1 }", "3:30: 'z3' is not a leaf coordinate"),
    (BUNDLE + "leafwise_connection A { A[u][q] = 1 }", "3:30: unknown coordinate 'q'"),
    (BUNDLE + "leafwise_connection A { A[w][z1] = 1 }", "3:27: unknown fibre coordinate 'w'"),
    (BUNDLE + "leafwise_connection A { A[w][z3] = 1 }", "3:27: unknown fibre coordinate 'w'"),
    (BUNDLE + "leafwise_connection A { A[u] = 1 }", "3:25: coefficients here are indexed as A[fibre][coordinate]"),
    (BUNDLE + "leafwise_connection A { A[v][z2] = 1 A[v][z2] = 2 }", "3:38: duplicate assignment to 'A'"),
    (BUNDLE + "leafwise_connection A { A[u][z1] = u*v*z4 A[u][z2] = q }", "3:54: variable 'q' is not available in a connection coefficient"),
    # splitting over a bundle
    (BUNDLE + "splitting B { B[q][z3] = 1 }", "3:17: unknown coordinate 'q'"),
    (BUNDLE + "splitting B { B[z1][q] = 1 }", "3:21: unknown coordinate 'q'"),
    (BUNDLE + "splitting B { B[u][z3] = 1 }", "3:17: unknown coordinate 'u'"),
    (BUNDLE + "splitting B { B[z3][z4] = 1 }", "3:17: 'z3' is not a leaf coordinate"),
    (BUNDLE + "splitting B { B[z1][z2] = 1 }", "3:21: 'z2' is not a transverse coordinate"),
    (BUNDLE + "splitting B { B[z3][z1] = 1 }", "3:17: 'z3' is not a leaf coordinate"),
    (BUNDLE + "splitting B { B[z1] = 1 }", "3:15: coefficients here are indexed as B[leaf][transverse]"),
    (BUNDLE + "splitting B { B[z1][z3][z4] = 1 }", "3:15: coefficients here are indexed as B[leaf][transverse]"),
    (BUNDLE + "splitting B { B[z1][z3] = 1 B[z1][z3] = 0 }", "3:29: duplicate assignment to 'B'"),
    (BUNDLE + "splitting B { B[z1][z3] = u }", "3:27: variable 'u' is not available in a splitting coefficient (base only)"),
    (BUNDLE + "splitting B { B[z1][z3] = q }", "3:27: variable 'q' is not available in a splitting coefficient (base only)"),
    (BUNDLE + "splitting B { B[z2][z4] = z1 B[z1][z3] = z2*v }", "3:42: variable 'v' is not available in a splitting coefficient (base only)"),
    # splitting without a bundle
    (BASE + "splitting B { B[z1][z3] = u }", "2:27: variable 'u' is not available in a splitting coefficient (base only)"),
    (BASE + "splitting B { B[z2][z2] = 1 }", "2:21: 'z2' is not a transverse coordinate"),
    # section
    (BUNDLE + "section s { s[w] = 1 }", "3:15: unknown fibre coordinate 'w'"),
    (BUNDLE + "section s { s[z1] = 1 }", "3:15: unknown fibre coordinate 'z1'"),
    (BUNDLE + "section s { s[u][z1] = 1 }", "3:13: section components are indexed as s[fibre]"),
    (BUNDLE + "section s { s = 1 }", "3:13: section components are indexed as s[fibre]"),
    (BUNDLE + "section s { s[u] = 1 s[u] = 2 }", "3:22: duplicate assignment to 's'"),
    (BUNDLE + "section s { s[u] = u }", "3:20: variable 'u' is not available in a section component (base only)"),
    (BUNDLE + "section s { s[v] = z1 + v }", "3:20: variable 'v' is not available in a section component (base only)"),
    (BUNDLE + "section s { s[u] = q s[w] = 1 }", "3:20: variable 'q' is not available in a section component (base only)"),
]


@pytest.mark.parametrize("text, expected", TABLE_ERRORS)
def test_table_block_diagnostics_are_unchanged(text, expected):
    with pytest.raises(fc.ParseError) as info:
        fc.parse_document(text)
    assert str(info.value) == expected


# The same for form, exterior_form and transition blocks, one fault per
# document: index names, their order, the degree, repeats and variables.
OBJECT_ERRORS = [
    # form
    (BUNDLE + "form w { w[q] = 1 }", "3:12: unknown coordinate 'q'"),
    (BUNDLE + "form w { w[z1][q] = 1 }", "3:16: unknown coordinate 'q'"),
    (BUNDLE + "form w { w[z3] = 1 }", "3:12: 'z3' is not a leaf coordinate"),
    (BUNDLE + "form w { w[z1][z4] = 1 }", "3:16: 'z4' is not a leaf coordinate"),
    (BUNDLE + "form w { w[z2][z1] = 1 }", "3:12: multi-index must be strictly increasing"),
    (BUNDLE + "form w { w[z1][z1] = 1 }", "3:12: multi-index must be strictly increasing"),
    (BUNDLE + "form w { degree 2 w[z1] = 1 }", "3:19: multi-index length 1 disagrees with degree 2"),
    (BUNDLE + "form w { w[z1] = 1 degree 2 }", "3:10: multi-index length 1 disagrees with degree 2"),
    (BUNDLE + "form w { degree 0 w[z2] = 1 }", "3:19: multi-index length 1 disagrees with degree 0"),
    (BUNDLE + "form w { w[z1] = 1 w[z1][z2] = 1 }", "3:20: multi-index length 2 disagrees with degree 1"),
    (BUNDLE + "form w { w[z1] = 1 w[z1] = 2 }", "3:20: duplicate assignment to 'w'"),
    (BUNDLE + "form w { w[z1][z2] = 0 w[z1][z2] = 0 }", "3:24: duplicate assignment to 'w'"),
    (BUNDLE + "form w { w[z1] = q }", "3:18: variable 'q' is not available in a form coefficient"),
    (BASE + "form w { w[z1] = u }", "2:18: variable 'u' is not available in a form coefficient"),
    (BUNDLE + "form w { degree x }", "3:17: degree takes a number"),
    (BUNDLE + "form w { dim 2 }", "3:10: unexpected item 'dim' in form block"),
    (BUNDLE + "form w { W[z1] = 1 }", "3:10: assignments in this block must use its name 'w'"),
    # exterior_form
    (BUNDLE + "exterior_form w { w[q] = 1 }", "3:21: unknown coordinate 'q'"),
    (BUNDLE + "exterior_form w { w[u] = 1 }", "3:21: unknown coordinate 'u'"),
    (BUNDLE + "exterior_form w { w[z4][z3] = 1 }", "3:21: multi-index must be strictly increasing"),
    (BUNDLE + "exterior_form w { w[z1][z3][z3] = 1 }", "3:21: multi-index must be strictly increasing"),
    (BUNDLE + "exterior_form w { degree 1 w[z3][z4] = 1 }", "3:28: multi-index length 2 disagrees with degree 1"),
    (BUNDLE + "exterior_form w { w[z3] = 1 w[z1][z4] = z2 }", "3:29: multi-index length 2 disagrees with degree 1"),
    (BUNDLE + "exterior_form w { w[z1][z3] = 1 w[z1][z3] = 1 }", "3:33: duplicate assignment to 'w'"),
    (BUNDLE + "exterior_form w { w[z3] = z1*q }", "3:27: variable 'q' is not available in an exterior_form coefficient"),
    (BASE + "exterior_form w { w[z3] = v }", "2:27: variable 'v' is not available in an exterior_form coefficient"),
    # transition
    (BUNDLE + "transition T { T[q] = z1 }", "3:18: unknown coordinate 'q'"),
    (BASE + "transition T { T[u] = z1 }", "2:18: unknown coordinate 'u'"),
    (BUNDLE + "transition T { T[z1] = u }", "3:24: variable 'u' is not available in a base transition component"),
    (BUNDLE + "transition T { T[z3] = z1 + v*z2 }", "3:24: variable 'v' is not available in a base transition component"),
    (BASE + "transition T { T[z1] = q }", "2:24: variable 'q' is not available in a base transition component"),
    (BUNDLE + "transition T { T[u] = q }", "3:23: variable 'q' is not available in a fibre transition component"),
    (BUNDLE + "transition T { T[z1][z2] = 1 }", "3:16: transition components are indexed as T[coordinate]"),
    (BUNDLE + "transition T { T = 1 }", "3:16: transition components are indexed as T[coordinate]"),
    (BUNDLE + "transition T { T[z1] = z2 T[z1] = z3 }", "3:27: duplicate assignment to 'T'"),
    (BUNDLE + "transition T { T[u] = v T[u] = u }", "3:25: duplicate assignment to 'T'"),
    (BUNDLE + "transition T { degree 1 }", "3:16: unexpected item 'degree' in transition block"),
]


@pytest.mark.parametrize("text, expected", OBJECT_ERRORS)
def test_form_and_transition_block_diagnostics_are_unchanged(text, expected):
    with pytest.raises(fc.ParseError) as info:
        fc.parse_document(text)
    assert str(info.value) == expected


# The same for the document as a whole: the block list, the manifold and
# bundle blocks' items, and the object blocks' kinds, names and charts,
# plus what parse_expression finds after a complete expression.
DOCUMENT_ERRORS = [
    # parse_blocks
    ("", "1:1: expected a block"),
    ("  \n  # only a comment\n", "3:1: expected a block"),
    # _build_chart: the manifold block
    ("bundle { fibre u }", "1:1: a manifold block is required"),
    (BASE + BASE, "2:1: duplicate manifold block"),
    ("manifold { leaf 2 coords z1 z2 z3 z4 }", "1:1: manifold block needs a 'dim' item"),
    ("manifold { dim 4 coords z1 z2 z3 z4 }", "1:1: manifold block needs a 'leaf' item"),
    ("manifold { dim 4 leaf 2 }", "1:1: manifold block needs a 'coords' item"),
    ("manifold { dim }", "1:16: expected a value after 'dim'"),
    ("manifold { dim x leaf 2 coords z1 z2 z3 z4 }", "1:16: dim takes a number"),
    ("manifold { dim 4 leaf y coords z1 z2 z3 z4 }", "1:23: leaf takes a number"),
    ("manifold { dim 4 leaf 2 coords z1 z2 3 z4 }", "1:38: coords takes coordinate names"),
    ("manifold { dim 4 leaf 0 coords z1 z2 z3 z4 }", "1:23: leaf dimension must be at least 1"),
    ("manifold { dim 2 leaf 3 coords z1 z2 }", "1:23: leaf dimension exceeds dim"),
    ("manifold { dim 3 leaf 2 coords z1 z2 z3 z4 }", "1:25: coords lists 4 names, dim is 3"),
    ("manifold { dim 3 leaf 2 coords z1 z2 z1 }", "1:38: duplicate coordinate 'z1'"),
    ("manifold M { dim 2 leaf 1 coords z1 z2 }", "1:10: a manifold block takes no name"),
    # _directive_map
    ("manifold { dim 4 dim 4 leaf 2 coords z1 z2 z3 z4 }", "1:18: duplicate 'dim' item"),
    ("manifold { dim 4 leaf 2 coords z1 z2 z3 z4 w[z1] = 1 }", "1:44: manifold block takes no assignments"),
    (BASE + "bundle { dim 2 }", "2:10: unknown item 'dim' in bundle block"),
    (BASE + "bundle { u[z1] = 1 }", "2:10: bundle block takes no assignments"),
    # _build_chart: the bundle block
    (BASE + "bundle { fibre u }\nbundle { fibre v }", "3:1: duplicate bundle block"),
    (BASE + "bundle { }", "2:1: bundle block needs a 'fibre' item"),
    (BASE + "bundle { fibre u 2 }", "2:18: fibre takes coordinate names"),
    (BASE + "bundle { fibre z1 }", "2:16: fibre name 'z1' collides with a coordinate"),
    (BASE + "bundle { fibre u u }", "2:18: duplicate fibre name 'u'"),
    (BASE + "bundle E { fibre u }", "2:8: a bundle block takes no name"),
    # _build_document
    (BASE + "widget w { }", "2:1: unknown block kind 'widget'"),
    (BASE + "form { }", "2:1: form block needs a name"),
    (BASE + "form w { }\nsection w { }", "3:9: duplicate name 'w'"),
    (BASE + "connection G { }", "2:1: a bundle block is required for a connection"),
    (BASE + "leafwise_connection A { }", "2:1: a bundle block is required for a leafwise_connection"),
    (BASE + "section s { }", "2:1: a bundle block is required for a section"),
]


@pytest.mark.parametrize("text, expected", DOCUMENT_ERRORS)
def test_document_diagnostics_are_unchanged(text, expected):
    with pytest.raises(fc.ParseError) as info:
        fc.parse_document(text)
    assert str(info.value) == expected


@pytest.mark.parametrize("text, expected", [
    ("z1 z2", "1:4: unexpected 'z2' after expression"),
    ("z1)", "1:3: unexpected ')' after expression"),
    ("z1 +\n  2 3", "2:5: unexpected '3' after expression"),
])
def test_trailing_expression_diagnostics_are_unchanged(text, expected):
    with pytest.raises(fc.ParseError) as info:
        fc.parse_expression(text)
    assert str(info.value) == expected
