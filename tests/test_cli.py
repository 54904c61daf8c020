"""Command-line front end: verbs, payloads, exit codes, JSON parity."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import folicalc as fc
from folicalc import commands, extension, forms
from folicalc.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

WORKED = SAMPLES / "worked_extension.fol"
CALCULUS = SAMPLES / "leafwise_calculus.fol"
BUNDLE = SAMPLES / "foliated_bundle.fol"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_worked_triple(capsys):
    code, out, _ = run(capsys, "verify", WORKED, "--name", "A", "--name", "B")
    assert code == 0
    assert "[pass] extension.round_trip" in out
    assert "Gamma'[u][z1] = u" in out
    assert "Gamma'[u][z3] = -u*z2" in out


def test_verify_with_two_splittings_reports_dependence(capsys):
    code, out, _ = run(
        capsys, "verify", WORKED, "--name", "A", "--name", "B", "--name", "B0"
    )
    assert code == 0
    assert "extension.dependence" in out
    assert "Delta[u][z3] = -u*z2" in out


def test_extend_defaults_reference_to_zero(capsys):
    code, out, _ = run(capsys, "extend", WORKED, "--name", "A", "--name", "B")
    assert code == 0
    assert "Gamma'[u][z3] = -u*z2" in out


def test_diff_payload(capsys):
    code, out, _ = run(capsys, "diff", CALCULUS, "--name", "phi")
    assert code == 0
    assert "z3 ~dz1" in out


def test_restrict_form_payload(capsys):
    code, out, _ = run(capsys, "restrict", CALCULUS, "--name", "sigma")
    assert code == 0
    assert "z3 ~dz1" in out


def test_restrict_kills_transverse_covector(tmp_path, capsys):
    doc = tmp_path / "doc.fol"
    doc.write_text(
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\nexterior_form w { w[z3] = 1 }\n"
    )
    code, out, _ = run(capsys, "restrict", doc, "--name", "w")
    assert code == 0
    assert "[pass] restrict.w: 0" in out


def test_restrict_connection_payload(capsys):
    code, out, _ = run(capsys, "restrict", BUNDLE, "--name", "Gamma")
    assert code == 0
    assert "Gamma_F[u][z1] = z2" in out


def test_wedge_payload(capsys):
    code, out, _ = run(capsys, "wedge", CALCULUS, "--name", "alpha", "--name", "beta")
    assert code == 0
    assert "~dz1^~dz2" in out


def test_check_passes_on_samples(capsys):
    for sample in (CALCULUS, BUNDLE, WORKED):
        code, out, _ = run(capsys, "check", sample)
        assert code == 0, sample


def test_check_fails_on_non_adapted_transition(tmp_path, capsys):
    doc = tmp_path / "bad.fol"
    doc.write_text(
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\n"
        "transition t { t[z3] = z3 + z1 }\n"
    )
    code, out, _ = run(capsys, "check", doc)
    assert code == 1
    assert "[fail] transition.t.adapted" in out


# Faults injected below the verbs, one per check the verbs make, so that
# every check is seen to fail: exit 1 and its [fail] line.
_real_merge = forms.merge_indices
_real_wedge_sum = commands._wedge_sum
_real_apply_splitting = extension.apply_splitting
_real_transverse = extension._transverse


def _unsigned_merge(left, right):
    # dz_j ^ dz_I without the sign of the sorting permutation.
    return _real_merge(left, right)[0], 1


def _off_by_one_restriction(form):
    # Keeps only indices below the last leaf coordinate.
    cutoff = form.chart.dim_leaf - 1
    kept = {index: c for index, c in form.components.items() if all(i < cutoff for i in index)}
    return fc.LeafwiseForm._build(form.chart, form.degree, kept)


def _soldering_without_leaf_slots(split, difference):
    sigma = _real_apply_splitting(split, difference)
    cutoff = sigma.chart.dim_leaf
    kept = {key: c for key, c in sigma.coefficients.items() if key[1] >= cutoff}
    return extension.SolderingForm._build(sigma.chart, kept)


def _transverse_with_plus_sign(difference, *signed):
    return {key: -c for key, c in _real_transverse(difference, *signed).items()}


# d(z1*z2) = z2 ~dz1 + z1 ~dz2, whose two terms cancel in d^2 by their
# signs, and w = z2 dz1, whose restriction keeps its only component.
FAULT_DOC = "manifold { dim 3 leaf 2 coords z1 z2 z3 }\nform f { f = z1*z2 }\n" \
    "exterior_form w { w[z1] = z2 }\n"

INJECTED_FAULTS = [
    # (module, name, fault, argv, the failing check)
    (forms, "merge_indices", _unsigned_merge, ["check", FAULT_DOC], "form.f.d_squared"),
    (commands, "restrict_form", _off_by_one_restriction, ["check", FAULT_DOC],
     "exterior_form.w.restrict_commutes"),
    (commands, "_wedge_sum", lambda terms: _real_wedge_sum([(b, a, negate) for a, b, negate in terms]),
     ["check", CALCULUS], "leibniz.phi.beta"),
    (commands, "is_foliated_function",
     lambda f, chart: f.variables().isdisjoint(chart.transverse_coords),
     ["check", CALCULUS], "form.psi.foliated_kernel"),
    (extension, "apply_splitting", _soldering_without_leaf_slots,
     ["verify", WORKED, "--name", "A", "--name", "B"], "extension.round_trip"),
    (extension, "_transverse", _transverse_with_plus_sign,
     ["verify", WORKED, "--name", "A", "--name", "B", "--name", "B0"], "extension.dependence"),
    (commands, "check_foliated_bundle_transition",
     lambda components, chart: all(c.variables().isdisjoint(chart.base.coords) for c in components),
     ["check", BUNDLE], "transition.twist.foliated_bundle"),
]


@pytest.mark.parametrize(
    "module, name, fault, argv, failing", INJECTED_FAULTS, ids=[f[-1] for f in INJECTED_FAULTS]
)
def test_each_check_fails_on_an_injected_fault(
    tmp_path, monkeypatch, capsys, module, name, fault, argv, failing
):
    if FAULT_DOC in argv:
        doc = tmp_path / "doc.fol"
        doc.write_text(FAULT_DOC)
        argv = [doc if arg == FAULT_DOC else arg for arg in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and f"[pass] {failing}" in out
    monkeypatch.setattr(module, name, fault)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert f"[fail] {failing}" in out


# What each verb builds, on every sample: check on each of them, each
# sample's `# Run:` lines and README's examples.  A column counts the calls
# of one builder, wherever the package calls it: parse_document; the entry
# checks that parsing runs once per block (_checked_entries for each object
# and transition component, _transition_entries for each transition, so a
# parsed document is not checked a second time); the leafwise and exterior
# differentials; restrict_form; wedge (once per Leibniz pair in check,
# whose right-hand side is one forms._wedge_sum); restrict_connection;
# connection_difference; apply_splitting, once per extension built, whatever
# the entry point.
BUILDERS = (
    (fc.dsl, "parse_document"), (fc.charts, "_checked_entries"),
    (fc.dsl, "_transition_entries"), (forms, "leafwise_differential"),
    (forms, "exterior_differential"), (forms, "restrict_form"), (forms, "wedge"),
    (fc.connections, "restrict_connection"), (fc.connections, "connection_difference"),
    (extension, "apply_splitting"),
)
BUILD_TABLE = {
    # command, without --json: counts in BUILDERS' order
    "check samples/foliated_bundle.fol":
        (1, 7, 1, 0, 0, 0, 0, 0, 0, 0),
    "check samples/leafwise_calculus.fol":
        (1, 8, 1, 20, 7, 4, 13, 0, 0, 0),
    "check samples/worked_extension.fol":
        (1, 3, 0, 0, 0, 0, 0, 0, 0, 0),
    "diff samples/leafwise_calculus.fol --name phi":
        (1, 8, 1, 1, 0, 0, 0, 0, 0, 0),
    "extend samples/foliated_bundle.fol --name A --name Gamma --name B":
        (1, 7, 1, 0, 0, 0, 0, 1, 1, 1),
    "extend samples/worked_extension.fol --name A --name B":
        (1, 3, 0, 0, 0, 0, 0, 1, 1, 1),
    "restrict samples/foliated_bundle.fol --name Gamma":
        (1, 7, 1, 0, 0, 0, 0, 1, 0, 0),
    "restrict samples/leafwise_calculus.fol --name sigma":
        (1, 8, 1, 0, 0, 1, 0, 0, 0, 0),
    "verify samples/foliated_bundle.fol --name A --name Gamma --name B":
        (1, 7, 1, 0, 0, 0, 0, 2, 1, 1),
    "verify samples/worked_extension.fol --name A --name B --name B0":
        (1, 3, 0, 0, 0, 0, 0, 2, 1, 1),
    "wedge samples/leafwise_calculus.fol --name alpha --name beta":
        (1, 8, 1, 0, 0, 0, 1, 0, 0, 0),
}


def _sample_commands() -> list[str]:
    # The `folicalc <verb> ...` lines of each sample's `# Run:` block and of
    # the README, and check on every sample.
    root = SAMPLES.parent
    texts = [path.read_text() for path in sorted(SAMPLES.glob("*.fol"))]
    lines = [line.removeprefix("#").strip() for text in texts for line in text.splitlines()]
    lines += (root / "README.md").read_text().splitlines()
    lines += [f"folicalc check samples/{path.name}" for path in sorted(SAMPLES.glob("*.fol"))]
    runs = {" ".join(words[1:]) for words in map(str.split, lines)
            if len(words) > 1 and words[0] == "folicalc" and words[1] in commands.VERBS}
    return sorted(runs)


def test_build_table_has_a_row_per_sample_command():
    assert sorted(BUILD_TABLE) == sorted(c.replace(" --json", "") for c in _sample_commands())


@pytest.mark.parametrize("command", _sample_commands())
def test_each_verb_builds_what_it_needs_once(monkeypatch, capsys, command):
    calls = {name: [] for _, name in BUILDERS}
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "folicalc"]
    for home, name in BUILDERS:
        real = getattr(home, name)

        def counted(*args, _name=name, _real=real):
            result = _real(*args)
            calls[_name].append((args, result))
            return result

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    argv = command.split()
    argv[1] = SAMPLES.parent / argv[1]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    counts = tuple(len(calls[name]) for _, name in BUILDERS)
    assert counts == BUILD_TABLE[command.replace(" --json", "")]
    # No declared form is differentiated twice, and check differentiates
    # each one once: d^2, the foliated kernel, restriction and every Leibniz
    # pair share it.
    (_, document), = calls["parse_document"]
    declared = [obj.value for obj in document.of_kind("form", "exterior_form")]
    arguments = [args[0] for name in ("leafwise_differential", "exterior_differential")
                 for args, _ in calls[name]]
    built = [sum(a is form for a in arguments) for form in declared]
    if argv[0] == "check":
        assert built == [1] * len(declared)
    else:
        assert all(count <= 1 for count in built)


def test_json_and_text_verdicts_agree(capsys):
    code_text, out_text, _ = run(capsys, "check", CALCULUS)
    code_json, out_json, _ = run(capsys, "check", CALCULUS, "--json")
    assert code_text == code_json == 0
    payload = json.loads(out_json)
    assert payload["command"] == "check"
    text_lines = [line for line in out_text.splitlines() if line]
    assert len(payload["checks"]) == len(text_lines)
    for check, line in zip(payload["checks"], text_lines):
        assert line.startswith(f"[{check['status']}] {check['name']}")


def test_unknown_name_is_input_error(capsys):
    code, _, errtext = run(capsys, "diff", CALCULUS, "--name", "nope")
    assert code == 2
    assert "unknown object" in errtext


def test_kind_mismatch_is_input_error(capsys):
    code, _, errtext = run(capsys, "restrict", CALCULUS, "--name", "phi")
    assert code == 2
    assert "phi" in errtext


def test_parse_error_reports_position(tmp_path, capsys):
    doc = tmp_path / "broken.fol"
    doc.write_text("manifold { dim 3 leaf 2 coords z1 z2 }\n")
    code, _, errtext = run(capsys, "check", doc)
    assert code == 2
    assert "broken.fol:1:" in errtext


def test_missing_file_is_input_error(capsys):
    code, _, errtext = run(capsys, "check", "no-such-file.fol")
    assert code == 2
    assert "error:" in errtext


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    doc = tmp_path / "binary.fol"
    doc.write_bytes(b"\xff\xfe\x00manifold")
    code, _, errtext = run(capsys, "check", doc)
    assert code == 2
    assert "UTF-8" in errtext


def test_check_rejects_names(capsys):
    code, _, errtext = run(capsys, "check", CALCULUS, "--name", "phi")
    assert code == 2
    assert "no --name" in errtext


def test_oversized_integer_literal_exits_2(tmp_path, capsys):
    doc = tmp_path / "huge.fol"
    doc.write_text(
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\n"
        "form p {\n  p = " + "1" * 5001 + "\n}\n"
    )
    code, out, errtext = run(capsys, "check", doc)
    assert code == 2
    assert out == ""
    assert "huge.fol:3:7:" in errtext
    assert "too many digits" in errtext


@pytest.mark.parametrize(
    "value, column",
    [("9^99999999", 7), ("(1/3)^99999999", 7), ("2^" + "9" * 400, 7),
     ("9^300000*" * 3 + "z1", 16), ("(9^300000)*(9^300000)*z1", 18)],
)
def test_literal_power_past_the_bit_limit_exits_2(tmp_path, capsys, value, column):
    doc = tmp_path / "huge.fol"
    doc.write_text(
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\n"
        "form p {\n  p = " + value + "\n}\n"
    )
    start = time.perf_counter()
    code, out, errtext = run(capsys, "check", doc)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert errtext.startswith(f"{doc}:3:{column}: number too large")


@pytest.mark.parametrize(
    "value, message",
    [("(1+z1+z2)^2000", "it would have more than 100000 terms"),
     ("(1/3+z1)^99999999", "it would have more than 100000 terms"),
     ("(2*z1)^99999999", "a coefficient would pass 1048576 bits"),
     ("(z1*z2 - z1)^99999999", "it would have more than 100000 terms")],
)
def test_group_power_past_the_size_limits_exits_2(tmp_path, capsys, value, message):
    # A group that holds a name is raised by Expression.__pow__, which
    # predicts the size before building; the error is at the group's '('.
    doc = tmp_path / "huge.fol"
    doc.write_text(
        "manifold { dim 4 leaf 2 coords z1 z2 z3 z4 }\n"
        "form p {\n  p = z3 + 3*" + value + "\n}\n"
    )
    start = time.perf_counter()
    code, out, errtext = run(capsys, "check", doc)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert errtext == f"{doc}:3:14: power too large: {message}\n"


def test_products_past_the_size_limits_exit_2(tmp_path, capsys):
    # A product of named groups past the bit limit is refused at the group's
    # '('; the Leibniz check's p ^ dp, 141 million pairs of terms, is refused
    # before its pair loop, with no position.
    for value, expected in (
        ("*".join(["(9^300000*z1)"] * 6), "{}:3:21: product too large: a coefficient would pass"),
        ("(1+z1+z2+z3)^40", "error: product too large: it would take more than 10000000 pairs"),
    ):
        doc = tmp_path / "huge.fol"
        doc.write_text(
            "manifold { dim 4 leaf 2 coords z1 z2 z3 z4 }\n"
            "form p {\n  p = " + value + "\n}\n"
        )
        start = time.perf_counter()
        code, out, errtext = run(capsys, "check", doc)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert errtext.startswith(expected.format(doc))


def test_a_product_dense_in_total_degree_is_checked(tmp_path, capsys):
    # p ^ dp of a 1,820-term form takes 2.48 million pairs of terms, inside
    # the pair limit, and makes at most comb(23 + 4, 4) = 17,550 terms, far
    # fewer than the 24^4 box of its top exponents.
    doc = tmp_path / "dense.fol"
    doc.write_text(
        "manifold { dim 4 leaf 2 coords z1 z2 z3 z4 }\n"
        "form p {\n  p = (1+z1+z2+z3+z4)^12\n}\n"
    )
    code, out, errtext = run(capsys, "check", doc)
    assert (code, errtext) == (0, "")
    assert "[pass] leibniz.p.p" in out


def test_unprintable_coefficient_exits_2(tmp_path, capsys):
    # 10^5000 is computed, not written as a literal, so it parses; printing
    # it would pass the interpreter's int/str digit limit.
    doc = tmp_path / "huge.fol"
    doc.write_text(
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\n"
        "form p {\n  p = 10^5000*z1\n}\n"
    )
    for extra in ((), ("--json",)):
        code, out, errtext = run(capsys, "diff", doc, "--name", "p", *extra)
        assert code == 2
        assert out == ""
        assert "Traceback" not in errtext
        assert errtext.startswith("error: ")
        assert "5001 digits" in errtext


# Two leafwise connections and two connections over one bundle, a leafwise
# form and an exterior form: inputs that the verbs refuse by name.
TWO_OF_A_KIND = fc.parse_document(
    "manifold { dim 3 leaf 2 coords z1 z2 z3 }\nbundle { fibre u }\n"
    "leafwise_connection A { A[u][z1] = u }\nleafwise_connection A2 { }\n"
    "connection G { }\nconnection G2 { }\nsplitting B { }\n"
    "form a { a[z1] = z2 }\nexterior_form w { w[z3] = z1 }\n"
)


@pytest.mark.parametrize("verb, names, message", [
    ("nope", [], "unknown command 'nope'"),
    ("wedge", ["a", "w"], "wedge: 'a' and 'w' are forms of different kinds"),
    ("extend", ["A", "A2", "B"], "extend: more than one leafwise_connection named"),
    ("verify", ["A", "A2", "B"], "verify: more than one leafwise_connection named"),
    ("extend", ["A", "G", "G2", "B"], "extend: more than one connection named"),
    ("verify", ["A", "G", "G2", "B"], "verify: more than one connection named"),
])
def test_refused_names_are_input_errors(verb, names, message):
    with pytest.raises(fc.InputError, match=f"^{message}$"):
        fc.run_command(verb, TWO_OF_A_KIND, names)
