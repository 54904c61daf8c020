"""Command-line front end: verbs, payloads, exit codes, JSON parity."""

from __future__ import annotations

import json
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
_real_wedge = commands.wedge
_real_apply_splitting = extension.apply_splitting


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


def _soldering_with_plus_sign(split, difference):
    sigma = _real_apply_splitting(split, difference)
    cutoff = sigma.chart.dim_leaf
    flipped = {key: c if key[1] < cutoff else -c for key, c in sigma.coefficients.items()}
    return extension.SolderingForm._build(sigma.chart, flipped)


# d(z1*z2) = z2 ~dz1 + z1 ~dz2, whose two terms cancel in d^2 by their
# signs, and w = z2 dz1, whose restriction keeps its only component.
FAULT_DOC = "manifold { dim 3 leaf 2 coords z1 z2 z3 }\nform f { f = z1*z2 }\n" \
    "exterior_form w { w[z1] = z2 }\n"

INJECTED_FAULTS = [
    # (module, name, fault, argv, the failing check)
    (forms, "merge_indices", _unsigned_merge, ["check", FAULT_DOC], "form.f.d_squared"),
    (commands, "restrict_form", _off_by_one_restriction, ["check", FAULT_DOC],
     "exterior_form.w.restrict_commutes"),
    (commands, "wedge", lambda a, b: _real_wedge(b, a), ["check", CALCULUS], "leibniz.phi.beta"),
    (commands, "is_foliated_function",
     lambda f, chart: f.variables().isdisjoint(chart.transverse_coords),
     ["check", CALCULUS], "form.psi.foliated_kernel"),
    (extension, "apply_splitting", _soldering_without_leaf_slots,
     ["verify", WORKED, "--name", "A", "--name", "B"], "extension.round_trip"),
    (extension, "apply_splitting", _soldering_with_plus_sign,
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


def test_check_builds_each_form_differential_once(monkeypatch):
    # d^2, the foliated kernel, restriction and every Leibniz pair share it.
    document = fc.parse_document(CALCULUS.read_text())
    declared = [obj.value for obj in document.of_kind("form", "exterior_form")]
    arguments = []
    for name in ("leafwise_differential", "exterior_differential"):
        real = getattr(commands, name)
        monkeypatch.setattr(commands, name, lambda f, real=real: arguments.append(f) or real(f))
    assert commands.run_command("check", document).ok
    assert [sum(a is form for a in arguments) for form in declared] == [1] * len(declared)


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
