"""Command-line front end: verbs, payloads, exit codes, JSON parity."""

from __future__ import annotations

import json
from pathlib import Path

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
