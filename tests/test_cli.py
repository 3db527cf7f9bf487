"""Command-line interface: exit codes, report formats, determinism."""

import json

import pytest

from onsaw import askey_wilson as aw
from onsaw import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_cybe_json(capsys):
    code, out = run_cli(["verify", "cybe", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "verify cybe"
    assert [c["status"] for c in doc["checks"]] == ["pass"]


def test_verify_skew_text(capsys):
    code, out = run_cli(["verify", "skew", "--n", "2"], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_aw(capsys):
    code, out = run_cli(["verify", "aw", "--n", "3"], capsys)
    assert code == 0
    assert "0 failed" in out


def test_extract_aw_n6_certificate(tmp_path, capsys):
    # extraction, Jacobi and the reflection re-certification at N=6, and a
    # byte-exact JSON round trip of the written table
    path = tmp_path / "t6.json"
    code, out = run_cli(["extract", "aw", "--n", "6", "--out", str(path)], capsys)
    assert code == 0, out
    text = path.read_text()
    back = aw.import_table(json.loads(text))
    assert json.dumps(aw.export_table(back), indent=1) + "\n" == text


def test_verify_automorphism_epsilon(capsys):
    code, out = run_cli(
        ["verify", "automorphism", "--which", "theta2", "--n", "2",
         "--levels", "2", "--epsilon=-1"],
        capsys,
    )
    assert code == 0


def test_theta2_odd_rank_rejected(capsys):
    code = cli.main(["verify", "automorphism", "--which", "theta2", "--n", "3",
                     "--levels", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: theta2 requires even N" in err


@pytest.mark.parametrize("argv", [
    ["verify", "onsager", "--n", "1", "--levels", "1"],
    ["verify", "currents", "--n", "1", "--cutoff", "3"],
    ["extract", "aw", "--n", "1", "--out", "t1.json"],
])
def test_rank_one_is_validation_error(argv, capsys):
    # sl_1 = 0: a run at N = 1 would compare nothing
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "N >= 2" in err


def test_bad_window_is_validation_error(capsys):
    code = cli.main(["verify", "frt", "--n", "2", "--cutoff", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "window" in err


def test_currents_empty_window_is_validation_error(capsys):
    code = cli.main(["verify", "currents", "--n", "3", "--cutoff", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "window" in err


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_extract_writes_table(tmp_path, capsys):
    out_file = tmp_path / "t3.json"
    code, out = run_cli(["extract", "aw", "--n", "3", "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["rank"] == 3
    assert len(doc["basis"]) == 8
    from onsaw import askey_wilson as aw

    back = aw.import_table(doc)
    assert aw.check_jacobi(back).ok()


@pytest.mark.parametrize("shift", [1, -1])
def test_extract_recertifies_reflection(shift, tmp_path, monkeypatch, capsys):
    from onsaw import askey_wilson as aw
    from onsaw.exactnum import parse_param_poly

    code, out = run_cli(["extract", "aw", "--n", "3", "--out", str(tmp_path / "t3.json"),
                         "--format", "json"], capsys)
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "reflection-exact" in names
    # shifting one extracted coefficient by +-1 must fail with a locator
    tbl, rep = aw.extract_structure_constants(3)
    doc = aw.export_table(tbl)
    name_c, coeff = doc["brackets"][0][2][0]
    doc["brackets"][0][2][0] = [name_c, str(parse_param_poly(coeff) + shift)]
    monkeypatch.setattr(aw, "extract_structure_constants",
                        lambda n: (aw.import_table(doc), rep))
    code, out = run_cli(["extract", "aw", "--n", "3", "--out", str(tmp_path / "bad.json"),
                         "--format", "json"], capsys)
    assert code == 1
    fail = [c for c in json.loads(out)["checks"] if c["name"] == "reflection-exact"]
    assert fail[0]["status"] == "fail" and fail[0]["detail"].startswith("monomial [(x,")


def test_charges_print(capsys):
    code, out = run_cli(["charges", "print", "--n", "2", "--max-order", "2"], capsys)
    assert code == 0
    assert "I_0" in out and "I_2" in out


def _normalized_json(out: str) -> dict:
    doc = json.loads(out)
    doc.pop("elapsed_ms", None)
    return doc


@pytest.mark.parametrize("argv", [
    ["verify", "cybe", "--n", "2"],
    ["verify", "skew", "--n", "3"],
    ["verify", "onsager", "--n", "2", "--levels", "2"],
    ["verify", "aw", "--n", "3"],
])
def test_reports_deterministic(argv, capsys):
    full = argv + ["--format", "json"]
    _, out1 = run_cli(full, capsys)
    _, out2 = run_cli(full, capsys)
    assert _normalized_json(out1) == _normalized_json(out2)
    assert json.dumps(_normalized_json(out1)) == json.dumps(_normalized_json(out2))


def test_library_reports_carry_no_clock():
    first, second = aw.check_aw(4), aw.check_aw(4)
    assert first.elapsed_ms == 0
    assert first.as_dict() == second.as_dict()


def test_cli_stamps_elapsed_ms(capsys):
    code, out = run_cli(["verify", "aw", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    assert type(json.loads(out)["elapsed_ms"]) is int


def test_failure_exit_code(monkeypatch, capsys):
    # force a failing check through a corrupted residual
    from onsaw import rmatrix as rm
    from onsaw.report import Report

    def failing_check(dim):
        rep = Report("verify skew", {"n": dim})
        rep.add("skew-symmetry", False, "entry (1, 2)->(2, 1) monomial [(x,1)] residual 4")
        return rep

    monkeypatch.setattr(rm, "check_skew", failing_check)
    code = cli.main(["verify", "skew", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "residual" in out
