"""Malformed inputs end in a documented exit code and a message naming the
bad field, never a traceback.  Every case runs the CLI in process."""

import json

import pytest

from udlrc import cli

REF = {"q": 5, "t": 5, "k": 4, "seed": 7, "classes": [{"r": 2, "delta": 3, "m": 1}, {"r": 3, "delta": 2, "m": 1}]}


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def _spec_file(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _with(field, value):
    doc = json.loads(json.dumps(REF))
    if field in ("r", "delta", "m"):
        doc["classes"][1][field] = value
    else:
        doc[field] = value
    return doc


def test_well_formed_json_spec_passes(tmp_path, capsys):
    assert _run(["bounds", "--spec", _spec_file(tmp_path, REF)], capsys)[0] == 0


@pytest.mark.parametrize("field", ["q", "t", "k", "seed", "r", "delta", "m"])
@pytest.mark.parametrize("value", ["4", 4.0, True, None, [4]], ids=["str", "float", "bool", "null", "list"])
def test_json_spec_field_must_be_an_integer(field, value, tmp_path, capsys):
    code, err = _run(["bounds", "--spec", _spec_file(tmp_path, _with(field, value))], capsys)
    assert code == 2
    assert f"'{field}' must be an integer" in err
    if field in ("r", "delta", "m"):
        assert "class 2" in err


@pytest.mark.parametrize("digit", ["1", 1.0, False, None], ids=["str", "float", "bool", "null"])
def test_symbol_digit_must_be_an_integer(digit, tmp_path, capsys):
    message = [[0, 1, 2, 3, 4] for _ in range(4)]
    message[2][3] = digit
    path = tmp_path / "message.json"
    path.write_text(json.dumps(message))
    code, err = _run(["encode", "--spec", _spec_file(tmp_path, REF), "--message", str(path)], capsys)
    assert code == 2
    assert "symbol 2: digit 3 must be an integer" in err


def test_negative_certify_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UDLRC_BUDGET", raising=False)
    spec = _spec_file(tmp_path, REF)
    code, err = _run(["certify", "--spec", spec, "--budget", "-3"], capsys)
    assert code == 2
    assert "--budget must be a non-negative integer, got -3" in err
    monkeypatch.setenv("UDLRC_BUDGET", "-1")
    code, err = _run(["certify", "--spec", spec], capsys)
    assert code == 2
    assert "UDLRC_BUDGET must be a non-negative integer, got -1" in err
    # An explicit budget still wins over the environment, and zero is a budget.
    code, _ = _run(["certify", "--spec", spec, "--budget", "0"], capsys)
    assert code == 5


def test_negative_sweep_budget(capsys):
    argv = ["sweep", "--q", "5", "--classes", "1", "--r", "1", "--delta", "2", "--m", "1", "--budget", "-1"]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "--budget must be a non-negative integer, got -1" in err
