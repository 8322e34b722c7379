"""Malformed inputs end in a documented exit code and a message naming the
bad field, and oversized ones in exit 5 within a second, never a traceback
or a hang.  Every case runs the CLI in process."""

import hashlib
import json
import time

import pytest

from udlrc import cli
from udlrc.fields import PRIME_CHECK_LIMIT

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


def _sweep(q, classes, r="1", delta="2", m="1", *extra):
    return ["sweep", "--q", str(q), "--classes", str(classes), "--r", r, "--delta", delta, "--m", m, *extra]


@pytest.mark.parametrize("classes", [-1, 0])
def test_sweep_needs_a_class(classes, capsys):
    code, err = _run(_sweep(5, classes, "1:1", "2:2", "1:1"), capsys)
    assert code == 2
    assert f"--classes must be a positive integer, got {classes}" in err


@pytest.mark.parametrize("q", [4, 1, 0, -5])
@pytest.mark.parametrize("extra", [(), ("--budget", "10")], ids=["table", "oracle"])
def test_sweep_q_must_be_prime(q, extra, capsys):
    code, err = _run(_sweep(q, 1, "1", "2", "1", *extra), capsys)
    assert code == 2
    assert f"--q must be a prime, got {q}" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 216^9 combinations, and more classes than the permuted bound takes.
        _sweep(5, 9, "1:3", "2:9", "1:9"),
        _sweep(5, 10**9),
        # 216^4 combinations, every one filtered out (q < r + delta - 1):
        # the visited combinations alone reach the work cap.
        _sweep(2, 4, "2:4", "2:9", "1:9"),
        # More per-class choices than the cap.
        _sweep(5, 1, "1:99999999999999999999", "2", "1"),
    ],
    ids=["nine-classes", "huge-classes", "all-filtered", "huge-range"],
)
def test_sweep_enumeration_is_bounded(argv, capsys):
    start = time.perf_counter()
    code, _ = _run(argv, capsys)
    assert code == 5
    assert time.perf_counter() - start < 1.0


def test_sweep_class_cap_names_the_flag(capsys):
    code, err = _run(_sweep(5, 9, "1:3", "2:9", "1:9"), capsys)
    assert code == 5
    assert "--classes 9 exceeds the 8-class cap of the permuted bound" in err


def test_sweep_work_cap_reports_budget_exceeded(capsys):
    code = cli.main(_sweep(2, 4, "2:4", "2:9", "1:9", "--format", "machine"))
    out = capsys.readouterr().out
    assert code == 5
    assert out.splitlines()[-1] == "status\tbudget-exceeded"
    assert "\nrow\t(" not in out


def test_sweep_work_cap_stops_a_long_column(capsys):
    # One class with a million groups: the table stops at the work cap
    # (9,999 rows after the one combination), not at k = 10^6.
    code = cli.main(_sweep(5, 1, "1", "2", "1000000", "--format", "machine"))
    out = capsys.readouterr().out
    assert code == 5
    assert hashlib.sha256(out.encode()).hexdigest() == "c64edc63d12f1c0cb90a2e8cf724f2dfc67471be868d00c494e1643a74f0b4fa"


def test_sweep_work_cap_builds_only_the_rows_it_prints(monkeypatch, capsys):
    # The work cap cuts the table of (1,2,3);(1,2,2) after 3 of its 5 rows,
    # so its code is built at k = 3; every tuple is built once, at the last
    # row it prints.  The report is the one recorded with a build per row.
    built = []
    build_code = cli.build_code

    def counted_build(spec):
        built.append((spec.k, spec.n_gab))
        return build_code(spec)

    monkeypatch.setattr(cli, "build_code", counted_build)
    code = cli.main(_sweep(5, 2, "1", "2", "1:97", "--budget", "10", "--format", "machine"))
    out = capsys.readouterr().out
    assert code == 5
    assert hashlib.sha256(out.encode()).hexdigest() == "71dfe2872e256a9fc769012be46066700c2a45b4b2139864d752ac003072e61b"
    oracled = [line.split("\t") for line in out.splitlines() if line.startswith("row\t(") and not line.endswith("\t-")]
    last_k = {}
    for row in oracled:
        last_k[row[1]] = int(row[2])
    assert [k for k, _ in built] == list(last_k.values())
    assert built[-1] == (3, 5) and oracled[-1][1] == "(1,2,3);(1,2,2)"


def test_field_setup_over_the_search_limit_exits_five(tmp_path, capsys):
    # t = 5 over GF(1000000007): every x^5 + c has a root.
    doc = {"q": 1000000007, "t": 5, "k": 2, "classes": [{"r": 2, "delta": 2, "m": 1}]}
    start = time.perf_counter()
    code, err = _run(["build", "--spec", _spec_file(tmp_path, doc)], capsys)
    assert code == 5
    assert "degree 5 over GF(1000000007)" in err
    assert time.perf_counter() - start < 1.0


def test_field_setup_over_the_work_budget_exits_five(tmp_path, capsys):
    # One Rabin test of a degree-400 candidate costs more than the whole
    # set-up budget, so the modulus search stops before its first test.
    path = tmp_path / "wide.spec"
    path.write_text("q: 5\nt: 400\nk: 1\nclass: r=1 delta=2 m=1\n")
    start = time.perf_counter()
    code, err = _run(["build", "--spec", str(path)], capsys)
    assert code == 5
    assert "degree 400 over GF(5)" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "q,code",
    [(2**61 - 1, 0), ((2**31 - 1) * (2**31 - 19), 2), (PRIME_CHECK_LIMIT, 2), (2**89 - 1, 2)],
    ids=["prime-2^61-1", "semiprime", "at-the-limit", "prime-above-the-limit"],
)
@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_large_q_is_decided_within_a_second(command, q, code, tmp_path, capsys):
    # Primality is decided below PRIME_CHECK_LIMIT; from there on the
    # message names the limit instead of calling q composite.
    doc = {"q": q, "t": 2, "k": 2, "classes": [{"r": 2, "delta": 2, "m": 1}]}
    limit = f"is not below {PRIME_CHECK_LIMIT}, the primality test's limit"
    if command == "bounds":
        argv = ["bounds", "--spec", _spec_file(tmp_path, doc)]
        message = f"base field size q={q} {limit}" if q >= PRIME_CHECK_LIMIT else f"base field size must be prime, got q={q}"
    else:
        argv = _sweep(q, 1)
        message = f"--q {q} {limit}" if q >= PRIME_CHECK_LIMIT else f"--q must be a prime, got {q}"
    start = time.perf_counter()
    got, err = _run(argv, capsys)
    assert got == code
    assert (message in err) == (code == 2)
    assert time.perf_counter() - start < 1.0
