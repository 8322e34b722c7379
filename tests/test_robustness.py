"""Malformed inputs end in a documented exit code and a message naming the
bad field, and oversized ones in exit 5 within a second, never a traceback
or a hang; the table from exception classes to exit codes is pinned, and an
exception outside it still propagates.  So is the exit code of each status
a report ends with.  Every case runs the CLI in process."""

import dataclasses
import hashlib
import json
import random
import re
import time
from itertools import product

import pytest

import udlrc as u
from conftest import counting, ref_cmd_sweep
from udlrc import cli
from udlrc.analysis import OrderedConditionRequired, TooLarge
from udlrc.bounds import DimensionInfeasible, TooManyClasses
from udlrc.construction import FieldTooSmall, SpecInvalid, decode_erasures
from udlrc.fields import PRIME_CHECK_LIMIT, ModulusSearchTooLarge
from udlrc.specfile import SpecFileError

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


@pytest.mark.parametrize("digit", [7, -1])
def test_symbol_digit_must_lie_in_the_base_field(digit, tmp_path, capsys):
    # A digit outside [0, q) is refused, not reduced mod q into another message.
    message = [[0, 1, 2, 3, 4] for _ in range(4)]
    message[2][3] = digit
    path = tmp_path / "message.json"
    path.write_text(json.dumps(message))
    code, err = _run(["encode", "--spec", _spec_file(tmp_path, REF), "--message", str(path)], capsys)
    assert code == 2
    assert f"symbol 2: digit 3 must be in [0, 5), got {digit}" in err


def test_negative_certify_budget(tmp_path, capsys):
    spec = _spec_file(tmp_path, REF)
    code, err = _run(["certify", "--spec", spec, "--budget", "-3"], capsys)
    assert code == 2
    assert "--budget must be a non-negative integer, got -3" in err
    # Zero is a budget.
    code, _ = _run(["certify", "--spec", spec, "--budget", "0"], capsys)
    assert code == 5


def test_certify_is_near_linear_in_t(tmp_path, capsys, monkeypatch):
    # The packed layout's unit row was a sum of t shifted ones and was built
    # twice per certify, quadratic in t: 4.4 s at t = 80,000, 13 s at
    # 160,000.  At t = 10^6 every row but spec and digest is the t = 5 one.
    # No check reads past the first n_gab coordinates of a point or needs
    # the field, so the code is built at t = n_gab = 5: built at t = 10^6,
    # its 8 points took about 0.4 s and 103 MB peak.
    build_code, asked = cli.build_code, []

    def recording(spec):
        asked.append(spec.t)
        return build_code(spec)

    monkeypatch.setattr(cli, "build_code", recording)
    reports = []
    for t in (5, 1_000_000):
        start = time.perf_counter()
        code = cli.main(["certify", "--spec", _spec_file(tmp_path, {**REF, "t": t}), "--format", "machine"])
        assert (code, time.perf_counter() - start < 5.0) == (0, True)
        rows = capsys.readouterr().out.splitlines()
        reports.append([row for row in rows if row.split("\t")[1] not in ("spec", "digest")])
    assert reports[0] == reports[1] and len(reports[0]) == 10
    assert asked == [5, 5]


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
        # 10,000 choices per class, at the cap: the walk keeps no table of
        # successor choices, which would hold 10^8 entries.
        _sweep(10007, 2, "1:100", "2:101", "1"),
        _sweep(10007, 1, "1:100", "2:101", "1"),
        _sweep(7, 2, "1:100", "2:101", "1"),
    ],
    ids=["nine-classes", "huge-classes", "all-filtered", "huge-range", "wide-2", "wide-1", "wide-filtered"],
)
def test_sweep_enumeration_is_bounded(argv, capsys):
    start = time.perf_counter()
    code, _ = _run(argv, capsys)
    assert code == 5
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        # The "-filtered" ranges give only choices the q rule drops at q = 2.
        (_sweep(2, 1, "5", "1:2", "1"), "local distance delta must be >= 2, got 1"),
        (_sweep(7, 1, "1", "1:2", "1"), "local distance delta must be >= 2, got 1"),
        (_sweep(2, 1, "0:1", "4", "1"), "locality r must be >= 1, got 0"),
        (_sweep(2, 1, "5", "2", "0:1"), "group count must be >= 1, got 0"),
        # An empty range leaves no class tuple, and the others are checked still.
        (_sweep(5, 2, "3:1", "1:2", "1"), "local distance delta must be >= 2, got 1"),
    ],
    ids=["delta-filtered", "delta", "r-filtered", "m-filtered", "delta-empty-r"],
)
def test_sweep_refuses_invalid_range_values(argv, message, capsys):
    code, err = _run(argv, capsys)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize(
    "argv, status",
    [
        (_sweep(7, 3, "1:3", "2:3", "1:2"), "ok"),
        (_sweep(3, 4, "1:2", "2:3", "1:2"), "ok"),
        (_sweep(2, 3, "1", "2", "1:9"), "budget-exceeded"),
        (_sweep(7, 4, "1:5", "2:3", "1"), "budget-exceeded"),
        (_sweep(11, 4, "1:9", "2:3", "1"), "budget-exceeded"),
        (_sweep(2, 4, "1:5", "2", "1:2"), "budget-exceeded"),
        (_sweep(2, 4, "2:4", "2:3", "1:2"), "budget-exceeded"),
        (_sweep(2, 2, "2:4", "2:3", "1:2"), "ok"),
        (_sweep(5, 2, "3:1", "2", "1"), "ok"),
        (_sweep(5, 1, "1:200", "2:60", "1"), "budget-exceeded"),
        (_sweep(5, 2, "1:3", "2", "1:2", "--budget", "10"), "ok"),
        (_sweep(7, 3, "1:2", "2:3", "1", "--budget", "10"), "ok"),
        (_sweep(5, 2, "1", "2", "1:97", "--budget", "10"), "budget-exceeded"),
        # Sibling tuples that repeat an (r, delta) at another m, so the fold
        # of their shared prefix serves both, and the cap cuts the table of
        # (1,2,3);(1,2,2);(2,2,3);(2,2,2) after 7 of its 15 rows.
        (_sweep(7, 4, "1:3", "2", "1:3"), "budget-exceeded"),
    ],
    ids=["table", "four-classes", "cut-in-table", "cut-filtered", "cut-kept", "cut-after-last-kept", "all-filtered-cut",
         "all-filtered", "empty-range", "too-many-choices", "oracle", "oracle-three-classes", "oracle-cut", "cut-siblings"],
)
def test_sweep_matches_the_product_loop(argv, status, fmt, capsys):
    # The walk over the kept tuples, folding each kept prefix once, against
    # the loop over every combination with each tuple's table from
    # ref_bounds_table, with the work cap reached at each kind of place
    # ("cut-...").
    argv = [*argv, "--format", fmt]
    code = cli.main(argv)
    out = capsys.readouterr().out
    report = cli.Report("sweep", fmt)
    report.add("status", ref_cmd_sweep(cli.build_parser().parse_args(argv), report))
    assert (code, out) == (cli.STATUS_CODES[status], report.render())


def test_oracle_fold_matches_the_per_tuple_oracle_on_random_sweeps(capsys):
    # 40 seeded `sweep --budget` runs, q in {5, 7, 11}, s <= 3 and budgets
    # 4-14 in text and machine format, every fifth with a long m range that
    # the work cap cuts, against ref_cmd_sweep, which builds each tuple's
    # code and reads its oracle-d from prefix_oracles.  A class wider than
    # the budget is in no tuple with n <= budget, so it gets no group
    # table: no _block_table call walks a block wider than the budget.
    rng = random.Random(2044)
    statuses, oracled, wide = [], 0, 0
    for case in range(40):
        q, budget, fmt = rng.choice((5, 7, 11)), rng.randint(4, 14), rng.choice(("text", "machine"))
        if case % 5 == 0:
            s, r, delta, m = rng.randint(1, 2), (1, 1), (2, 2), (1, rng.randint(150, 200))
        else:
            s, lo, dlo = rng.randint(1, 3), rng.randint(1, 4), rng.randint(2, 5)
            r, delta, m = (lo, lo + rng.randint(0, 2)), (dlo, dlo + rng.randint(0, 2)), (1, rng.randint(1, 3))
        ranges = [f"{lo}:{hi}" for lo, hi in (r, delta, m)]
        argv = _sweep(q, s, *ranges, "--budget", str(budget), "--format", fmt)
        with pytest.MonkeyPatch.context() as mp:
            widths = counting(mp, "_block_table", lambda pk, block, *rest: len(block))
            code = cli.main(argv)
        out = capsys.readouterr().out
        report = cli.Report("sweep", fmt)
        status = ref_cmd_sweep(cli.build_parser().parse_args(argv), report)
        report.add("status", status)
        assert (code, out) == (cli.STATUS_CODES[status], report.render())
        assert all(width <= budget for width in widths)
        statuses.append(status)
        oracled += sum(row[-1] != "-" for row in report.rows if row[0] == "row" and row[1].startswith("("))
        # A choice that fits q is kept, repeated in every class.
        choice_widths = [i + j - 1 for i, j in product(range(r[0], r[1] + 1), range(delta[0], delta[1] + 1))]
        wide += any(budget < width <= q for width in choice_widths)
    assert statuses.count("budget-exceeded") >= 8 and statuses.count("ok") >= 20
    assert oracled > 200 and wide >= 8


def _ref_kept_tuples(choices, s, q):
    """Every combination of product(range(len(choices)), repeat=s) with its
    position, kept when r is nondecreasing, delta nonincreasing and
    q >= r + delta - 1 in every class."""
    for position, picks in enumerate(product(range(len(choices)), repeat=s)):
        rs, ds = [choices[i][0] for i in picks], [choices[i][1] for i in picks]
        if (
            all(a <= b for a, b in zip(rs, rs[1:]))
            and all(a >= b for a, b in zip(ds, ds[1:]))
            and all(q >= r + d - 1 for r, d in zip(rs, ds))
        ):
            yield position, picks


def test_kept_tuples_match_the_product_filter():
    # 400 seeded (choices, s <= 5, q) inputs, choices as sweep makes them
    # from its three ranges (the m range empty a quarter of the time), cut
    # to at most 3,000 combinations.
    rng = random.Random(2017)
    kept = empty = none = partial = 0
    for _ in range(400):
        s, r, d = rng.randint(1, 5), rng.randint(0, 4), rng.randint(1, 5)
        ms = range(1, rng.choice((1, 2, 2, 3)))
        choices = list(product(range(r, r + rng.randint(1, 4)), range(d, d + rng.randint(1, 3)), ms))
        while len(choices) ** s > 3000:
            choices.pop(rng.randrange(len(choices)))
        q = rng.choice((2, 3, 5, 7, 11))
        got = list(cli._kept_tuples(choices, s, q))
        assert got == list(_ref_kept_tuples(choices, s, q))
        kept += len(got)
        empty += not choices
        none += bool(choices) and not got
        partial += s >= 3 and 0 < len(got) < len(choices) ** s
    assert kept > 8000 and min(empty, none) > 90 and partial > 100


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
    # so its reach is folded to 3 entries; every other tuple with
    # n <= budget folds its rows and one entry more, the whole tuple, and
    # each prefix is folded once.  The one (r, delta) pair is one group
    # table, built at k = r = 1.  The report is the one recorded with a
    # build per row.
    built, folds = [], []
    build_code, add_groups = cli.build_code, cli._add_groups

    def counted_build(spec):
        built.append((spec.k, spec.n_gab))
        return build_code(spec)

    def counted_add(reach, sizes, m, limit):
        folds.append(add_groups(reach, sizes, m, limit))
        return folds[-1]

    monkeypatch.setattr(cli, "build_code", counted_build)
    monkeypatch.setattr(cli, "_add_groups", counted_add)
    code = cli.main(_sweep(5, 2, "1", "2", "1:97", "--budget", "10", "--format", "machine"))
    out = capsys.readouterr().out
    assert code == 5
    assert hashlib.sha256(out.encode()).hexdigest() == "71dfe2872e256a9fc769012be46066700c2a45b4b2139864d752ac003072e61b"
    oracled = [line.split("\t") for line in out.splitlines() if line.startswith("row\t(") and not line.endswith("\t-")]
    last_k = {}
    for row in oracled:
        last_k[row[1]] = int(row[2])
    # Prefix (1,2,a), then each (1,2,a);(1,2,b) with 2a + 2b <= 10 in turn.
    assert [len(reach) for reach in folds] == [2, 3, 4, 5, 6, 3, 4, 5, 6, 4, 5, 3]
    assert list(last_k.values()) == [2, 3, 4, 5, 3, 4, 5, 4, 3]
    assert built == [(1, 1)] and oracled[-1][1] == "(1,2,3);(1,2,2)"


def test_field_setup_over_the_search_limit_exits_five(tmp_path, capsys):
    # t = 5 over GF(1000000007): every x^5 + c has a root.
    doc = {"q": 1000000007, "t": 5, "k": 2, "classes": [{"r": 2, "delta": 2, "m": 1}]}
    start = time.perf_counter()
    code, err = _run(["build", "--spec", _spec_file(tmp_path, doc)], capsys)
    assert code == 5
    assert "degree 5 over GF(1000000007)" in err
    assert time.perf_counter() - start < 1.0


def test_only_the_commands_that_read_the_field_search_for_its_modulus(tmp_path, capsys):
    # Certify reads point ranks over F_q alone, so GF(1000000007^5), which
    # the modulus search refuses, stops build and the codec with exit 5
    # (the codec before it checks its flags) and not certify.
    doc = {"q": 1000000007, "t": 5, "k": 2, "classes": [{"r": 2, "delta": 3, "m": 1}]}
    spec = _spec_file(tmp_path, doc)
    for argv in (
        ["build", "--spec", spec],
        ["encode", "--spec", spec, "--random"],
        ["encode", "--spec", spec, "--random", "--message", spec],
        ["decode", "--spec", spec, "--random", "--erase", "0"],
    ):
        code, err = _run(argv, capsys)
        assert code == 5
        assert "degree 5 over GF(1000000007)" in err
    assert cli.main(["certify", "--spec", spec, "--format", "machine"]) == 0
    assert "meta\tverdict\td-oracle=3 d-cap=3 equal=yes" in capsys.readouterr().out.splitlines()


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


def test_a_refused_field_stops_the_codec_before_any_point_is_placed(tmp_path, capsys, monkeypatch):
    # build_code places n length-t points, about 80 bytes per unit of t on
    # the reference spec: at t = 10^9 it would fill the machine before the
    # modulus search refused the field.  The search runs first, so
    # build_code is never called.
    def placing(spec):
        raise AssertionError("build_code ran before the modulus search")

    monkeypatch.setattr(cli, "build_code", placing)
    spec = _spec_file(tmp_path, {**REF, "t": 10**9})
    for argv in (["build"], ["encode", "--random"], ["decode", "--random", "--erase", "0"]):
        code, err = _run([argv[0], "--spec", spec, *argv[1:]], capsys)
        assert code == 5
        assert err.count("error:") == 1 and "degree 1000000000 over GF(5)" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--spec", "{dir}"],
        ["bounds", "--spec", "{latin1}"],
        ["encode", "--spec", "{spec}", "--message", "{dir}"],
        ["encode", "--spec", "{spec}", "--message", "{latin1}"],
        ["encode", "--spec", "{spec}", "--random", "--output", "{dir}"],
    ],
    ids=["spec-directory", "spec-not-utf8", "message-directory", "message-not-utf8", "output-directory"],
)
def test_unreadable_input_or_unwritable_output_exits_two(argv, tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes("[[0, 1, 2, 3, 4]] # \u00e9".encode("latin-1"))
    paths = {"dir": str(tmp_path), "latin1": str(latin1), "spec": _spec_file(tmp_path, REF)}
    code, err = _run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("Is a directory" if "{dir}" in argv else "can't decode byte 0xe9") in err
    if "{latin1}" in argv:
        assert f"error: {latin1}: " in err


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("bad.json", b"{not json", "invalid JSON: "),
        ("bad.spec", b"q: 5\nt: five\n", "line 2: field 't' must be an integer"),
        ("latin1.spec", "q: 5 # \u00e9".encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["json", "text", "not-utf8"],
)
def test_spec_file_errors_name_the_file_once(name, content, reason, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(content)
    code, err = _run(["bounds", "--spec", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1
    assert err.count(str(path)) == 1


CLASSES_TEXT = "class: r=2 delta=3 m=1\nclass: r=3 delta=2 m=1\n"
CLASSES_JSON = '"classes": [{"r": 2, "delta": 3, "m": 1}, {"r": 3, "delta": 2, "m": 1}]'


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("class-key.spec", "q: 5\nt: 5\nk: 4\nclass: r=2 delta=3 m=1 x=9\n", "line 4: unknown key 'x'"),
        ("class-twice.spec", "q: 5\nt: 5\nk: 4\nclass: delta=3 r=2 m=1 delta=2\n", "line 4: repeated key 'delta'"),
        ("q-twice.spec", "q: 5\nt: 5\nk: 4\nq: 7\n" + CLASSES_TEXT, "line 4: repeated key 'q'"),
        ("typo.json", '{"q": 5, "t": 5, "k": 4, "sede": 3, ' + CLASSES_JSON + "}", "unknown key 'sede'"),
        ("class-key.json", '{"q": 5, "t": 5, "k": 4, "classes": [{"r": 2, "delta": 3, "m": 1, "x": 9}]}',
         "class 1: unknown key 'x'"),
        ("class-twice.json", '{"q": 5, "t": 5, "k": 4, "classes": [{"r": 2, "delta": 3, "m": 1, "delta": 2}]}',
         "repeated key 'delta'"),
        ("q-twice.json", '{"q": 5, "t": 5, "k": 4, "q": 7, ' + CLASSES_JSON + "}", "repeated key 'q'"),
    ],
    ids=["text-class-key", "text-class-twice", "text-q-twice", "json-typo", "json-class-key", "json-class-twice",
         "json-q-twice"],
)
def test_spec_file_refuses_unknown_and_repeated_keys(name, content, reason, tmp_path, capsys):
    # Loaded quietly, an unknown key would be dropped (a misspelt seed
    # falls back to 0) and a repeated one would keep its last value.
    path = tmp_path / name
    path.write_text(content)
    code, err = _run(["bounds", "--spec", str(path)], capsys)
    assert code == 2
    assert err == f"error: {path}: {reason}\n"


def test_text_spec_keys_are_read_in_lower_case_and_json_keys_are_not(tmp_path, capsys):
    lower = "q: 5\nt: 5\nk: 4\nseed: 7\n" + CLASSES_TEXT
    reports = []
    for name, text in (("lower.spec", lower), ("upper.spec", lower.upper())):
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["certify", "--spec", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and "digest: d5e99209163d\n" in reports[0]
    path = tmp_path / "upper.json"
    path.write_text('{"Q": 5, "t": 5, "k": 4, ' + CLASSES_JSON + "}")
    assert _run(["bounds", "--spec", str(path)], capsys) == (2, f"error: {path}: unknown key 'Q'\n")


F55 = u.ExtField(u.PrimeField(5), 5)

# (entry, input, exception, message fragment): every public builder that
# reads a symbol, row, index or pattern refuses a malformed one through the
# rule its siblings share.  The input is a call on the [8,4] reference code.
MALFORMED = [
    ("base_rank", lambda inst: u.base_rank(u.PrimeField(5), [[1], [0, 0, 1]]), ValueError, "same length"),
    ("encode_via_pipeline-short", lambda inst: u.encode_via_pipeline(inst, [(1, 2, 3)] + [F55.one] * 3),
     u.LengthMismatch, "message symbol 0 has 3 coordinates, not t = 5"),
    ("encode_via_pipeline-long", lambda inst: u.encode_via_pipeline(inst, [F55.one] * 3 + [(1,) * 7]),
     u.LengthMismatch, "message symbol 3 has 7 coordinates, not t = 5"),
    ("moore_matrix", lambda inst: u.moore_matrix(F55, [(1, 2, 3)], 3), ValueError, "needs 5 coordinates, got 3"),
    ("moore_matrix-negative-ncols", lambda inst: u.moore_matrix(F55, [F55.one, F55.alpha], -1), ValueError,
     "ncols >= 0, got -1"),
    ("LinearizedPoly", lambda inst: u.lin_eval(u.LinearizedPoly(F55, ((1, 2),)), F55.one), ValueError,
     "needs 5 coordinates, got 2"),
    ("erasure_decodable", lambda inst: u.erasure_decodable(inst, u.ErasurePattern.from_erased(4, [0])),
     u.LengthMismatch, "pattern length 4 != n = 8"),
    ("encode-length", lambda inst: u.encode(inst, [F55.one] * 3), u.LengthMismatch, "message length 3 != k = 4"),
    ("encode-symbol", lambda inst: u.encode(inst, [(1, 2, 3)] + [F55.one] * 3), u.LengthMismatch,
     "message symbol 0 has 3 coordinates, not t = 5"),
    ("decode_erasures", lambda inst: u.decode_erasures(inst, {}, u.ErasurePattern.from_erased(4, range(4))),
     u.LengthMismatch, "pattern length 4 != n = 8"),
    ("Matrix", lambda inst: u.Matrix(u.PrimeField(5), [[1], [0, 0, 1]]), ValueError, "same length"),
    ("Matrix-long-element", lambda inst: u.Matrix(F55, [[(1,) * 12, F55.zero, F55.zero]]).left_multiply([F55.one]),
     ValueError, "row 0, column 0 has 12 coordinates, not t = 5"),
    ("Matrix-short-element", lambda inst: u.Matrix(F55, [[(1, 2, 3)]]).rank(), ValueError,
     "row 0, column 0 has 3 coordinates, not t = 5"),
    ("erank", lambda inst: u.erank(inst, [3, 12, 9]), IndexError, "symbol index 9 out of range for n=8"),
    ("erank-negative", lambda inst: u.erank(inst, [-1, 8]), IndexError, "symbol index -1 out of range for n=8"),
    ("grank", lambda inst: u.grank(inst.gen, [0, 8]), IndexError, "column index 8 out of range for n=8"),
    ("from_erased", lambda inst: u.ErasurePattern.from_erased(8, [9, 0]), IndexError,
     "erased index 9 out of range for n=8"),
    ("from_remaining", lambda inst: u.ErasurePattern.from_remaining(8, [8]), IndexError,
     "remaining index 8 out of range for n=8"),
    ("take_columns", lambda inst: u.Matrix(u.PrimeField(5), [[1, 2]]).take_columns([0, 2]), IndexError,
     "column index 2 out of range for n=2"),
    ("group_of", lambda inst: inst.layout.group_of(99), IndexError, "symbol index 99 out of range for n=8"),
]


@pytest.mark.parametrize("entry, call, exc, fragment", MALFORMED, ids=[row[0] for row in MALFORMED])
def test_builders_refuse_malformed_input(entry, call, exc, fragment, ref_instance):
    with pytest.raises(exc, match=re.escape(fragment)):
        call(ref_instance)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["bounds", "--spec", "{deep}"], '{"q":' + "[" * 100_000),
        (["encode", "--spec", "{spec}", "--message", "{deep}"], "[" * 100_000),
    ],
    ids=["spec", "message"],
)
def test_deeply_nested_json_exits_two(argv, text, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    paths = {"deep": str(deep), "spec": _spec_file(tmp_path, REF)}
    start = time.perf_counter()
    code, err = _run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "maximum recursion depth" in err
    assert time.perf_counter() - start < 1.0


# The exit-code table, written out here rather than read from cli.EXIT_CODES.
EXIT_TABLE = [
    (SpecFileError("bad spec file"), 2),
    (SpecInvalid("bad spec"), 2),
    (FieldTooSmall("small field"), 2),
    (DimensionInfeasible("k too large"), 2),
    (OSError("unreadable"), 2),
    (FileNotFoundError(2, "No such file or directory", "missing.json"), 2),
    (IsADirectoryError(21, "Is a directory", "specs"), 2),
    (PermissionError(13, "Permission denied", "locked.json"), 2),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 2),
    (OrderedConditionRequired("not ordered"), 4),
    (TooLarge("n too large"), 5),
    (TooManyClasses("nine classes"), 5),
    (ModulusSearchTooLarge(5, 400), 5),
]


def _raising(exc):
    def build_code(spec):
        raise exc

    return build_code


@pytest.mark.parametrize("exc, expected", EXIT_TABLE, ids=[type(exc).__name__ for exc, _ in EXIT_TABLE])
def test_exit_code_table(exc, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_code", _raising(exc))
    code, err = _run(["build", "--spec", _spec_file(tmp_path, REF)], capsys)
    assert (code, err) == (expected, f"error: {exc}\n")


def _mismatched_decode(inst, received, pattern):
    result = decode_erasures(inst, received, pattern)
    return dataclasses.replace(result, message=result.message[::-1])


def _raised_cap(spec):
    """The dist-cap one past the code's d, so certify's distance-optimal row fails."""
    cap = u.distance_bound_udlrc(spec)
    return dataclasses.replace(cap, value=cap.value + 1)


# The status each command ends its report with, and its exit code, written
# out here rather than read from cli.STATUS_CODES.
STATUS_TABLE = [
    ("ok", ["bounds", "--spec", "{spec}"], None, 0),
    ("undecodable", ["decode", "--spec", "{spec}", "--random", "--erase", "5,6,7"], None, 3),
    ("mismatch", ["decode", "--spec", "{spec}", "--random", "--erase", "0"], ("decode_erasures", _mismatched_decode), 4),
    ("fail", ["certify", "--spec", "{spec}"], ("distance_bound_udlrc", _raised_cap), 4),
    ("budget-exceeded", ["certify", "--spec", "{spec}", "--budget", "1"], None, 5),
    ("budget-exceeded", _sweep(2, 4, "2:4", "2:9", "1:9"), None, 5),
]


@pytest.mark.parametrize("fmt, last", [("text", "status: {}"), ("machine", "status\t{}")], ids=["text", "machine"])
@pytest.mark.parametrize(
    "status, argv, patch, expected",
    STATUS_TABLE,
    ids=["ok", "undecodable", "mismatch", "fail", "certify-budget", "sweep-work-cap"],
)
def test_status_and_exit_code_agree(status, argv, patch, expected, fmt, last, tmp_path, capsys, monkeypatch):
    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    spec = _spec_file(tmp_path, REF)
    code = cli.main([arg.format(spec=spec) for arg in argv] + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (expected, "")
    assert captured.out.splitlines()[-1] == last.format(status)


@pytest.mark.parametrize(
    "exc",
    [RuntimeError("bug"), AssertionError("bug"), ValueError("bug"), UnicodeEncodeError("ascii", "\xe9", 0, 1, "bug")],
    ids=["RuntimeError", "AssertionError", "ValueError", "UnicodeEncodeError"],
)
def test_exceptions_outside_the_table_propagate(exc, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_code", _raising(exc))
    with pytest.raises(type(exc)) as raised:
        cli.main(["build", "--spec", _spec_file(tmp_path, REF)])
    assert raised.value is exc
    assert capsys.readouterr().err == ""
