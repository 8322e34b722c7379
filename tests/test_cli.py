"""End-to-end command-line checks: exit codes and byte-stable reports."""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from conftest import cli_env, load_workloads, usual_grid
from udlrc import build_code, load_spec_file, min_distance_oracle, validate_spec
from udlrc import cli

REF_TEXT = """\
q: 5
t: 5
k: 4
class: r=2 delta=3 m=1
class: r=3 delta=2 m=1
"""


def run_cli(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "udlrc", *args],
        cwd=cwd,
        env=cli_env(env),
        capture_output=True,
        text=True,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ref.spec").write_text(REF_TEXT)
    return tmp_path


def test_bounds_text_and_exit_zero(workdir):
    result = run_cli(["bounds", "--spec", "ref.spec"], workdir)
    assert result.returncode == 0
    assert "dim-cap" in result.stdout
    assert "dist-cap" in result.stdout
    assert "status: ok" in result.stdout


def test_bounds_machine_golden(workdir):
    result = run_cli(["bounds", "--spec", "ref.spec", "--format", "machine"], workdir)
    assert result.returncode == 0
    expected = (
        "meta\tcommand\tbounds\n"
        "meta\tspec\tq=5 t=5 k=4 classes=(r=2,d=3,n=4);(r=3,d=2,n=4)\n"
        "meta\tdigest\td5e99209163d\n"
        "meta\tordered\tyes\n"
        "bound\tdim-cap\t5\t-\t2;3\n"
        "bound\tdist-cap\t3\t2\t2;0\n"
        "bound\tdist-cap-permuted\t3\t2\tperm=1,2\n"
        "bound\tclassical\t4\t-\tr=3;d=2\n"
        "note\tclassical-1\tcomparison, not a ceiling: 3 at r=2;d=3\n"
        "note\tclassical-2\tcomparison, not a ceiling: 4 at r=3;d=2\n"
        "note\tunequal-r\tskipped: this ceiling requires delta = 2 in every class\n"
        "status\tok\n"
    )
    assert result.stdout == expected


def test_every_distance_bound_row_is_at_least_the_oracle_distance(tmp_path):
    # A ceiling on d is never below the d of a code that meets the spec.
    # Seeded 300 of the 2,298 grid specs, plus two benchmark spec files.
    paths = []
    for i, spec in enumerate(random.Random(20261018).sample(list(usual_grid()), 300)):
        paths.append(tmp_path / f"grid{i}.json")
        classes = [{"r": c.r, "delta": c.delta, "m": c.groups} for c in spec.classes]
        paths[-1].write_text(json.dumps({"q": spec.q, "t": spec.t, "k": spec.k, "classes": classes}))
    paths += [load_workloads().SPEC_DIR / f"{name}.json" for name in ("three", "gf7_9")]
    for path in paths:
        d = min_distance_oracle(build_code(validate_spec(load_spec_file(path)[0])).gen).d
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["bounds", "--spec", str(path), "--format", "machine"]) == 0
        rows = [line.split("\t") for line in out.getvalue().splitlines()]
        ceilings = {cells[1]: int(cells[2]) for cells in rows if cells[0] == "bound" and cells[1] != "dim-cap"}
        assert {"dist-cap", "classical"} <= set(ceilings)
        assert all(value >= d for value in ceilings.values()), (path.name, d, ceilings)


def test_reports_are_byte_identical_across_runs(workdir):
    first = run_cli(["certify", "--spec", "ref.spec", "--format", "machine"], workdir)
    second = run_cli(["certify", "--spec", "ref.spec", "--format", "machine"], workdir)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_bounds_dimension_infeasible_exits_two(workdir):
    (workdir / "big.spec").write_text(REF_TEXT.replace("k: 4", "k: 6"))
    result = run_cli(["bounds", "--spec", "big.spec"], workdir)
    assert result.returncode == 2
    assert "dimension overflow" in result.stderr


def test_bad_spec_file_exits_two(workdir):
    (workdir / "bad.spec").write_text("q: 5\nt: x\nk: 4\nclass: r=2 delta=3 m=1\n")
    result = run_cli(["bounds", "--spec", "bad.spec"], workdir)
    assert result.returncode == 2
    assert "line 2" in result.stderr
    result = run_cli(["bounds", "--spec", "missing.spec"], workdir)
    assert result.returncode == 2


def test_build_report(workdir):
    result = run_cli(["build", "--spec", "ref.spec"], workdir)
    assert result.returncode == 0
    assert "n: 8" in result.stdout
    assert "grank-full: 4" in result.stdout
    assert "symbols=0,1,2,3" in result.stdout


def test_encode_deterministic_and_valid(workdir):
    first = run_cli(
        ["encode", "--spec", "ref.spec", "--random", "--seed", "7", "--format", "machine"], workdir
    )
    second = run_cli(
        ["encode", "--spec", "ref.spec", "--random", "--seed", "7", "--format", "machine"], workdir
    )
    assert first.returncode == 0
    assert first.stdout == second.stdout
    codeword_line = next(
        line for line in first.stdout.splitlines() if line.startswith("meta\tcodeword")
    )
    codeword = json.loads(codeword_line.split("\t")[2])
    assert len(codeword) == 8
    assert all(len(sym) == 5 for sym in codeword)


def test_encode_output_file_and_message_input(workdir):
    result = run_cli(
        ["encode", "--spec", "ref.spec", "--random", "--seed", "3", "--output", "cw.json"],
        workdir,
    )
    assert result.returncode == 0
    codeword = json.loads((workdir / "cw.json").read_text())
    assert len(codeword) == 8
    # feed an explicit message file back through encode
    (workdir / "msg.json").write_text(json.dumps([[1, 0, 0, 0, 0]] * 4))
    result = run_cli(["encode", "--spec", "ref.spec", "--message", "msg.json"], workdir)
    assert result.returncode == 0


def test_decode_round_trip_no_erasures(workdir):
    result = run_cli(["decode", "--spec", "ref.spec", "--random", "--seed", "1"], workdir)
    assert result.returncode == 0
    assert "phase: none" in result.stdout
    assert "match: yes" in result.stdout


def test_decode_local_phase(workdir):
    result = run_cli(
        ["decode", "--spec", "ref.spec", "--random", "--seed", "1", "--erase", "0,2"], workdir
    )
    assert result.returncode == 0
    assert "phase: local" in result.stdout
    assert "match: yes" in result.stdout


def test_decode_undecodable_exits_three(workdir):
    result = run_cli(
        ["decode", "--spec", "ref.spec", "--random", "--seed", "1", "--erase", "5,6,7"], workdir
    )
    assert result.returncode == 3
    assert "remaining-rank: 3" in result.stdout


def test_message_source_is_required_and_exclusive(workdir):
    result = run_cli(["encode", "--spec", "ref.spec"], workdir)
    assert result.returncode == 2
    assert "--message or --random" in result.stderr
    (workdir / "msg.json").write_text(json.dumps([[0, 0, 0, 0, 0]] * 4))
    both = run_cli(
        ["encode", "--spec", "ref.spec", "--message", "msg.json", "--random"], workdir
    )
    assert both.returncode == 2


def test_decode_erase_validation(workdir):
    result = run_cli(
        ["decode", "--spec", "ref.spec", "--random", "--seed", "1", "--erase", "5,nope"], workdir
    )
    assert result.returncode == 2
    result = run_cli(
        ["decode", "--spec", "ref.spec", "--random", "--seed", "1", "--erase", "9"], workdir
    )
    assert result.returncode == 2


def test_certify_reference_all_pass(workdir):
    result = run_cli(["certify", "--spec", "ref.spec"], workdir)
    assert result.returncode == 0
    assert "class-rank-caps        PASS" in result.stdout
    assert "distance-optimal       PASS" in result.stdout
    assert "d-oracle=3 d-cap=3 equal=yes" in result.stdout


def test_certify_skips_optimality_without_ordering(workdir):
    (workdir / "rev.spec").write_text(
        "q: 5\nt: 5\nk: 4\nclass: r=3 delta=2 m=1\nclass: r=2 delta=3 m=1\n"
    )
    result = run_cli(["certify", "--spec", "rev.spec"], workdir)
    assert result.returncode == 0
    assert "SKIP" in result.stdout
    assert "ordered condition fails" in result.stdout


def test_certify_budget_exceeded_exits_five(workdir):
    result = run_cli(["certify", "--spec", "ref.spec", "--budget", "6"], workdir)
    assert result.returncode == 5
    assert "budget" in result.stdout


def test_certify_ignores_the_process_environment(workdir):
    # The report depends only on argv and the files it names: a budget
    # variable in the environment, valid or not, changes nothing.
    argv = ["certify", "--spec", "ref.spec", "--format", "machine"]
    plain = run_cli(argv, workdir)
    assert plain.returncode == 0
    for value in ("6", "many"):
        result = run_cli(argv, workdir, env={"UDLRC_BUDGET": value})
        assert (result.returncode, result.stdout) == (0, plain.stdout)


def test_random_seed_falls_back_to_spec_file(workdir):
    (workdir / "seeded.spec").write_text(REF_TEXT + "seed: 7\n")
    result = run_cli(["decode", "--spec", "seeded.spec", "--random"], workdir)
    assert result.returncode == 0
    assert "seed: 7" in result.stdout
    explicit = run_cli(["decode", "--spec", "seeded.spec", "--random", "--seed", "2"], workdir)
    assert "seed: 2" in explicit.stdout


def test_sweep_relation_column_and_determinism(workdir):
    args = [
        "sweep",
        "--q",
        "5",
        "--classes",
        "2",
        "--r",
        "1:3",
        "--delta",
        "2:2",
        "--m",
        "1:2",
        "--format",
        "machine",
    ]
    first = run_cli(args, workdir)
    second = run_cli(args, workdir)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    rows = [line.split("\t") for line in first.stdout.splitlines() if line.startswith("row\t(")]
    assert rows, "sweep must emit data rows"
    relations = {row[9] for row in rows}
    assert relations <= {"tighter", "equal", "looser"}
    # the older ceiling is present on every delta=2 row
    assert all(row[8] != "-" for row in rows)


def test_sweep_with_oracle_column(workdir):
    result = run_cli(
        [
            "sweep",
            "--q",
            "5",
            "--classes",
            "1",
            "--r",
            "1:2",
            "--delta",
            "2:3",
            "--m",
            "1:1",
            "--budget",
            "8",
            "--format",
            "machine",
        ],
        workdir,
    )
    assert result.returncode == 0
    rows = [line.split("\t") for line in result.stdout.splitlines() if line.startswith("row\t(")]
    oracled = [row for row in rows if row[10] != "-"]
    assert oracled
    # oracle equals the ceiling on every built single-class row
    assert all(row[10] == row[5] for row in oracled)


def test_bounds_delta2_spec_includes_older_ceiling(workdir):
    (workdir / "flat.spec").write_text(
        "q: 5\nt: 4\nk: 3\nclass: r=1 delta=2 m=2\nclass: r=2 delta=2 m=1\n"
    )
    result = run_cli(["bounds", "--spec", "flat.spec", "--format", "machine"], workdir)
    assert result.returncode == 0
    assert "bound\tdist-cap-unequal-r\t" in result.stdout


def test_bounds_single_class_rows_agree(workdir):
    (workdir / "one.spec").write_text("q: 5\nt: 4\nk: 3\nclass: r=2 delta=2 m=2\n")
    result = run_cli(["bounds", "--spec", "one.spec", "--format", "machine"], workdir)
    rows = dict()
    for line in result.stdout.splitlines():
        cells = line.split("\t")
        if cells[0] == "bound":
            rows[cells[1]] = cells[2]
    assert rows["dist-cap"] == rows["classical"]
    assert "classical-1" not in result.stdout


def test_certification_failure_exits_four(workdir, monkeypatch, capsys):
    # unreachable through honest builds, so raise the ceiling one past the oracle's d = 3
    import dataclasses

    import udlrc.cli as cli

    cap = cli.distance_bound_udlrc
    monkeypatch.setattr(cli, "distance_bound_udlrc", lambda spec: dataclasses.replace(cap(spec), value=4))
    code = cli.main(["certify", "--spec", str(workdir / "ref.spec")])
    out = capsys.readouterr().out
    assert code == 4
    assert "distance-optimal" in out and "FAIL" in out


def test_sweep_row_limit_exits_five(workdir):
    result = run_cli(
        [
            "sweep",
            "--q",
            "7",
            "--classes",
            "3",
            "--r",
            "1:4",
            "--delta",
            "2:4",
            "--m",
            "1:3",
            "--format",
            "machine",
        ],
        workdir,
    )
    assert result.returncode == 5
    assert "budget-exceeded" in result.stdout


# sha256 of each `--help` text at COLUMNS=80, recorded before the parser's
# flags were declared once per group of commands (sweep's again when its
# --budget help came to say which rows get the oracle); argparse's layout
# is that of Python 3.11.
HELP_DIGESTS = {
    "udlrc": "754d232b493d4925e7f69269ab9d9c22bb86bce1eb5fa1f155aefd34aba72922",
    "bounds": "b2781ec1e1f8b5ba88577c1c9f333c4e6800e16591431b7a4858a86d551a97b3",
    "build": "bfb163e20e671d471928f6becc957c87b87d77235c1ddf3d004cd6af21ccb3ba",
    "encode": "439a03c5bd1f1e7d6f22fc7874cfd29dee280ea11bc7d4609ee53bfa953255c3",
    "decode": "76e4d70e04bda6e6cf738fdc6852d9fbaadf51abc2b5c8d910daa504e7f73b59",
    "certify": "7098282bdcf5e55a73e5c2c840d2f20e8ae93ec75a2277e3066d6e4d4cb946f3",
    "sweep": "866f8720bcab348bc18a6cedc60b35813667e807deb8e89ca61fe809e9b4c2b5",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests record Python 3.11's argparse layout")
@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_text_matches_recorded_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli.main(["--help"] if command == "udlrc" else [command, "--help"])
    assert exited.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


# Counts ArgumentParser constructions in a fresh interpreter: none at import,
# and one parser tree (the top level and six commands) for two main calls.
COUNT_PARSERS = """
import argparse, contextlib, io, sys
made = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    made.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import udlrc.cli
print(len(made))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [udlrc.cli.main(["bounds", "--spec", sys.argv[1]]) for _ in range(2)]
print(len(made), *codes)
"""


def test_one_parser_per_process(workdir):
    result = subprocess.run(
        [sys.executable, "-c", COUNT_PARSERS, str(workdir / "ref.spec")],
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert result.stdout.split() == ["0", "7", "0", "0"], result.stderr
