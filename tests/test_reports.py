"""The machine-format reports the benchmark checks, pinned in process to the
sha256 digests recorded in perfbench/golden.json, and one of them once more
under python -O; the oracle sweep's builds, counted; and the `bounds`
reports on the benchmark's spec files and on an 8-class spec, pinned to
their recorded digests.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from conftest import cli_env, load_workloads
from udlrc import cli

workloads = load_workloads()

CASES = [
    *(
        (("certify", name), ["certify", "--spec", str(workloads.SPEC_DIR / f"{name}.json"), "--format", "machine"])
        for name in ("ref", "ref_full", "three", "reversed", "gf7_9")
    ),
    (("sweep", "oracle"), workloads.Sweep.ORACLE),
    (("sweep", "table"), workloads.Sweep.TABLE),
]


@pytest.mark.parametrize("key, argv", CASES, ids=["-".join(key) for key, _ in CASES])
def test_report_matches_recorded_digest(key, argv, monkeypatch):
    monkeypatch.delenv("UDLRC_BUDGET", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    group, name = key
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN[group][name]


def test_oracle_sweep_builds_once_per_class_tuple(monkeypatch):
    # A count, not a timing: the benchmark's oracle sweep has 80 oracle rows
    # in 17 class tuples, and builds each tuple's code once, at its last k.
    monkeypatch.delenv("UDLRC_BUDGET", raising=False)
    built = []
    build_code = cli.build_code

    def counted_build(spec):
        built.append(spec.k)
        return build_code(spec)

    monkeypatch.setattr(cli, "build_code", counted_build)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.ORACLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["oracle"]
    oracled = [line for line in out.getvalue().splitlines() if line.startswith("row\t(") and not line.endswith("\t-")]
    assert (len(built), sum(built), len(oracled)) == (17, 80, 80)


def test_report_without_asserts_matches_recorded_digest():
    # python -O strips every assert, so no printed result may rest on one.
    env = cli_env()
    env.pop("UDLRC_BUDGET", None)
    argv = ["certify", "--spec", str(workloads.SPEC_DIR / "gf7_9.json"), "--format", "machine"]
    result = subprocess.run(
        [sys.executable, "-O", "-m", "udlrc", *argv], capture_output=True, env=env, check=False
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == workloads.GOLDEN["certify"]["gf7_9"]


# Eight classes, three of them repeated, so the permuted bound's pivot and
# permutation come from the full 8-class search.
EIGHT_CLASSES = {
    "q": 7,
    "t": 18,
    "k": 10,
    "classes": [
        {"r": r, "delta": d, "m": m}
        for r, d, m in ((1, 2, 1), (1, 2, 1), (2, 3, 1), (2, 3, 1), (3, 2, 2), (1, 3, 1), (2, 2, 1), (3, 2, 1))
    ],
}

BOUNDS_DIGESTS = {
    "gf7_9": "c1919f51dcf1ffdf4a1cb3b11ea0ca2ffe69ba2e590b0071d71e937e53a25224",
    "ref": "58556430a112b7394eede59fd6b7477194b34c0fc65b4662ca7ece595635c70a",
    "ref_full": "d953c3bbd6af7f20ded1ca0ea9154909ba470d9b8be52c8af53ee2c14eccf0c5",
    "reversed": "3e738f7d25b00d113288fd64ae3fe17d799d32731b315a257beda211bf5cebb4",
    "three": "f4f8879d3202862aeaf42d303cfcc542e7de45ca8986f2f3ee10a93083fa87e3",
    "eight": "59ce25e060b2092c7ea3f751731138c8ece08ffc4527147b571b6038d8b6519c",
}


@pytest.mark.parametrize("name", sorted(BOUNDS_DIGESTS))
def test_bounds_report_matches_recorded_digest(name, tmp_path):
    if name == "eight":
        path = tmp_path / "eight.json"
        path.write_text(json.dumps(EIGHT_CLASSES))
    else:
        path = workloads.SPEC_DIR / f"{name}.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bounds", "--spec", str(path), "--format", "machine"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BOUNDS_DIGESTS[name]
