"""The machine-format reports the benchmark checks, pinned in process to the
sha256 digests recorded in perfbench/golden.json, and three of them (certify
gf7_9 and both sweeps) once more under python -O; the oracle sweep's builds
and Moore checks, counted; and the `bounds` reports on the benchmark's spec
files and on an 8-class spec, pinned to their recorded digests.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from conftest import cli_env, load_workloads
from udlrc import analysis, cli

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


def test_oracle_sweep_checks_the_moore_premise_once_per_class_tuple(monkeypatch):
    # A count: every k-row prefix of a Moore generator is Moore, so the
    # check runs once per class tuple (17), not once per oracle row (80).
    monkeypatch.delenv("UDLRC_BUDGET", raising=False)
    checks = []
    is_moore = analysis._is_moore

    def counted(gen):
        checks.append(gen.nrows)
        return is_moore(gen)

    monkeypatch.setattr(analysis, "_is_moore", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.ORACLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["oracle"]
    assert (len(checks), sum(checks)) == (17, 80)


def _digest_without_asserts(argv) -> str:
    env = cli_env()
    env.pop("UDLRC_BUDGET", None)
    result = subprocess.run(
        [sys.executable, "-O", "-m", "udlrc", *argv], capture_output=True, env=env, check=False
    )
    assert result.returncode == 0, result.stderr
    return hashlib.sha256(result.stdout).hexdigest()


def test_report_without_asserts_matches_recorded_digest():
    # python -O strips every assert, so no printed result may rest on one.
    argv = ["certify", "--spec", str(workloads.SPEC_DIR / "gf7_9.json"), "--format", "machine"]
    assert _digest_without_asserts(argv) == workloads.GOLDEN["certify"]["gf7_9"]


@pytest.mark.parametrize("name", ["oracle", "table"])
def test_sweep_without_asserts_matches_recorded_digest(name):
    argv = workloads.Sweep.ORACLE if name == "oracle" else workloads.Sweep.TABLE
    assert _digest_without_asserts(argv) == workloads.GOLDEN["sweep"][name]


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

# Re-recorded when `bounds` stopped printing each class's classical cap as a
# ceiling: one classical row at (r_max, delta_min), the per-class figures
# as comparison notes.
BOUNDS_DIGESTS = {
    "gf7_9": "dcac30e8b43c1c6d4770ed47a2fbe3f6e2458b5a9d27bcaacfd2523ba9760b9d",
    "ref": "a295b939476ace759943332f045bb7f53c2c80fb9e68dd523d83f1866929dc62",
    "ref_full": "637b52490ede08e2eeff9652885d998ac07cfa0dfce662b9c648fc6da2b741f2",
    "reversed": "7f636731b62848fb06bc2ed718d21b749d651939481edce14c5d44dc3b493f89",
    "three": "d67beb6ebc537b2ac171653194471d06add01fe753f53806cabbff5aa58ddfbf",
    "eight": "c79ec11b7db67ae17fd5af6be26319bb4fc673939d6c73e6796212a5bcfd5fd9",
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
