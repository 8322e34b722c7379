"""The machine-format reports the benchmark checks, pinned in process to the
sha256 digests recorded in perfbench/golden.json, and one of them once more
under python -O.
"""

import contextlib
import hashlib
import io
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
