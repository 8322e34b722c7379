"""The machine-format reports the benchmark checks, pinned in process to the
sha256 digests recorded in perfbench/golden.json.
"""

import contextlib
import hashlib
import io

import pytest

from conftest import load_workloads
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
