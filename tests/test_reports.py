"""The machine-format reports the benchmark checks, pinned in process to the
sha256 digests recorded in perfbench/golden.json.

The [14, 6] code over GF(7^9) is left to the benchmark: its certify run
alone takes about 12 s.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from udlrc import cli

_path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _path)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CASES = [
    *(
        (("certify", name), ["certify", "--spec", str(workloads.SPEC_DIR / f"{name}.json"), "--format", "machine"])
        for name in ("ref", "ref_full", "three", "reversed")
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
