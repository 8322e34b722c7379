"""Each demo runs as a script against this checkout and prints its key result."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CASES = [
    ("01_field_toolkit.py", "modulus for GF(5^5): (1, 4, 0, 0, 0, 1)"),
    ("02_build_a_code.py", "matrix path, pipeline path, and per-point evaluation all agree"),
    ("03_erasure_repair.py", "decoded via local phase, locally repaired (0, 2)"),
    ("04_bounds_and_certification.py", "certified optimal   : True"),
]


@pytest.mark.parametrize("script, line", CASES, ids=[script for script, _ in CASES])
def test_demo_runs(script, line):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], env=cli_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert line in [out.strip() for out in proc.stdout.splitlines()]
