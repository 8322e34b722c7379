"""Each demo runs as a script against this checkout, prints its key result,
and prints exactly the bytes recorded below (the demos are deterministic)."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CASES = [
    (
        "01_field_toolkit.py",
        "modulus for GF(5^5): (1, 4, 0, 0, 0, 1)",
        "4a65e33c7bf104ed1aca160737c284c1e25373132df07f1dcfea73591b32742b",
    ),
    (
        "02_build_a_code.py",
        "matrix path, pipeline path, and per-point evaluation all agree",
        "b55a11a390da530eada69df2be74d6b40ab2daa30416f7467b7cd3f6065bf221",
    ),
    (
        "03_erasure_repair.py",
        "decoded via local phase, locally repaired (0, 2)",
        "9de94a8fc78d6c70f977f10a596fb1d2f8e4e62aeb505cc6ff7a9ebe2d7000e8",
    ),
    (
        "04_bounds_and_certification.py",
        "certified optimal   : True",
        # Re-recorded when the demo stopped calling each class's classical
        # cap a ceiling.
        "ecad7584f570a187e4254590ec6e5690ccb7dc683a3a5867c4d5894780a8a712",
    ),
]


@pytest.mark.parametrize("script, line, digest", CASES, ids=[script for script, _, _ in CASES])
def test_demo_runs(script, line, digest):
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=cli_env(), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert line in [out.strip() for out in proc.stdout.decode().splitlines()]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
