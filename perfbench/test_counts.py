"""The op counts of a traced run repeat exactly on the same seed.

    python3 -m pytest perfbench/test_counts.py    # about two minutes

Each workload is traced twice in its own process; every count metric (the
`*.calls`, `analysis.oracle.rank_calls`, `linalg.rank_tracker.adds`, ...)
must come out identical, while the timings are free to differ.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "count" or name == "linalg.rank_tracker.accept_ratio"}


@pytest.mark.parametrize("workload", ["repair", "certify", "sweep"])
def test_counts_repeat_on_same_seed(workload):
    first = traced_counts(workload, seed=7)
    assert first["trace.spans"] > 0
    assert first == traced_counts(workload, seed=7)
