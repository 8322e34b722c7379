"""The runtime contract: udlrc needs the standard library and nothing else."""

import json
import subprocess
import sys

import pytest

from conftest import SRC, load_workloads

# Run with -I -S: no site-packages, no environment, no script directory, so
# only the standard library and the src directory can be imported.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from udlrc import cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_certify_and_sweep_load_only_the_standard_library(tmp_path):
    workloads = load_workloads()
    argvs = [["certify", "--spec", str(workloads.SPEC_DIR / "ref.json"), "--format", "machine"], workloads.Sweep.TABLE]
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, str(SRC), json.dumps(argvs)],
        capture_output=True,
        cwd=tmp_path,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert [name for name in loaded if name not in sys.stdlib_module_names] == ["__main__", "udlrc"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_declares_no_dependencies():
    import tomllib

    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
