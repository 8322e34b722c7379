"""What the package ships: its public names, and no import it never reads."""

import ast
import types

import udlrc
from conftest import SRC

# Every public name `import udlrc` gives, modules aside.  A name added to or
# removed from the package's surface is added to or removed from this list.
PUBLIC_NAMES = [
    "BoundReport",
    "CodeInstance",
    "CountOutOfRange",
    "CoverTrace",
    "DecodeResult",
    "DimensionInfeasible",
    "DistanceCertificate",
    "ErasurePattern",
    "EvaluationPoints",
    "ExtElem",
    "ExtField",
    "FieldTooSmall",
    "LengthMismatch",
    "LinearizedPoly",
    "LocalGroupLayout",
    "LocalityClass",
    "LocalitySpec",
    "Matrix",
    "MessageTooLong",
    "ModulusSearchTooLarge",
    "OrderedConditionRequired",
    "PreconditionViolated",
    "PrimeField",
    "RankDeficientGenerator",
    "RankDeficientPoints",
    "RankInfeasible",
    "SingularMatrix",
    "SpecFileError",
    "SpecInvalid",
    "TooLarge",
    "TooManyClasses",
    "TooManyPoints",
    "Undecodable",
    "base_rank",
    "bounds_table",
    "build_code",
    "build_layout",
    "ceil_div",
    "certify_distance_optimal",
    "check_cover_trace",
    "class_cover_trace",
    "class_symbols",
    "decode_erasures",
    "default_points",
    "dimension_bound",
    "distance_bound_measured",
    "distance_bound_rdelta",
    "distance_bound_udlrc",
    "distance_bound_unequal_r",
    "dump_symbols",
    "encode",
    "encode_via_pipeline",
    "erank",
    "erasure_decodable",
    "find_irreducible",
    "gabidulin_encode",
    "grank",
    "is_prime",
    "lift_to_ext",
    "lin_eval",
    "load_spec_file",
    "load_symbols",
    "mds_local_generator",
    "min_distance_oracle",
    "moore_matrix",
    "permuted_tightest_bound",
    "rank_deficiency_witness",
    "spec_digest",
    "spec_summary",
    "tightness_budget_size",
    "validate_spec",
    "worst_case_pattern",
]


def test_public_names_are_the_listed_ones():
    public = [name for name in sorted(dir(udlrc)) if not name.startswith("_")]
    assert [name for name in public if not isinstance(getattr(udlrc, name), types.ModuleType)] == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 72


def unread_imports(source: str) -> list[str]:
    """The names a module's imports bind that no expression in it reads.

    `from __future__` imports bind nothing.  A name counts as read where it
    is loaded, annotations included, since they are parsed either way.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unread_imports_finds_a_left_over_import():
    assert unread_imports("from itertools import combinations\nimport os.path\nx = 1\n") == ["combinations", "os"]
    assert unread_imports("from __future__ import annotations\nimport os\ndef f(p: os.PathLike) -> None: ...\n") == []


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports its names to re-export them.
    modules = sorted(p for p in (SRC / "udlrc").glob("*.py") if p.name != "__init__.py")
    assert len(modules) == 9
    unread = {p.name: unread_imports(p.read_text()) for p in modules}
    assert unread == {p.name: [] for p in modules}


ENVIRONMENT_NAMES = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str) -> list[tuple[int, str]]:
    """Each line where a module names a reader of the process environment:
    `os.environ` or `os.getenv` as an attribute, or bare after `from os import`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.id))
    return sorted(found)


def test_environment_reads_finds_each_reader():
    source = 'import os\nfrom os import getenv\nx = os.environ.get("A")\ny = getenv("B")\nz = os.path.sep\n'
    assert environment_reads(source) == [(3, "environ"), (4, "getenv")]


def test_no_module_reads_the_environment():
    # A report depends only on argv and the files it names.
    modules = sorted((SRC / "udlrc").glob("*.py"))
    assert len(modules) == 10
    reads = {p.name: environment_reads(p.read_text()) for p in modules}
    assert reads == {p.name: [] for p in modules}
