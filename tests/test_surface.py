"""What the package ships: its public names, no import it never reads, no
read of the environment, and no result that only an assert guards."""

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
    "ExtElem",
    "ExtField",
    "FieldTooSmall",
    "LengthMismatch",
    "LinearizedPoly",
    "LocalGroupLayout",
    "LocalityClass",
    "LocalitySpec",
    "Matrix",
    "ModulusSearchTooLarge",
    "NotOnCode",
    "OrderedConditionRequired",
    "PreconditionViolated",
    "PrimeField",
    "RankDeficientGenerator",
    "RankInfeasible",
    "SingularMatrix",
    "SpecFileError",
    "SpecInvalid",
    "TooLarge",
    "TooManyClasses",
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
    "grank",
    "is_prime",
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
    assert len(PUBLIC_NAMES) == 66


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


def bare_asserts(source: str) -> list[tuple[int, str]]:
    """(line, enclosing class and function) of each assert that python -O
    strips with nothing in its place: every one outside the body of an
    `if __debug__:`."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        debug = isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "__debug__"
        for child in node.orelse if debug else ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_bare_asserts_finds_each_stripped_check():
    source = (
        "assert A\n"
        "class C:\n"
        "    def f(self):\n"
        "        if __debug__:\n"
        "            assert B\n"
        "        else:\n"
        "            assert D\n"
        "        if x:\n"
        "            assert E\n"
        "def g():\n"
        "    assert F\n"
    )
    assert bare_asserts(source) == [(1, ""), (7, "C.f"), (9, "C.f"), (11, "g")]


# _Packing.__init__ asserts its slot bound, which depends only on q and t.
ASSERTS_ALLOWED_IN = {"_Packing.__init__"}


def test_no_result_is_guarded_only_by_an_assert():
    # Under python -O a bare assert is gone, so a library check stands in the
    # code as a raise, or reruns an answer under `if __debug__:`.
    modules = sorted((SRC / "udlrc").glob("*.py"))
    assert len(modules) == 10
    found = {p.name: [a for a in bare_asserts(p.read_text()) if a[1] not in ASSERTS_ALLOWED_IN] for p in modules}
    assert found == {p.name: [] for p in modules}
