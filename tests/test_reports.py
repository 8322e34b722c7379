"""The machine-format reports the benchmark checks, pinned in process to the
sha256 digests recorded in perfbench/golden.json, and all seven once more
under python -O; the codec's encode and decode reports, plain and under
python -O; the oracle sweep's builds, local generator matrices, Lagrange
weights, packs and primality tests, the bounds-only sweep's tables,
classes, class caps and precondition errors, and certify's point walks,
grank calls and cover traces, counted; certify and the oracle sweep shown
to build no generator and no extension field; certify past the default
budget at n = 27 and n = 84, and the codec's reports on those two specs;
the `bounds` reports on the benchmark's spec files and on an 8-class
spec, and a long-column sweep's text and machine reports, pinned to their
recorded digests.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from conftest import SRC, cli_env, counting, counting_cached, counting_method, load_workloads
from udlrc import CodeInstance, ExtField, LocalityClass, Matrix, bounds, build_code, cli, construction, fields

workloads = load_workloads()
CERTIFY_SPECS = ("ref", "ref_full", "three", "reversed", "gf7_9")

CASES = [
    *(
        (("certify", name), ["certify", "--spec", str(workloads.SPEC_DIR / f"{name}.json"), "--format", "machine"])
        for name in CERTIFY_SPECS
    ),
    (("sweep", "oracle"), workloads.Sweep.ORACLE),
    (("sweep", "table"), workloads.Sweep.TABLE),
]


@pytest.mark.parametrize("key, argv", CASES, ids=["-".join(key) for key, _ in CASES])
def test_report_matches_recorded_digest(key, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    group, name = key
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN[group][name]


def test_oracle_sweep_builds_once_per_group_table(monkeypatch):
    # A count, not a timing: the benchmark's oracle sweep has 80 oracle rows
    # in 17 class tuples over the (r, delta) pairs (1, 2), (2, 2) and
    # (3, 2), and builds one one-group code per pair, at k = r, for its
    # group table (it built each tuple's code once, at its last k: 17
    # builds at 80 k in all).
    built = counting(monkeypatch, "build_code", lambda spec: spec.k)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.ORACLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["oracle"]
    oracled = [line for line in out.getvalue().splitlines() if line.startswith("row\t(") and not line.endswith("\t-")]
    assert (built, len(oracled)) == ([1, 2, 3], 80)


def test_oracle_sweep_builds_no_matrix_and_packs_each_class_once(monkeypatch):
    # Counts: the oracle sweep's 3 one-group codes have 3 classes and 9
    # class columns and points.  When it built its 17 tuple codes (34
    # classes, 94 class columns, 127 points) it took 34 weight lists, at
    # most 94 packs and 18 primality tests; when build_code read each
    # class's columns off a local generator Matrix (34), it took the
    # Lagrange weights at every locator (94) and packed every point (127).
    # The columns are unit vectors on the first r locators, so each (r, 2)
    # class takes one weight list, and each class's columns are packed
    # once.  q is tested for primality once per call and once per spec (52
    # tests when each of 17 builds made F_q three times).
    matrices = counting_method(monkeypatch, Matrix, "__init__")
    weights = counting_method(monkeypatch, construction, "_lagrange_weights")
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    primes = counting_method(monkeypatch, fields, "is_prime")
    for module in (construction, cli):
        monkeypatch.setattr(module, "is_prime", fields.is_prime, raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.ORACLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["oracle"]
    assert (len(matrices), len(weights), len(primes), len(packs)) == (0, 3, 4, 9)


# A long column: one class with up to 1,000 groups, cut by the work cap
# after 9,860 rows with values up to n = 280; the oracle fills its first 15
# rows.  Recorded before the sweep turned each distinct value into text
# once per call.
LONG_COLUMN = ["sweep", "--q", "5", "--classes", "1", "--r", "1", "--delta", "2", "--m", "1:1000", "--budget", "10"]
LONG_COLUMN_DIGESTS = {
    "text": "9d26c821fd33c54a7373e7765dccdb02b9c86e74a11518b37581c953ce841f07",
    "machine": "fb6350c1ad57e50e6dac1de49cf3faf739aecef0b030902f0e01776daacd3bf8",
}


@pytest.mark.parametrize("fmt", sorted(LONG_COLUMN_DIGESTS))
def test_long_column_sweep_matches_recorded_digest(fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*LONG_COLUMN, "--format", fmt]) == cli.EXIT_BUDGET
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LONG_COLUMN_DIGESTS[fmt]


def test_certify_and_the_oracle_sweep_build_no_generator(monkeypatch):
    # A built code is its points: certify on the five benchmark specs and
    # the oracle sweep read them and never compute an instance's gen.
    built = []

    def record(spec):
        built.append(build_code(spec))
        return built[-1]

    monkeypatch.setattr(cli, "build_code", record)
    argvs = [argv for (group, _), argv in CASES if group == "certify"] + [workloads.Sweep.ORACLE]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert len(built) == len(CERTIFY_SPECS) + 3
    assert all("gen" not in vars(inst) for inst in built)


def test_table_sweep_works_only_on_the_kept_tuples(monkeypatch):
    # Counts, not timings: the benchmark's bounds-only table keeps 320 of
    # the 1,728 class tuples over 12 (r, delta, m) choices, and folds each
    # kept prefix once: 12 + 72 + 320 = 404 steps, where one bounds_table
    # call per tuple folded 960.  When the sweep looped over every
    # combination it built a class per class of each kept tuple (960), and
    # bounds_table raised and caught the unequal-r precondition on each
    # tuple failing it.
    steps = counting_method(monkeypatch, bounds.BoundsFold, "add")
    built = []
    from_groups = LocalityClass.from_groups.__func__

    def counted_from_groups(cls, r, delta, m):
        built.append((r, delta, m))
        return from_groups(cls, r, delta, m)

    raised = []

    class Counted(bounds.PreconditionViolated):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    monkeypatch.setattr(LocalityClass, "from_groups", classmethod(counted_from_groups))
    monkeypatch.setattr(bounds, "PreconditionViolated", Counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.TABLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["table"]
    assert (len(steps), len(raised)) == (404, 0)
    assert len(built) <= 12


def test_table_sweep_computes_each_class_cap_once(monkeypatch):
    # The table's 404 fold steps read the caps of at most 12
    # distinct classes, each computed once (960 k_cap computations, each
    # through width, p, rem and m_ceil, when they were plain properties).
    counts = counting_cached(monkeypatch, LocalityClass, ("width", "p", "rem", "m_ceil", "k_cap"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.TABLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["table"]
    assert 0 < counts["k_cap"] <= 12
    assert max(counts.values()) <= 12


@pytest.mark.parametrize("name, expected", [("ref", (1, 1, 0, 2, 0, 8)), ("gf7_9", (1, 1, 0, 3, 0, 10))], ids=["ref", "gf7_9"])
def test_certify_computes_each_fact_once(name, expected, monkeypatch):
    # Counts: one oracle call, whose one walk is certify's only point walk
    # (the distance-optimal check reads the oracle's d), the witness reads
    # the cover traces and class ranks certify already holds, and every
    # rank is read off the points, packed once, so no generator is ranked.
    # build_code packs each class's columns once (8 and 10 packs for 8 and
    # 14 points) and places the packed points, so nothing packs them again;
    # when CodeInstance._points_packed packed every point, it was computed
    # once here and made 8 and 14 packs.
    # Before the residual walk the oracle walked once per size, 4 and 5
    # top-level walks here.  When the ranks went through the generator the
    # walk, grank and trace counts were (4, 8, 2) and (5, 13, 3), and when
    # both checks recomputed their facts (5, 13, 3) and (6, 21, 4).
    oracles = counting(monkeypatch, "min_distance_oracle")
    walks = counting(monkeypatch, "_walk")
    granks = counting(monkeypatch, "grank")
    traces = counting(monkeypatch, "class_cover_trace")
    packed = counting_cached(monkeypatch, CodeInstance, ["_points_packed"])
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["certify", "--spec", str(workloads.SPEC_DIR / f"{name}.json"), "--format", "machine"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["certify"][name]
    assert (len(oracles), len(walks), len(granks), len(traces), packed["_points_packed"], len(packs)) == expected


REACH_SPEC = SRC.parent / "tests" / "specs" / "reach_n27.json"
REACH_N84_SPEC = SRC.parent / "tests" / "specs" / "reach_n84.json"
REACH_N230_SPEC = SRC.parent / "tests" / "specs" / "reach_n230.json"


def test_certify_reaches_an_n27_code_at_budget_27():
    # An ordered [27,10] code over GF(7^17) past the default budget: the
    # walk memoized at block starts certifies it in about 4 ms in process,
    # the residual walk over all the columns took about 0.3 s and the
    # size-by-size walk about 5.9 s.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["certify", "--spec", str(REACH_SPEC), "--budget", "27", "--format", "machine"]) == 0
    assert "meta\tverdict\td-oracle=12 d-cap=12 equal=yes" in out.getvalue().splitlines()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "040666b4218c3ab24d8660b325a7f26be021ced65139329a3b42563a29825aba"
    )


def test_certify_reaches_an_n84_code_at_budget_84():
    # An ordered [84,40] code with 18 local groups over GF(11^60): each
    # group is a block of the walk, walked once for all rank budgets
    # together, and no extension field is built, so certify takes about
    # 8 ms in process (about 17 ms when each block was walked once per
    # rank budget).  The residual walk over all the columns gave no
    # answer within 60 s.
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert cli.main(["certify", "--spec", str(REACH_N84_SPEC), "--budget", "84", "--format", "machine"]) == 0
    assert time.perf_counter() - start < 2.0
    assert "meta\tverdict\td-oracle=19 d-cap=19 equal=yes" in out.getvalue().splitlines()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "5386a00381b428d4912e9ae79889ac7f4347cb7d2e4f53ea06cce9e12cfbfe99"
    )


def test_certify_reaches_an_n230_code_at_budget_230():
    # An ordered [230,100] code with 50 local groups over GF(11^140), its
    # report recorded when each block was walked once per rank budget
    # (about 0.2 s in process); one pass over the blocks takes about 40 ms.
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert cli.main(["certify", "--spec", str(REACH_N230_SPEC), "--budget", "230", "--format", "machine"]) == 0
    assert time.perf_counter() - start < 2.0
    assert "meta\tverdict\td-oracle=53 d-cap=53 equal=yes" in out.getvalue().splitlines()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "d6add8c8b4b1e79a1717f446d4b615341e1e0ff61a844e96e3c60e63153fe66c"
    )


# The codec on the reach specs, recorded before the fold reduced its slots
# mod q: (spec, argv, stdout digest).  A decode --random erases nothing, so
# each one solves the Moore system of an information set in full; on n = 84
# that is a 40 x 40 system over GF(11^60).
REACH_CODEC_REPORTS = {
    "n27-encode": (
        REACH_SPEC,
        ["encode", "--random"],
        "5b44c1cc02087c3d6b9260994636dac9bbaf1b761aaa7050ebd0aef5ac73382b",
    ),
    "n27-decode": (
        REACH_SPEC,
        ["decode", "--random", "--format", "machine"],
        "2f3d8959d78a08f1117f63cf215c1ed78a92964fba87641b8653af57c65175ed",
    ),
    "n84-decode": (
        REACH_N84_SPEC,
        ["decode", "--random"],
        "6874aed11f0380bc9363bb7486859e40e34ba7d0e03906a9ed58e29b027f2eb2",
    ),
}


@pytest.mark.parametrize("name", REACH_CODEC_REPORTS)
def test_reach_codec_report_matches_recorded_digest(name):
    spec, argv, digest = REACH_CODEC_REPORTS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([argv[0], "--spec", str(spec), *argv[1:]]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_oracle_sweep_walks_once_per_group_table(monkeypatch):
    # The oracle sweep builds 3 one-group codes, one per (r, delta), and
    # one pass over each serves every g of its group table; the tuples'
    # rows come from the fold of those tables (17 builds and 17 walks, one
    # per class tuple, before the fold; one walk per k, 80 in all, when the
    # walks shared a memo of block extensions).
    walks = counting(monkeypatch, "_walk")
    built = counting(monkeypatch, "build_code")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.Sweep.ORACLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["oracle"]
    assert len(walks) == len(built) == 3


def test_certify_and_the_oracle_sweep_build_no_extension_field(monkeypatch):
    # Every check certify and the oracle sweep run reads point ranks over
    # F_q, so no modulus is searched and no GF(q^t) is built on the five
    # benchmark specs and the sweep's 3 one-group codes; each built one cost
    # 20 to 35 microseconds per certify.
    searches = []
    search = fields.find_irreducible

    def counted_search(q, t):
        searches.append((q, t))
        return search(q, t)

    monkeypatch.setattr(fields, "find_irreducible", counted_search)
    inits = counting_method(monkeypatch, ExtField, "__init__")
    built = []

    def record(spec):
        built.append(build_code(spec))
        return built[-1]

    monkeypatch.setattr(cli, "build_code", record)
    argvs = [argv for (group, _), argv in CASES if group == "certify"] + [workloads.Sweep.ORACLE]
    for key, argv in zip([*CERTIFY_SPECS, "oracle"], argvs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        group = "certify" if key in CERTIFY_SPECS else "sweep"
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN[group][key]
    assert (len(built), searches, inits) == (len(CERTIFY_SPECS) + 3, [], [])
    assert all("field" not in vars(inst) for inst in built)


def _digest_without_asserts(argv, code=0) -> str:
    result = subprocess.run(
        [sys.executable, "-O", "-m", "udlrc", *argv], capture_output=True, env=cli_env(), check=False
    )
    assert result.returncode == code, result.stderr
    return hashlib.sha256(result.stdout).hexdigest()


@pytest.mark.parametrize("name", CERTIFY_SPECS)
def test_report_without_asserts_matches_recorded_digest(name):
    # python -O strips every assert, so no printed result may rest on one.
    argv = ["certify", "--spec", str(workloads.SPEC_DIR / f"{name}.json"), "--format", "machine"]
    assert _digest_without_asserts(argv) == workloads.GOLDEN["certify"][name]


@pytest.mark.parametrize("name", ["oracle", "table"])
def test_sweep_without_asserts_matches_recorded_digest(name):
    argv = workloads.Sweep.ORACLE if name == "oracle" else workloads.Sweep.TABLE
    assert _digest_without_asserts(argv) == workloads.GOLDEN["sweep"][name]


# The codec's reports on the [8,4] reference code, recorded before the
# codec packed a built code once: (argv tail, exit code, stdout digest).
# Symbols 0-3 form the (r=2, delta=3) group, so erasing 0 repairs locally,
# 0,1,2 needs the global solve and the whole group 0-3 leaves rank 3 < 4.
CODEC_REPORTS = {
    "encode": (["encode"], 0, "5e3328c0ca5e59be15422d3ae54dfd02c28d07dbdc56b3a009aae1328ea90269"),
    "decode-local": (["decode", "--erase", "0"], 0, "a36dfad7c7e4750a2d258b5becfd04bea1d5fb4b49bfd06d883f07e64c1c82e0"),
    "decode-global": (["decode", "--erase", "0,1,2"], 0, "aab9ca62db778ba17c2442dff22e5e46772c9b433c326473b87bf8a5a0a39674"),
    "decode-undecodable": (
        ["decode", "--erase", "0,1,2,3"], 3, "9a6086931ccc5fc6c95940b706a6a8fccd6a15ee0406b45195d3ac9b1cef313b"
    ),
}


def _codec_argv(tail):
    spec = str(workloads.SPEC_DIR / "ref.json")
    return [tail[0], "--spec", spec, "--random", "--seed", "5", *tail[1:], "--format", "machine"]


@pytest.mark.parametrize("name", CODEC_REPORTS)
def test_codec_report_matches_recorded_digest(name):
    tail, code, digest = CODEC_REPORTS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(_codec_argv(tail)) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", CODEC_REPORTS)
def test_codec_report_without_asserts_matches_recorded_digest(name):
    # The decoder's re-encode check is an assert; its reports may not rest on it.
    tail, code, digest = CODEC_REPORTS[name]
    assert _digest_without_asserts(_codec_argv(tail), code) == digest


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
