import contextlib
import dataclasses
import hashlib
import inspect
import io
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

from udlrc import (
    CountOutOfRange,
    CoverTrace,
    DistanceCertificate,
    LocalityClass,
    LocalitySpec,
    Matrix,
    OrderedConditionRequired,
    PrimeField,
    RankDeficientGenerator,
    TooLarge,
    build_code,
    certify_distance_optimal,
    check_cover_trace,
    class_cover_trace,
    class_symbols,
    distance_bound_udlrc,
    distance_bound_measured,
    erank,
    grank,
    load_spec_file,
    min_distance_oracle,
    rank_deficiency_witness,
    tightness_budget_size,
    validate_spec,
    worst_case_pattern,
)
from conftest import (
    REVERSED_SPEC,
    cli_env,
    counting,
    lift,
    load_workloads,
    one_point_moves,
    ref_block_walk,
    ref_one_pass_walk,
    ref_first_deficient,
    ref_locality_witness_search,
    ref_point_oracles,
    ref_punctured_code_profile,
    ref_residual_walk,
    ref_transform_pattern,
    ref_walk,
    usual_grid,
    without_asserts,
)
from udlrc import fields
from udlrc.analysis import _walk, prefix_oracles
from udlrc.linalg import base_rank

F5 = PrimeField(5)


def test_grank_basics(ref_instance):
    assert grank(ref_instance.gen, ()) == 0
    assert grank(ref_instance.gen, range(8)) == 4
    assert grank(ref_instance.gen, (0, 1, 2, 3)) == 2
    assert grank(ref_instance.gen, (4, 5, 6, 7)) == 3
    with pytest.raises(IndexError):
        grank(ref_instance.gen, (9,))


def test_grank_equals_capped_erank_exhaustive(ref_instance, single_instance):
    # the restricted generator rank is the point rank capped at k
    for inst in (ref_instance, single_instance):
        n, k = inst.n, inst.k
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                assert grank(inst.gen, subset) == min(k, erank(inst, subset))


def test_decodable_predicates_agree(ref_instance):
    gen = ref_instance.gen
    for size in range(9):
        for subset in combinations(range(8), size):
            by_grank = grank(gen, subset) == gen.nrows
            by_erank = erank(ref_instance, subset) >= ref_instance.k
            assert by_grank == by_erank
    assert grank(gen, range(8)) == gen.nrows
    assert grank(gen, (0, 1, 2)) < gen.nrows  # fewer than k symbols


def test_min_distance_oracle_identity_and_budget():
    ident = Matrix.identity(F5, 3)
    cert = min_distance_oracle(ident)
    assert cert.d == 1
    assert cert.witness_rank == 2
    with pytest.raises(TooLarge):
        min_distance_oracle(ident, budget=2)
    deficient = Matrix(F5, [[1, 2], [2, 4]])
    with pytest.raises(RankDeficientGenerator):
        min_distance_oracle(deficient)


def test_min_distance_oracle_reference(ref_instance):
    cert = min_distance_oracle(ref_instance.gen)
    assert cert.d == 3
    assert len(cert.witness) == 5
    assert cert.witness_rank == 3
    # no larger set is rank deficient
    for subset in combinations(range(8), 6):
        assert grank(ref_instance.gen, subset) == 4


def _weight_enumeration_distance(gen):
    """Independent oracle: smallest weight over all nonzero codewords."""
    from itertools import product

    field = gen.field
    zero = field.zero
    best = None
    for message in product(field.elements(), repeat=gen.nrows):
        if all(m == zero for m in message):
            continue
        codeword = gen.left_multiply(list(message))
        weight = sum(1 for v in codeword if v != zero)
        best = weight if best is None else min(best, weight)
    return best


def test_oracle_agrees_with_weight_enumeration():
    from udlrc import ExtField, mds_local_generator, moore_matrix

    small = [
        mds_local_generator(2, 2, F5),
        mds_local_generator(2, 3, F5),
        mds_local_generator(3, 2, F5),
        mds_local_generator(1, 4, PrimeField(7)),
        Matrix.identity(F5, 3),
        Matrix(F5, [[1, 1, 1, 1, 0], [0, 1, 2, 3, 0]]),
    ]
    f8 = ExtField(PrimeField(2), 3)
    pts = [f8.one, f8.alpha, f8.frobenius(f8.alpha)]
    small.append(moore_matrix(f8, pts, 2).transpose())
    binary_parity = Matrix(PrimeField(2), [[1, 0, 1], [0, 1, 1]])
    small.append(lift(f8, binary_parity))
    for gen in small:
        assert min_distance_oracle(gen).d == _weight_enumeration_distance(gen)


def _scan_oracle(gen):
    """The subset scan the oracle's depth-first walk replaced: rank every
    subset from scratch, sizes downward, combinations order within a size."""
    n, k = gen.ncols, gen.nrows
    for size in range(n - 1, -1, -1):
        for subset in combinations(range(n), size):
            r = gen.take_columns(subset).rank()
            if r <= k - 1:
                return DistanceCertificate(d=n - size, witness=subset, witness_rank=r)
    raise AssertionError("unreachable: the empty set is always rank deficient")


def test_oracle_matches_scan_on_instances(all_instances, reversed_instance):
    for inst in [*all_instances, reversed_instance]:
        assert min_distance_oracle(inst.gen) == _scan_oracle(inst.gen)


def test_oracle_matches_scan_on_sweep_rows():
    # Each oracle-d the benchmark's oracle sweep prints, against the scan
    # and the reduced-basis oracle on the generator of its row's code,
    # built from the row's classes at its k.
    rows = _oracle_sweep_rows()
    for classes, k, n_gab, d in rows:
        gen = build_code(LocalitySpec(classes, k, 5, n_gab)).gen
        scan = _scan_oracle(gen)
        assert scan.d == d and scan == _reduced_basis_oracle(gen)
    assert len(rows) == 80 and max(sum(c.n for c in classes) for classes, *_ in rows) <= 10


def test_oracle_matches_scan_on_random_generators():
    from udlrc import ExtField

    rng = random.Random(20261018)
    fields = [PrimeField(2), F5, ExtField(PrimeField(2), 3)]
    compared = 0
    for _ in range(400):
        field = rng.choice(fields)
        k = rng.randint(1, 4)
        columns = []
        for _ in range(rng.randint(k, 9)):
            kind = rng.random()
            if kind < 0.15:
                columns.append([field.zero] * k)
            elif kind < 0.3 and columns:
                columns.append(list(rng.choice(columns)))
            else:
                columns.append([field.random_element(rng) for _ in range(k)])
        gen = Matrix(field, [list(row) for row in zip(*columns)])
        if gen.rank() < k:
            continue
        assert min_distance_oracle(gen) == _scan_oracle(gen)
        compared += 1
    assert compared > 200


def _downward_oracle(gen):
    """The walk the upward scan over the reduced basis replaced: the same
    depth-first walk over the generator's raw columns, sizes downward from
    n - 1, stopping at the first size with a deficient subset."""
    n, k = gen.ncols, gen.nrows
    pk = fields._packing(gen.field, k)
    columns = [pk.pack(col) for col in gen.transpose().rows]
    for size in range(n - 1, -1, -1):
        hit = ref_first_deficient(pk, columns, k, size, 0, [], [])
        if hit is not None:
            return DistanceCertificate(d=n - size, witness=hit[0], witness_rank=hit[1])
    raise AssertionError("unreachable: the empty set is always rank deficient")


@pytest.fixture(scope="module")
def gf7_9():
    return build_code(validate_spec(load_spec_file(load_workloads().SPEC_DIR / "gf7_9.json")[0]))


def test_upward_walk_matches_downward_walk_on_permuted_columns(gf7_9):
    gen = gf7_9.gen
    orders = [list(range(gen.ncols)), list(range(gen.ncols))[::-1]]
    for seed in range(3):
        orders.append(random.Random(seed).sample(range(gen.ncols), gen.ncols))
    certs = []
    for order in orders:
        # The code on the permuted points has the permuted columns.
        permuted = _on_points(gf7_9, [gf7_9.points[i] for i in order])
        assert permuted.gen.rows == gen.take_columns(order).rows
        certs.append(min_distance_oracle(permuted))
        assert certs[-1] == _downward_oracle(permuted.gen)
    assert {cert.d for cert in certs} == {6}
    assert len({cert.witness for cert in certs}) == len(orders)
    # The subset scan takes about 1.5 s on this code, so it checks one order.
    assert certs[1] == _scan_oracle(gen.take_columns(orders[1]))


def _random_invertible(field, k, rng):
    while True:
        a = Matrix(field, [[field.random_element(rng) for _ in range(k)] for _ in range(k)])
        if a.rank() == k:
            return a


def test_oracle_is_blind_to_row_operations(all_instances, reversed_instance, gf7_9):
    # Row operations keep every column subset's rank, so A @ gen certifies
    # exactly as gen does; the reduced basis is one such A @ gen.
    rng = random.Random(20261019)
    for inst in [*all_instances, reversed_instance, gf7_9]:
        mixed = _random_invertible(inst.gen.field, inst.k, rng) @ inst.gen
        assert mixed.rows != inst.gen.rows
        cert = min_distance_oracle(inst)
        assert min_distance_oracle(mixed) == min_distance_oracle(inst.gen) == cert == _downward_oracle(mixed)
        if inst is not gf7_9:
            assert cert == _scan_oracle(mixed)


def _count_canon(monkeypatch, extension_only=False):
    """The list that gets one entry per _Packing.canon call, each one
    elimination or product step; only over F_(q^t), t > 1, if asked."""
    calls = []
    canon = fields._Packing.canon

    def counted(self, x):
        if self.t > 1 or not extension_only:
            calls.append(1)
        return canon(self, x)

    monkeypatch.setattr(fields._Packing, "canon", counted)
    return calls


def test_oracle_work_on_the_large_reference_code(gf7_9, monkeypatch):
    # A count of kernel steps, not a timing: the downward scan over raw
    # columns made 14,911 canon calls here, the upward scan over the
    # reduced basis 6,250, the size-by-size walk over the points 654 (the
    # bound was 8,000), the residual walk over all the columns 419 (the
    # bound was 460), the walk memoized at block starts 151 (the bound was
    # 200), one pass over the blocks 87 (the bound was 100), and one walk
    # per distinct block makes 33.
    calls = _count_canon(monkeypatch)
    assert min_distance_oracle(gf7_9).d == 6
    assert 0 < len(calls) <= 40


def test_prefix_oracles_walk_each_block_once_for_all_k(gf7_9, monkeypatch):
    # One knapsack over the block tables serves k = 1 .. 6: 33 canon calls,
    # against 160 for six separate oracle calls.  One pass over the blocks
    # made 87 (the bound was 100) against 383, and six walks sharing a
    # memo of block extensions 225.
    calls = _count_canon(monkeypatch)
    certs = prefix_oracles(gf7_9)
    shared = len(calls)
    calls.clear()
    assert [min_distance_oracle(_at_k(gf7_9, k)) for k in range(1, gf7_9.k + 1)] == certs
    assert 0 < shared <= 40 < len(calls)


N22_SPEC = LocalitySpec(
    classes=tuple(LocalityClass.from_groups(r, d, m) for r, d, m in ((1, 3, 2), (2, 3, 2), (3, 2, 2))),
    k=7,
    q=7,
    t=12,
)


@pytest.fixture(scope="module")
def n22():
    return build_code(validate_spec(N22_SPEC))


def test_oracle_work_on_the_n22_code(n22, monkeypatch):
    # The size-by-size walk made 16,363 canon calls here, the residual
    # walk over all the columns 1,095 (the bound was 1,200), the walk
    # memoized at block starts 380 (the bound was 500), one pass over the
    # blocks 152 (the bound was 180), and one walk per distinct block
    # makes 41.
    calls = _count_canon(monkeypatch)
    assert (n22.n, min_distance_oracle(n22, 22).d) == (22, distance_bound_udlrc(N22_SPEC).value)
    assert 0 < len(calls) <= 50


REACH_N27 = Path(__file__).resolve().parent / "specs" / "reach_n27.json"


def test_oracle_work_on_the_n27_code(monkeypatch):
    # The size-by-size walk made 780,975 canon calls on this [27,10] code,
    # the residual walk over all the columns 101,353, the walk memoized at
    # block starts 1,150 (the bound was 1,500), one pass over the blocks
    # 325 (the bound was 400), and one walk per distinct block makes 144.
    spec = load_spec_file(REACH_N27)[0]
    inst = build_code(validate_spec(spec))
    calls = _count_canon(monkeypatch)
    assert min_distance_oracle(inst, 27).d == distance_bound_udlrc(spec).value == 12
    assert 0 < len(calls) <= 170


@pytest.mark.parametrize(
    "name, n, d, bound",
    [("reach_n84.json", 84, 19, 150), ("reach_n230.json", 230, 53, 150)],
    ids=["n84", "n230"],
)
def test_oracle_work_on_the_large_reach_codes(name, n, d, bound, monkeypatch):
    # The walk memoized at block starts walked each block once per rank
    # budget: 10,577 canon calls on the [84,40] code and 83,002 on the
    # [230,100] code, each block rank at most 4.  One pass over the blocks
    # made 1,074 and 2,940 (the bounds were 1,300 and 3,500), and one
    # prefix_oracles call as many (24,734 and 172,522 with the shared
    # memo).  One walk per distinct block makes 121 on each, the blocks'
    # echelons included, and one prefix_oracles call as many.
    spec = load_spec_file(REACH_N27.parent / name)[0]
    inst = build_code(validate_spec(spec))
    calls = _count_canon(monkeypatch)
    assert min_distance_oracle(inst, n).d == distance_bound_udlrc(spec).value == d
    single = len(calls)
    assert prefix_oracles(inst, n)[-1].d == d
    assert 0 < single <= bound and len(calls) - single <= bound


def _reduced_basis_oracle(gen):
    """The walk the point walk replaced on built codes: the size-by-size
    walk over the columns of the generator's reduced basis over its own
    field, which a generator Matrix took until the residual walk."""
    n, k = gen.ncols, gen.nrows
    pn = fields._packing(gen.field, n)
    basis = pn.reduced(map(pn.pack, gen.rows), n)
    pk = fields._packing(gen.field, k)
    columns = [pk.pack(col) for col in zip(*(pn.unpack(row) for _, row in basis))]
    return ref_walk(pk, columns, len(basis), k, n)


@pytest.fixture(scope="module")
def grid_instances():
    return [build_code(validate_spec(spec)) for spec in usual_grid()]


def test_point_walk_matches_reduced_basis_walk(all_instances, reversed_instance, gf7_9, grid_instances):
    # Row j of a built generator is the Frobenius image of row j - 1, so a
    # column subset's rank is min(k, F_q-rank of its points).
    instances = [*all_instances, reversed_instance, gf7_9, *grid_instances]
    assert len(grid_instances) == 2298
    for inst in instances:
        assert list(inst.gen.rows[0]) == list(inst.points)
        assert min_distance_oracle(inst) == _reduced_basis_oracle(inst.gen)


def test_point_walk_on_column_permuted_generators(all_instances, grid_instances):
    # Permuting the points permutes the columns and moves the witness.
    rng = random.Random(20261021)
    instances = [*all_instances, *rng.sample(grid_instances, 300)]
    moved = 0
    for inst in instances:
        order = rng.sample(range(inst.n), inst.n)
        permuted = _on_points(inst, [inst.points[i] for i in order])
        cert, unpermuted = min_distance_oracle(permuted), min_distance_oracle(inst)
        assert cert == _reduced_basis_oracle(inst.gen.take_columns(order))
        assert cert.d == unpermuted.d
        moved += cert.witness != unpermuted.witness
    assert moved > 100


def test_row_mixed_grid_generators_take_the_generic_path(grid_instances):
    rng = random.Random(20261022)
    mixed_count = 0
    for inst in rng.sample(grid_instances, 300):
        mixed = _random_invertible(inst.gen.field, inst.k, rng) @ inst.gen
        assert min_distance_oracle(mixed) == _reduced_basis_oracle(mixed) == min_distance_oracle(inst)
        mixed_count += 1
    assert mixed_count == 300


def _oracle_sweep_rows():
    """(classes, k, n_gab, oracle-d) of each row of the benchmark's oracle
    sweep (q = 5) that prints an oracle-d."""
    from udlrc import cli

    argv = load_workloads().Sweep.ORACLE
    assert argv[argv.index("--q") + 1] == "5"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    rows = []
    for line in out.getvalue().splitlines():
        cells = line.split("\t")
        if cells[0] == "row" and cells[1].startswith("(") and cells[-1] != "-":
            choices = [map(int, label.strip("()").split(",")) for label in cells[1].split(";")]
            classes = tuple(LocalityClass.from_groups(*choice) for choice in choices)
            rows.append((classes, int(cells[2]), int(cells[4]), int(cells[-1])))
    return rows


def _sweep_instances():
    """The benchmark's oracle sweep's class tuples with an oracle-d, one
    code each, built at the last k of its table."""
    last = {classes: (k, n_gab) for classes, k, n_gab, _ in _oracle_sweep_rows()}
    return [build_code(LocalitySpec(classes, k, 5, n_gab)) for classes, (k, n_gab) in last.items()]


def _at_k(inst, k):
    """The code on inst's points at dimension k."""
    return dataclasses.replace(inst, spec=dataclasses.replace(inst.spec, k=k))


def _on_points(inst, points):
    """The code on the given points, in inst's field and layout."""
    return dataclasses.replace(inst, points=tuple(points))


def test_prefix_oracles_match_the_oracle_on_every_prefix(all_instances, grid_instances):
    # The points are packed and ranked once for all k; each certificate
    # must still be what a fresh oracle call on the code at that k gives,
    # on its points and on its generator, the first k rows of inst.gen.
    # Grid codes at k = n_gab have every smaller grid code of their class
    # tuple as a prefix.
    sweep = _sweep_instances()
    assert len(sweep) == 17
    full = [inst for inst in grid_instances if inst.k == inst.spec.n_gab]
    assert len(full) > 100
    prefixes = 0
    for inst in [*sweep, *full, *all_instances]:
        certs = prefix_oracles(inst)
        assert len(certs) == inst.k
        for k, cert in enumerate(certs, 1):
            prefix = dataclasses.replace(inst.gen, rows=inst.gen.rows[:k])
            assert _at_k(inst, k).gen == prefix
            assert cert == min_distance_oracle(_at_k(inst, k)) == _reduced_basis_oracle(prefix)
            prefixes += 1
    assert prefixes > 500


def test_residual_walk_matches_the_size_by_size_walk(all_instances, reversed_instance, gf7_9, n22, grid_instances):
    # A largest deficient set is closed, so rules (a) and (b) cut only
    # branches without one, and the first largest set found is the
    # size-by-size walk's witness: the same certificate at every k.
    walks = 0
    for inst in [*grid_instances, *all_instances, reversed_instance, gf7_9]:
        assert prefix_oracles(inst) == ref_point_oracles(inst, 20, range(1, inst.k + 1))
        walks += inst.k
    assert prefix_oracles(n22, 22) == ref_point_oracles(n22, 22, range(1, n22.k + 1))
    assert walks == 6905


def test_residual_walk_on_random_matrices():
    # Seeded generators over prime fields and GF(q^2) with zero, repeated
    # and dependent columns: the walk at every k up to the columns' rank
    # against the size-by-size walk, and min_distance_oracle against the
    # reference on the reduced basis, which both refuse a rank below k.
    from udlrc import ExtField

    rng = random.Random(20261026)
    primes = [PrimeField(2), PrimeField(3), F5, PrimeField(7)]
    choices = primes + [ExtField(base, 2) for base in primes[:3]]
    walks, full, deficient = 0, 0, 0
    for _ in range(700):
        field = rng.choice(choices)
        k = rng.randint(1, 5)
        columns = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            if kind < 0.15:
                columns.append([field.zero] * k)
            elif kind < 0.3 and columns:
                c = field.random_element(rng)
                columns.append([field.mul(c, v) for v in rng.choice(columns)])
            elif kind < 0.45 and len(columns) > 1:
                a, b = rng.sample(columns, 2)
                c = field.random_element(rng)
                columns.append([field.add(u, field.mul(c, v)) for u, v in zip(a, b)])
            else:
                columns.append([field.random_element(rng) for _ in range(k)])
        gen = Matrix(field, [list(row) for row in zip(*columns)])
        pk = fields._packing(field, k)
        packed = [pk.pack(col) for col in columns]
        rank = len(pk.echelon(packed, k))
        for j in range(1, rank + 1):
            assert _walk(pk, packed, j, j, len(packed))[0] == ref_walk(pk, packed, rank, j, len(packed))
            walks += 1
        if rank < k:
            for oracle in (min_distance_oracle, _reduced_basis_oracle):
                with pytest.raises(RankDeficientGenerator):
                    oracle(gen)
            deficient += 1
        else:
            assert min_distance_oracle(gen) == _reduced_basis_oracle(gen)
            full += 1
    assert walks > 1500 and full > 200 and deficient > 200


def _residual_walks(inst, ks):
    """ref_residual_walk at each k of ks on the instance's packed points."""
    pk, columns = inst._point_packing, inst._points_packed
    rank = len(pk.echelon(columns, pk.length))
    return [ref_residual_walk(pk, columns, rank, k, inst.n) for k in ks]


def test_block_walk_matches_the_residual_walk_on_the_grid(grid_instances):
    # Every grid code at k = n_gab, at every k: the memo shared by the
    # walks of prefix_oracles gives each walk's certificate.
    full = [inst for inst in grid_instances if inst.k == inst.spec.n_gab]
    assert len(full) == 490
    for inst in full:
        assert prefix_oracles(inst) == _residual_walks(inst, range(1, inst.k + 1))


def _perturbed(inst, rng):
    """inst on points changed one to three times: a point made zero, two
    points of different groups swapped (a group's block is then not
    contiguous), or a point plus a multiple of another group's point (two
    groups' blocks merge)."""
    q, points = inst.spec.q, list(inst.points)
    group_of = inst.layout.group_of
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(inst.n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            points[i] = (0,) * len(points[i])
        elif kind == 1 and group_of(i) != group_of(j):
            points[i], points[j] = points[j], points[i]
        elif group_of(i) != group_of(j):
            c = rng.randrange(1, q)
            points[i] = tuple((a + c * b) % q for a, b in zip(points[i], points[j]))
    return _on_points(inst, points)


def test_block_walk_matches_the_residual_walk_on_perturbed_points(grid_instances):
    # Seeded changes to the grid's points move, split and merge the blocks
    # and lower the rank; at every k up to the points' rank both walks give
    # the same certificate, and past it both refuse.
    rng = random.Random(20261101)
    multi = [inst for inst in grid_instances if len(inst.layout.groups) > 1 and inst.k == inst.spec.n_gab]
    fewer, more, deficient = 0, 0, 0
    for _ in range(1200):
        inst = rng.choice(multi)
        changed = _perturbed(inst, rng)
        pk, columns = changed._point_packing, changed._points_packed
        rank = len(pk.echelon(columns, pk.length))
        top = min(inst.k, rank)
        assert prefix_oracles(_at_k(changed, top)) == _residual_walks(changed, range(1, top + 1))
        if rank < inst.k:
            deficient += 1
            with pytest.raises(RankDeficientGenerator):
                _walk(pk, columns, inst.k, inst.k, inst.n)
            with pytest.raises(RankDeficientGenerator):
                ref_residual_walk(pk, columns, rank, inst.k, inst.n)
        starts = len(pk.block_starts(columns))
        built = len(pk.block_starts(inst._points_packed))
        fewer += starts < built
        more += starts > built
    assert fewer > 300 and more > 100 and deficient > 10


def _block_walks(pk, columns, rank, ks, n):
    """ref_block_walk at each k of ks, the walks sharing one memo of block
    extensions as prefix_oracles' walks did."""
    memo: dict = {}
    return [ref_block_walk(pk, columns, rank, k, n, memo) for k in ks]


def test_one_pass_matches_the_block_walk_on_the_grid(grid_instances):
    # Every grid code, at its own k and in one prefix_oracles pass for
    # every k up to it: the same size, witness and witness rank as the
    # walk that walked each block once per rank budget.
    walks = 0
    for inst in grid_instances:
        pk, columns = inst._point_packing, inst._points_packed
        rank = len(pk.echelon(columns, pk.length))
        certs = _block_walks(pk, columns, rank, range(1, inst.k + 1), inst.n)
        assert prefix_oracles(inst) == certs
        assert min_distance_oracle(inst) == certs[-1]
        walks += inst.k
    assert (len(grid_instances), walks) == (2298, 6878)


def test_one_pass_matches_the_block_walk_on_perturbed_points(grid_instances):
    # Seeded changes that move, split and merge the blocks and lower the
    # rank: the same certificates at every k up to the points' rank, alone
    # and in one pass, and past it the same refusal at the same first k.
    rng = random.Random(20261103)
    multi = [inst for inst in grid_instances if len(inst.layout.groups) > 1 and inst.k == inst.spec.n_gab]
    deficient = 0
    for _ in range(1200):
        inst = rng.choice(multi)
        changed = _perturbed(inst, rng)
        pk, columns = changed._point_packing, changed._points_packed
        rank = len(pk.echelon(columns, pk.length))
        top = min(inst.k, rank)
        certs = _block_walks(pk, columns, rank, range(1, top + 1), inst.n)
        assert prefix_oracles(_at_k(changed, top)) == certs
        assert [min_distance_oracle(_at_k(changed, k)) for k in range(1, top + 1)] == certs
        with pytest.raises(TooLarge):
            prefix_oracles(changed, inst.n - 1)
        if rank < inst.k:
            deficient += 1
            for oracle, k in ((prefix_oracles, rank + 1), (min_distance_oracle, inst.k)):
                with pytest.raises(RankDeficientGenerator) as exc:
                    oracle(changed)
                with pytest.raises(RankDeficientGenerator) as ref:
                    ref_block_walk(pk, columns, rank, k, inst.n)
                assert str(exc.value) == str(ref.value) == f"generator rank below k={k}"
    assert deficient > 10


def test_one_pass_matches_the_block_walk_on_random_matrices():
    # Seeded columns over GF(2), GF(3), GF(5), GF(7), GF(4), GF(9) and
    # GF(25), each block on its own window of coordinates, with zero,
    # repeated and dependent columns, some shuffled across blocks: one
    # walk at every k up to the rank and one pass for all of them.
    from udlrc import ExtField

    rng = random.Random(20261104)
    primes = [PrimeField(2), PrimeField(3), F5, PrimeField(7)]
    choices = primes + [ExtField(base, 2) for base in primes[:3]]
    walks, interior, seen = 0, 0, set()
    for _ in range(1500):
        field = rng.choice(choices)
        seen.add(field.q ** getattr(field, "t", 1))
        k = rng.randint(1, 7)
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, min(2, k - 1))))
        columns = []
        for lo, hi in zip([0, *cuts], [*cuts, k]):
            block = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.random()
                if kind < 0.15:
                    block.append([field.zero] * k)
                elif kind < 0.3 and block:
                    c = field.random_element(rng)
                    block.append([field.mul(c, v) for v in rng.choice(block)])
                elif kind < 0.45 and len(block) > 1:
                    a, b = rng.sample(block, 2)
                    c = field.random_element(rng)
                    block.append([field.add(u, field.mul(c, v)) for u, v in zip(a, b)])
                else:
                    block.append([field.random_element(rng) if lo <= e < hi else field.zero for e in range(k)])
            columns += block
        if rng.random() < 0.3:
            rng.shuffle(columns)
        pk = fields._packing(field, k)
        packed = [pk.pack(column) for column in columns]
        n, rank = len(packed), len(pk.echelon(packed, k))
        certs = _block_walks(pk, packed, rank, range(1, rank + 1), n)
        assert [_walk(pk, packed, j, j, n, rank=rank)[0] for j in range(1, rank + 1)] == certs
        if rank:  # a pass to k = 0 is refused with a ValueError, as one walk at k = 0 is
            assert _walk(pk, packed, 1, rank, n) == certs
        # A pass up to k = rank + 2 refuses at the first k past the rank.
        with pytest.raises(RankDeficientGenerator, match=f"k={rank + 1}$"):
            _walk(pk, packed, 1, rank + 2, n)
        with pytest.raises(RankDeficientGenerator, match=f"k={rank + 1}$"):
            ref_block_walk(pk, packed, rank, rank + 1, n)
        walks += rank
        interior += len(pk.block_starts(packed)) > 2
    assert walks > 3000 and interior > 800 and seen == {2, 3, 4, 5, 7, 9, 25}


def _one_pass(inst, top):
    """ref_one_pass_walk at every k = 1 .. top on the instance's points."""
    pk, columns = inst._point_packing, inst._points_packed
    return ref_one_pass_walk(pk, columns, len(pk.echelon(columns, pk.length)), 1, top, inst.n)


def test_block_tables_match_the_one_pass_walk_on_the_grid(grid_instances):
    # Every grid code, in one prefix_oracles call for every k up to its own
    # and in one oracle call at it: the knapsack over its distinct blocks'
    # tables gives the one-pass walk's size, witness and witness rank.
    walks = 0
    for inst in grid_instances:
        certs = _one_pass(inst, inst.k)
        assert prefix_oracles(inst) == certs
        assert min_distance_oracle(inst) == certs[-1]
        walks += inst.k
    assert walks == 6878


def test_block_tables_match_the_one_pass_walk_on_moved_points(grid_instances):
    # One point of each grid code at k = n_gab replaced by a random element
    # of its field, twice: the moved point's coordinates mostly merge
    # blocks, so the code's blocks differ from its class's.  The same
    # certificates at every k.
    rng = random.Random(20261105)
    full = [inst for inst in grid_instances if inst.k == inst.spec.n_gab]
    merged = 0
    for inst in full:
        for moved in one_point_moves(inst, 2, rng):
            certs = _one_pass(moved, inst.k)
            assert prefix_oracles(moved) == certs
            assert [min_distance_oracle(_at_k(moved, k)) for k in range(1, inst.k + 1)] == certs
            pk = moved._point_packing
            merged += len(pk.block_starts(moved._points_packed)) < len(pk.block_starts(inst._points_packed))
    assert len(full) == 490 and merged > 900


def test_block_tables_match_the_one_pass_walk_on_the_benchmark_and_reach_codes():
    # The benchmark's certify codes and the three reach codes, up to
    # [230,100] with 50 groups, at every k.
    paths = [*sorted(load_workloads().SPEC_DIR.glob("*.json")), *sorted(REACH_N27.parent.glob("*.json"))]
    assert len(paths) == 8
    for path in paths:
        inst = build_code(validate_spec(load_spec_file(path)[0]))
        certs = _one_pass(inst, inst.k)
        assert prefix_oracles(inst, inst.n) == certs
        assert min_distance_oracle(inst, inst.n) == certs[-1]


def test_block_tables_match_the_one_pass_walk_on_dense_random_matrices():
    # Seeded dense generators over GF(2), GF(3), GF(5), GF(7) and GF(9),
    # mostly one block: every walk at one k and one pass for every k up to
    # the rank, and the generator's oracle against the one-pass walk over
    # its reduced basis.
    from udlrc import ExtField

    rng = random.Random(20261106)
    primes = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]
    choices = [*primes, ExtField(primes[1], 2)]
    walks = full = 0
    for _ in range(300):
        field = rng.choice(choices)
        k, n = rng.randint(1, 5), rng.randint(1, 10)
        columns = [[field.random_element(rng) for _ in range(k)] for _ in range(n)]
        pk = fields._packing(field, k)
        packed = [pk.pack(column) for column in columns]
        rank = len(pk.echelon(packed, k))
        certs = ref_one_pass_walk(pk, packed, rank, 1, rank, n) if rank else []
        assert [_walk(pk, packed, j, j, n)[0] for j in range(1, rank + 1)] == certs
        if rank:
            assert _walk(pk, packed, 1, rank, n) == certs
        # A pass past the rank refuses at its first k, as the one-pass walk does.
        with pytest.raises(RankDeficientGenerator, match=f"k={rank + 1}$"):
            _walk(pk, packed, 1, rank + 1, n)
        with pytest.raises(RankDeficientGenerator, match=f"k={rank + 1}$"):
            ref_one_pass_walk(pk, packed, rank, 1, rank + 1, n)
        walks += rank
        if rank == k:
            gen = Matrix(field, [list(row) for row in zip(*columns)])
            pn = fields._packing(field, n)
            reduced = [row for _, row in pn.reduced(map(pn.pack, gen.rows), n)]
            assert min_distance_oracle(gen) == ref_one_pass_walk(pk, pn.columns(reduced, range(n)), k, k, k, n)[0]
            full += 1
    assert walks > 600 and full > 200


def test_the_walk_reads_the_modulus():
    # Over GF(25) modulo x^2 + 2 and modulo x^2 + 3 the columns (1, x) and
    # (x, 2) pack alike, and their determinant 2 - x^2 is -1 and 0.
    layouts = [fields._Packing(5, modulus, 2) for modulus in ((2, 0, 1), (3, 0, 1))]
    columns = [layouts[0].pack(column) for column in (((1, 0), (0, 1)), ((0, 1), (2, 0)))]
    assert columns == [layouts[1].pack(column) for column in (((1, 0), (0, 1)), ((0, 1), (2, 0)))]
    assert _walk(layouts[0], columns, 2, 2, 2) == [DistanceCertificate(1, (0,), 1)]
    with pytest.raises(RankDeficientGenerator):
        _walk(layouts[1], columns, 2, 2, 2)


def test_the_oracle_sweep_walks_three_block_tables(monkeypatch):
    # The benchmark's oracle sweep: 17 class tuples of the classes (1, 2, m),
    # (2, 2, m) and (3, 2, m) fold one group table per (r, delta), each the
    # oracle on a one-group code, one walk of one block.  Each tuple's
    # code was built and its blocks split and keyed, 17 prefix_oracles
    # calls sharing one dict of these 3 tables, before the fold; before the
    # tables each tuple walked its own 47 blocks in all.
    from udlrc import cli

    workloads = load_workloads()
    built = counting(monkeypatch, "build_code", lambda spec: [(c.r, c.delta, c.groups) for c in spec.classes])
    oracles = counting(monkeypatch, "prefix_oracles")
    tables = counting(monkeypatch, "_block_table", lambda pk, block, *rest: len(block))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(workloads.Sweep.ORACLE) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workloads.GOLDEN["sweep"]["oracle"]
    assert built == [[(1, 2, 1)], [(2, 2, 1)], [(3, 2, 1)]]
    assert (len(oracles), tables) == (3, [2, 3, 4])


def _naive_block_starts(field, k, columns):
    """The block starts from each column's set of nonzero positions."""
    supports = [{e for e in range(k) if column[e] != field.zero} for column in columns]
    n = len(columns)
    return [j for j in range(n + 1) if not set().union(*supports[:j]) & set().union(*supports[j:])]


def test_block_starts_are_the_splits_of_disjoint_supports():
    # Over prime fields, GF(q^2), GF(7^9) and GF(11^60), where a nonzero
    # element may have a zero first slot, with zero columns and sparse ones.
    from udlrc import ExtField

    rng = random.Random(20261102)
    primes = [PrimeField(2), PrimeField(3), F5, PrimeField(7)]
    choices = primes + [ExtField(base, 2) for base in primes[:3]] + [ExtField(primes[3], 9), ExtField(PrimeField(11), 60)]
    interior = 0
    for _ in range(600):
        field = rng.choice(choices)
        k = rng.randint(1, 6)
        columns = []
        for _ in range(rng.randint(0, 9)):
            width = rng.randint(0, k)
            at = rng.randint(0, k - width)
            columns.append([field.random_element(rng) if at <= e < at + width else field.zero for e in range(k)])
        pk = fields._packing(field, k)
        starts = pk.block_starts([pk.pack(column) for column in columns])
        assert starts == _naive_block_starts(field, k, columns)
        interior += len(starts) > 2
    assert interior > 200


def test_walk_nests_through_at_most_a_hundred_blocks():
    # 600 blocks of two parallel columns: when each block's walk called
    # the next block's, the calls at k = 2 nested through all 600 blocks
    # and passed the interpreter's recursion limit unless a memo was
    # filled from the end every hundred blocks.  One pass from the last
    # block to the first makes no call across blocks.
    m = 600
    pk = fields._packing(PrimeField(3), m)
    columns = []
    for i in range(m):
        unit = [0] * m
        unit[i] = 1
        columns += [pk.pack(unit), pk.pack([2 * v for v in unit])]
    assert len(pk.block_starts(columns)) == m + 1
    cert = _walk(pk, columns, 2, 2, 2 * m)[0]
    assert cert == ref_residual_walk(pk, columns, m, 2, 2 * m)
    assert (cert.d, cert.witness_rank) == (2 * m - 2, 1)


def test_points_of_low_rank_raise_on_both_paths():
    from udlrc import ExtField, moore_matrix

    spec = LocalitySpec(classes=(LocalityClass.from_groups(3, 2, 1),), k=3, q=5, t=5)
    built = build_code(validate_spec(spec))
    f5_5, f5_2 = built.field, ExtField(F5, 2)
    duplicated = _on_points(built, [f5_5.one, f5_5.alpha, f5_5.alpha, f5_5.one])
    # The field is the spec's GF(q^t), so points over GF(5^2) take t = 2.
    beyond_t = dataclasses.replace(
        built, spec=dataclasses.replace(spec, t=2), points=(f5_2.one, f5_2.alpha, (1, 1), (2, 3))
    )
    rng = random.Random(20261023)
    for inst in (duplicated, beyond_t):
        gen = inst.gen
        assert gen == moore_matrix(inst.field, list(inst.points), 3).transpose()
        assert gen.rank() < gen.nrows == 3
        mixed = _random_invertible(gen.field, 3, rng) @ gen
        messages = set()
        for code in (inst, gen, mixed):
            with pytest.raises(RankDeficientGenerator) as exc:
                min_distance_oracle(code)
            messages.add(str(exc.value))
        assert messages == {"generator rank below k=3"}


def test_a_generator_without_rows_takes_the_generic_path():
    # k = 0 is refused with a ValueError that names it (it once reached an
    # assertion marked unreachable).
    from udlrc import ExtField

    for field in (F5, ExtField(F5, 3)):
        with pytest.raises(ValueError, match="^k = 0: "):
            min_distance_oracle(Matrix(field, []))


def test_large_reference_oracle_makes_no_extension_field_reduce(gf7_9, monkeypatch):
    # Elimination steps over GF(7^9), counted as canon calls: the
    # size-by-size walk of the row-mixed generator made 6,250 of them (in
    # 2,040 reduce calls), and the residual walk makes 1,272.  Its columns
    # have no interior block start, so they are walked as one block, and
    # rule (b) is what keeps the count there (2,820 without it).  One pass
    # over the blocks cuts a branch against the best set at k - 1, the one
    # budget asked of the block; cut against the best at the branch's own
    # rank, it made 8,401.
    mixed = _random_invertible(gf7_9.gen.field, gf7_9.k, random.Random(20261024)) @ gf7_9.gen
    calls = _count_canon(monkeypatch, extension_only=True)
    assert min_distance_oracle(gf7_9).d == 6
    assert calls == []
    # A row-mixed generator still walks over the extension field.
    assert min_distance_oracle(mixed).d == 6
    assert 1000 < len(calls) <= 1300


# Row 0 of the mixed generator vanishes at column 0, so a walk over that
# row's entries as points would see the first symbol as zero.
MIXED_ORACLE_SCRIPT = """
import random, sys
from udlrc import Matrix, build_code, load_spec_file, min_distance_oracle, validate_spec
gen = build_code(validate_spec(load_spec_file(sys.argv[1])[0])).gen
field, k, rng = gen.field, gen.nrows, random.Random(20261025)
while True:
    a = [[field.random_element(rng) for _ in range(k)] for _ in range(k)]
    rest = field.zero
    for j in range(1, k):
        rest = field.add(rest, field.mul(a[0][j], gen.rows[j][0]))
    a[0][0] = field.neg(field.div(rest, gen.rows[0][0]))
    if Matrix(field, a).rank() == k:
        break
mixed = Matrix(field, a) @ gen
assert mixed.rows[0][0] == field.zero
print(min_distance_oracle(mixed))
"""


def test_row_mixed_certificate_is_the_same_without_asserts(gf7_9):
    # python -O strips every assert, so no choice of walk may rest on one:
    # a walk of this row-mixed generator's first row as points would see
    # its first symbol as zero.
    path = str(load_workloads().SPEC_DIR / "gf7_9.json")
    outputs = []
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", MIXED_ORACLE_SCRIPT, path], capture_output=True, env=cli_env(), check=False
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.decode().strip())
    assert outputs[0] == outputs[1] == str(min_distance_oracle(gf7_9.gen))


def test_full_pipeline_on_a_ternary_field():
    spec = LocalitySpec(
        classes=(LocalityClass.from_groups(1, 3, 2), LocalityClass.from_groups(2, 2, 1)),
        k=3,
        q=3,
        t=4,
    )
    inst = build_code(validate_spec(spec))
    cert = min_distance_oracle(inst.gen)
    assert cert.d == distance_bound_udlrc(spec).value
    assert certify_distance_optimal(inst)


def test_decode_sampled_patterns_three_classes(three_instance, rng):
    from udlrc import ErasurePattern, Undecodable, decode_erasures, encode, erasure_decodable

    field = three_instance.field
    n, k = three_instance.n, three_instance.k
    message = [field.random_element(rng) for _ in range(k)]
    codeword = encode(three_instance, message)
    for _ in range(200):
        erased = rng.sample(range(n), rng.randrange(n + 1))
        pattern = ErasurePattern.from_erased(n, erased)
        received = {i: codeword[i] for i in pattern.remaining}
        if erasure_decodable(three_instance, pattern):
            result = decode_erasures(three_instance, received, pattern)
            assert result.message == tuple(message)
            assert result.codeword == tuple(codeword)
        else:
            with pytest.raises(Undecodable):
                decode_erasures(three_instance, received, pattern)


def test_oracle_matches_deficiency_characterization(single_instance):
    # d >= n - size + 1 exactly when every size-subset keeps full rank
    gen = single_instance.gen
    n, k = single_instance.n, single_instance.k
    d = min_distance_oracle(gen).d
    for size in range(n + 1):
        all_full = all(grank(gen, s) == k for s in combinations(range(n), size))
        assert all_full == (d >= n - size + 1)


def test_redundancy_inequality_on_deficient_sets(ref_instance):
    # d <= n - k + 1 - (|T| - rank) whenever the restriction is deficient
    gen = ref_instance.gen
    n, k = 8, 4
    d = min_distance_oracle(gen).d
    rng = random.Random(5)
    subsets = [tuple(sorted(rng.sample(range(n), rng.randrange(n + 1)))) for _ in range(200)]
    for subset in subsets:
        r = grank(gen, subset)
        if r <= k - 1:
            assert d <= n - k + 1 - (len(subset) - r)


def test_punctured_code_profile_zero_column():
    gen = Matrix(F5, [[0, 1, 0], [0, 0, 1]])
    assert ref_punctured_code_profile(gen, (0,)) == (0, None)
    dim, dist = ref_punctured_code_profile(gen, (0, 1, 2))
    assert (dim, dist) == (2, 1)


def test_locality_witness_search_reference(ref_instance):
    spec = ref_instance.spec
    for l, group in enumerate(ref_instance.layout.groups):
        c = spec.classes[ref_instance.layout.class_of[l]]
        for i in group:
            witness = ref_locality_witness_search(
                ref_instance.gen, i, class_symbols(ref_instance, ref_instance.layout.class_of[l] + 1), c.r, c.delta
            )
            assert witness == group  # the containing group is the smallest witness here


def test_locality_witness_search_none_on_identity():
    ident = Matrix.identity(F5, 3)
    assert ref_locality_witness_search(ident, 0, (0, 1, 2), 1, 2) is None


def test_locality_witness_search_zero_column_cases():
    # a zero column never carries distance by itself; larger sets can
    gen = Matrix(F5, [[0, 1, 1]])
    assert ref_locality_witness_search(gen, 0, (0, 1, 2), 2, 2) == (0, 1, 2)
    gen2 = Matrix(F5, [[0, 1, 0], [0, 0, 1]])
    assert ref_locality_witness_search(gen2, 0, (0, 1, 2), 1, 2) is None


def test_locality_witness_search_guards():
    gen = Matrix.identity(F5, 3)
    with pytest.raises(ValueError):
        ref_locality_witness_search(gen, 5, (0, 1, 2), 1, 2)
    wide = Matrix.identity(F5, 3)
    with pytest.raises(TooLarge):
        ref_locality_witness_search(wide, 0, tuple(range(3)), 1, 2, max_support=2)


def test_cover_trace_reference(ref_instance):
    trace1 = class_cover_trace(ref_instance, 1)
    assert trace1.steps == 1
    assert trace1.sets[-1] == frozenset((0, 1, 2, 3))
    assert trace1.granks == (0, 2)
    trace2 = class_cover_trace(ref_instance, 2)
    assert trace2.steps == 1
    assert trace2.granks == (0, 3)


def test_cover_trace_multi_step(single_instance):
    trace = class_cover_trace(single_instance, 1)
    assert trace.steps == 2
    assert trace.picks == (0, 3)
    assert trace.granks == (0, 2, 3)
    assert trace.sizes == (0, 3, 6)
    # chain is nested
    for earlier, later in zip(trace.sets, trace.sets[1:]):
        assert earlier < later


def test_cover_trace_claims_on_all_instances(all_instances):
    for inst in all_instances:
        for j, c in enumerate(inst.spec.classes, 1):
            trace = class_cover_trace(inst, j)
            assert check_cover_trace(trace, c.r, c.delta) == []


def test_cover_trace_claims_catch_fakes():
    fake = CoverTrace(
        class_index=1,
        sets=(frozenset(), frozenset((0, 1))),
        picks=(0,),
        sizes=(0, 2),
        granks=(0, 2),
    )
    # size gain equals rank gain: the redundancy claim must flag it
    violations = check_cover_trace(fake, r=2, delta=2)
    assert any("size gain" in v for v in violations)
    slow = CoverTrace(
        class_index=1,
        sets=(frozenset(), frozenset(range(6))),
        picks=(0,),
        sizes=(0, 6),
        granks=(0, 4),
    )
    violations = check_cover_trace(slow, r=2, delta=2)
    assert any("rank gain" in v for v in violations)
    # claims a rank-4 class covered in a single step with r = 2
    short = CoverTrace(
        class_index=1,
        sets=(frozenset(), frozenset(range(8))),
        picks=(0,),
        sizes=(0, 8),
        granks=(0, 4),
    )
    assert any("step count" in v for v in check_cover_trace(short, r=2, delta=2))


def test_tight_step_count(single_instance):
    trace = class_cover_trace(single_instance, 1)
    # class rank 3, r = 2: the floor of two steps is met exactly
    assert trace.steps == 2


def _class_ranks(inst):
    """Each class's rank, min(k, F_q-rank of its points), against its cap."""
    return [
        (min(inst.k, erank(inst, class_symbols(inst, j))), c.k_cap) for j, c in enumerate(inst.spec.classes, 1)
    ]


def test_class_rank_caps(ref_instance, ref_full_instance, all_instances):
    rows = _class_ranks(ref_instance)
    assert rows == [(2, 2), (3, 3)]
    full_rows = _class_ranks(ref_full_instance)
    assert all(rank == cap for rank, cap in full_rows)
    for inst in all_instances:
        rows = _class_ranks(inst)
        assert all(rank <= cap for rank, cap in rows)
        assert sum(rank for rank, _ in rows) >= inst.k


def test_cover_trace_ends_at_the_class_rank(all_instances):
    for inst in all_instances:
        ranks = _class_ranks(inst)
        for j in range(1, inst.spec.s + 1):
            assert class_cover_trace(inst, j).granks[-1] == ranks[j - 1][0]


def test_rank_deficiency_witness_reference(ref_instance):
    witness = rank_deficiency_witness(ref_instance)
    assert witness == (0, 1, 2, 3)
    assert grank(ref_instance.gen, witness) == 2


def test_rank_deficiency_witness_all_instances(all_instances):
    for inst in all_instances:
        witness = rank_deficiency_witness(inst)
        wrank = grank(inst.gen, witness)
        assert wrank <= inst.k - 1
        d = min_distance_oracle(inst.gen).d
        assert inst.n - len(witness) >= d
        assert d <= inst.n - inst.k + 1 - (len(witness) - wrank)


def test_rank_deficiency_witness_k_one():
    tiny = LocalitySpec(classes=(LocalityClass.from_groups(1, 2, 1),), k=1, q=5, t=1)
    inst = build_code(validate_spec(tiny))
    assert rank_deficiency_witness(inst) == ()


def _witness_outcomes():
    """How rank_deficiency_witness answers on seeded one-point moves: 500 of
    each benchmark spec's code, and 10 of each of 300 seeded grid specs'
    codes.  Each answer is a witness that keeps both its claims (rank below
    k, redundancy at least the measured bound's terms), one that breaks one,
    or the ValueError's message up to its first colon."""
    spec_dir = load_workloads().SPEC_DIR
    setups = {
        name: ([build_code(validate_spec(load_spec_file(spec_dir / f"{name}.json")[0]))], 500, random.Random(0))
        for name in ("ref", "ref_full", "three", "reversed", "gf7_9")
    }
    rng = random.Random(0)
    setups["grid"] = ([build_code(spec) for spec in rng.sample(list(usual_grid()), 300)], 10, rng)
    outcomes = {}
    for name, (codes, count, rng) in setups.items():
        tally = Counter()
        for other in (moved for inst in codes for moved in one_point_moves(inst, count, rng)):
            try:
                witness = rank_deficiency_witness(other)
            except ValueError as exc:
                tally[str(exc).partition(":")[0]] += 1
                continue
            granks = [class_cover_trace(other, j).granks[-1] for j in range(1, other.spec.s + 1)]
            floor = sum(distance_bound_measured(other.spec, granks).per_class_terms)
            wrank = min(other.k, erank(other, witness))
            tally["witness" if wrank < other.k and len(witness) - wrank >= floor else "broken"] += 1
        outcomes[name] = dict(tally)
    return outcomes


BREAKS = "class {}'s cover chain breaks its growth claims"
WITNESS_OUTCOMES = {
    "ref": {"witness": 500},
    "ref_full": {"witness": 500},
    "three": {"witness": 500},
    "reversed": {"witness": 246, BREAKS.format(1): 254},
    "gf7_9": {"witness": 500},
    "grid": {"witness": 2538, BREAKS.format(1): 261, BREAKS.format(2): 192, BREAKS.format(3): 9},
}


def test_witness_on_moved_points_keeps_its_claims_or_raises():
    # On 254 moves of the reversed code, class 1's chain gains rank 4 > r = 3
    # in one step, so no prefix stops short of k; the witness was then the
    # whole group, of rank k, wherever python -O stripped the checks.  On
    # the grid, some prefixes reach rank k or fall short of the redundancy.
    assert _witness_outcomes() == WITNESS_OUTCOMES
    assert without_asserts("test_analysis", "_witness_outcomes") == WITNESS_OUTCOMES
    inst = build_code(validate_spec(REVERSED_SPEC))
    moved = next(m for m in one_point_moves(inst, 500, random.Random(0)) if class_cover_trace(m, 1).granks[-1] == 4)
    with pytest.raises(ValueError, match=r"^class 1's cover chain breaks its growth claims: step 1: rank gain 4 exceeds r=3"):
        rank_deficiency_witness(moved)


def test_measured_bound_sound_on_reference(ref_instance):
    granks = [grank(ref_instance.gen, class_symbols(ref_instance, j)) for j in (1, 2)]
    bound = distance_bound_measured(ref_instance.spec, granks)
    assert bound.value >= min_distance_oracle(ref_instance.gen).d
    assert bound.value == distance_bound_udlrc(ref_instance.spec).value


def test_worst_case_pattern(ref_instance):
    layout = ref_instance.layout
    assert worst_case_pattern(layout, 0).remaining == tuple(range(8))
    assert worst_case_pattern(layout, 8).remaining == ()
    pattern = worst_case_pattern(layout, 3)
    assert pattern.remaining == (0, 1, 2, 3, 4)
    assert erank(ref_instance, pattern.remaining) == 3
    with pytest.raises(CountOutOfRange):
        worst_case_pattern(layout, 9)
    with pytest.raises(CountOutOfRange):
        worst_case_pattern(layout, -1)


def test_worst_case_pattern_minimizes_rank(ref_instance):
    layout = ref_instance.layout
    for e in range(9):
        floor_rank = erank(ref_instance, worst_case_pattern(layout, e).remaining)
        for remaining in combinations(range(8), 8 - e):
            assert erank(ref_instance, remaining) >= floor_rank


def test_transform_pattern_terminates_at_greedy(ref_instance):
    layout = ref_instance.layout
    # already greedy: nothing recorded
    assert ref_transform_pattern(layout, (0, 1, 2, 3, 4)) == []
    # group-2 symbols migrate into group 1, then align inside the group
    steps = ref_transform_pattern(layout, (5, 7))
    assert steps[-1].remaining == (0, 1)
    steps = ref_transform_pattern(layout, (0, 1, 2, 3, 5, 7))
    assert steps[-1].remaining == (0, 1, 2, 3, 4, 5)
    for remaining in combinations(range(8), 4):
        steps = ref_transform_pattern(layout, remaining)
        expected = worst_case_pattern(layout, 4).remaining
        final = steps[-1].remaining if steps else remaining
        assert tuple(final) == expected


def test_transform_pattern_rank_never_increases(ref_instance):
    layout = ref_instance.layout
    for size in range(9):
        for remaining in combinations(range(8), size):
            ranks = [erank(ref_instance, remaining)]
            for pattern in ref_transform_pattern(layout, remaining):
                assert len(pattern.remaining) == size
                ranks.append(erank(ref_instance, pattern.remaining))
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_certify_distance_optimal(all_instances):
    for inst in all_instances:
        assert certify_distance_optimal(inst)


def _loop_certify(inst):
    """The exhaustive check the point walk replaced: the greedy pattern and
    then every tau-set of symbols, each by the pooled F_q rank of its points."""
    spec = inst.spec
    tau = tightness_budget_size(inst)

    def rank(symbols):
        return base_rank(inst.field, [inst.points[i] for i in symbols])

    greedy = worst_case_pattern(inst.layout, spec.n - tau)
    return rank(greedy.remaining) >= spec.k and all(
        rank(subset) >= spec.k for subset in combinations(range(spec.n), tau)
    )


def _ordered_small_specs():
    """Every ordered buildable spec with q in {5, 7}, s <= 2, r <= 3,
    delta <= 3, m <= 2 and n <= 10, at t = n_gab and every k."""
    for q, s in product((5, 7), (1, 2)):
        for combo in product(product(range(1, 4), range(2, 4), range(1, 3)), repeat=s):
            classes = tuple(LocalityClass.from_groups(r, d, m) for r, d, m in combo)
            shape = LocalitySpec(classes=classes, k=1, q=q, t=1)
            if shape.ordered_condition and shape.n <= 10:
                for k in range(1, shape.n_gab + 1):
                    yield LocalitySpec(classes=classes, k=k, q=q, t=shape.n_gab)


def _with_copied_point(inst):
    """The instance with the first symbol of its last group carrying the
    point of symbol 0, so two groups' point spans meet."""
    points = list(inst.points)
    points[inst.layout.groups[-1][0]] = points[0]
    return dataclasses.replace(inst, points=tuple(points))


def test_instance_walk_matches_the_matrix_walk(all_instances):
    # The type of the input picks the walk: an instance's points, or a
    # generator Matrix's reduced basis.  A code on copied points has two
    # groups whose point spans meet, and its gen follows its points.
    # (test_points_of_low_rank_raise_on_both_paths covers points of rank
    # below k.)
    gf7_9 = load_spec_file(load_workloads().SPEC_DIR / "gf7_9.json")[0]
    honest = list(all_instances) + [build_code(validate_spec(gf7_9))]
    honest += [build_code(validate_spec(spec)) for spec in _ordered_small_specs()]
    faulty = [_with_copied_point(inst) for inst in honest if len(inst.layout.groups) > 1]
    assert (len(honest), len(faulty)) == (413, 389)
    for inst in honest + faulty:
        assert min_distance_oracle(inst) == min_distance_oracle(inst.gen)


def _grank_cover_trace(inst, j):
    """The cover chain the one-pass trace replaced: each pick is the first
    class symbol whose column grows the generator rank of the covered set,
    searched from the start of the class with a fresh grank per candidate."""
    symbols = class_symbols(inst, j)
    gen = inst.gen
    target = grank(gen, symbols)
    current = frozenset()
    sets, picks, sizes, granks = [current], [], [0], [0]
    while granks[-1] < target:
        pick = next(i for i in symbols if i not in current and grank(gen, current | {i}) > granks[-1])
        current = current | frozenset(inst.layout.groups[inst.layout.group_of(pick)])
        sets.append(current)
        picks.append(pick)
        sizes.append(len(current))
        granks.append(grank(gen, current))
    return CoverTrace(class_index=j, sets=tuple(sets), picks=tuple(picks), sizes=tuple(sizes), granks=tuple(granks))


def test_one_pass_trace_matches_the_per_candidate_loop(all_instances, reversed_instance, gf7_9, grid_instances):
    # The copied-point codes have groups whose point spans meet, so a
    # skipped symbol and a later group's points interact.
    honest = [*all_instances, reversed_instance, gf7_9, *grid_instances]
    faulty = [_with_copied_point(inst) for inst in honest if len(inst.layout.groups) > 1]
    traces = 0
    for inst in honest + faulty:
        for j in range(1, inst.spec.s + 1):
            assert class_cover_trace(inst, j) == _grank_cover_trace(inst, j)
            traces += 1
    assert (len(faulty), traces) == (2280, 12158)


def test_certify_walk_matches_the_subset_loop(all_instances):
    gf7_9 = load_spec_file(load_workloads().SPEC_DIR / "gf7_9.json")[0]
    honest = list(all_instances) + [build_code(validate_spec(gf7_9))]
    honest += [build_code(validate_spec(spec)) for spec in _ordered_small_specs()]
    faulty = [_with_copied_point(inst) for inst in honest if len(inst.layout.groups) > 1]
    assert (len(honest), len(faulty)) == (413, 389)
    for inst in honest:
        assert certify_distance_optimal(inst) is _loop_certify(inst) is True
    verdicts = [certify_distance_optimal(inst) for inst in faulty]
    assert verdicts == [_loop_certify(inst) for inst in faulty]
    # On 299 of them some tau-set of points falls below rank k.
    assert verdicts.count(False) == 299


def test_certify_reads_d_from_its_own_walk_only():
    # No caller supplies d: within the budget the code's own walk certifies
    # it, and past the budget the oracle refuses n.
    assert "cert" not in inspect.signature(certify_distance_optimal).parameters
    inst = build_code(validate_spec(load_spec_file(REACH_N27)[0]))
    assert certify_distance_optimal(inst, budget=27) is True
    with pytest.raises(TooLarge, match="n=27 exceeds the enumeration budget 20"):
        certify_distance_optimal(inst)


def test_certify_fails_every_move_that_lowers_d():
    # 2,000 seeded one-point moves of the [8,4] code: 104 lower d below its
    # ceiling 3, and the verdict is False on each.  When a certificate could
    # be passed in, the reference code's own turned 83 of them to True.
    ref = build_code(validate_spec(load_spec_file(load_workloads().SPEC_DIR / "ref.json")[0]))
    cap = distance_bound_udlrc(ref.spec).value
    lowered = [m for m in one_point_moves(ref, 2000, random.Random(0)) if min_distance_oracle(m).d < cap]
    assert (cap, len(lowered)) == (3, 104)
    assert not any(certify_distance_optimal(m) for m in lowered)


def test_certify_reads_the_oracle_certificate_and_the_traces(all_instances, monkeypatch):
    # certify_distance_optimal runs the oracle's walk exactly when the greedy
    # check passes, on a built code and on one whose points were changed
    # after the build.  Given the cover traces, the witness is the one it
    # computes.
    gf7_9 = load_spec_file(load_workloads().SPEC_DIR / "gf7_9.json")[0]
    honest = list(all_instances) + [build_code(validate_spec(gf7_9))]
    honest += [build_code(validate_spec(spec)) for spec in _ordered_small_specs()]
    faulty = [_with_copied_point(inst) for inst in honest if len(inst.layout.groups) > 1]
    # A walk is one _walk call, the oracle's one walk at its k (it was one
    # _first_deficient call per size before the residual walk).
    walks = counting(monkeypatch, "_walk")
    walked, passed = [], []
    for inst in honest + faulty:
        walks.clear()
        certify_distance_optimal(inst)
        walked.append(len(walks))
        greedy = worst_case_pattern(inst.layout, inst.n - tightness_budget_size(inst))
        passed.append(erank(inst, greedy.remaining) >= inst.k)
    assert walked == [int(ok) for ok in passed]
    assert walked[: len(honest)] == [1] * len(honest)
    assert (len(honest), len(faulty), sum(walked[len(honest) :])) == (413, 389, 201)
    for inst in honest:
        traces = [class_cover_trace(inst, j) for j in range(1, inst.spec.s + 1)]
        assert [trace.granks[-1] for trace in traces] == [rank for rank, _ in _class_ranks(inst)]
        assert rank_deficiency_witness(inst, traces) == rank_deficiency_witness(inst)


@pytest.mark.parametrize(
    "classes,k,q",
    [
        (((1, 2, 2), (2, 2, 2)), 4, 5),
        (((1, 2, 2), (2, 2, 2)), 6, 5),
        (((1, 3, 1), (1, 2, 2)), 2, 5),
        (((2, 3, 1), (2, 2, 2)), 5, 5),
        (((1, 4, 1), (2, 3, 1), (3, 2, 1)), 4, 7),
        (((2, 2, 3),), 5, 5),
        (((1, 3, 3),), 2, 3),
        (((3, 3, 1),), 3, 5),
    ],
)
def test_distance_cap_tight_across_ordered_shapes(classes, k, q):
    spec = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(r, d, m) for r, d, m in classes),
        k=k,
        q=q,
        t=sum(r * m for r, _, m in classes),
    )
    inst = build_code(validate_spec(spec))
    assert spec.ordered_condition
    cert = min_distance_oracle(inst.gen)
    assert cert.d == distance_bound_udlrc(spec).value
    assert certify_distance_optimal(inst)


def test_certify_requires_ordered_condition():
    inst = build_code(validate_spec(REVERSED_SPEC))
    with pytest.raises(OrderedConditionRequired):
        certify_distance_optimal(inst)


def test_permuted_bound_is_the_tight_one_on_reversed_build():
    from udlrc import permuted_tightest_bound

    inst = build_code(validate_spec(REVERSED_SPEC))
    d = min_distance_oracle(inst.gen).d
    assert distance_bound_udlrc(REVERSED_SPEC).value == 4  # valid but loose
    assert permuted_tightest_bound(REVERSED_SPEC).value == d == 3


def test_transform_pattern_on_unequal_group_widths(three_instance):
    layout = three_instance.layout
    assert tuple(len(g) for g in layout.groups) == (3, 3, 4)
    n = three_instance.n
    for size in range(n + 1):
        for remaining in combinations(range(n), size):
            ranks = [erank(three_instance, remaining)]
            steps = ref_transform_pattern(layout, remaining)
            for pattern in steps:
                assert len(pattern.remaining) == size
                ranks.append(erank(three_instance, pattern.remaining))
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            final = steps[-1].remaining if steps else remaining
            assert tuple(final) == worst_case_pattern(layout, n - size).remaining


def test_tightness_budget_size(ref_instance):
    tau = tightness_budget_size(ref_instance)
    assert tau == 6
    greedy = worst_case_pattern(ref_instance.layout, ref_instance.n - tau)
    # the greedy remaining set of the critical size reaches rank k exactly
    assert erank(ref_instance, greedy.remaining) == ref_instance.k
    assert ref_instance.n - tau + 1 == distance_bound_udlrc(ref_instance.spec).value
