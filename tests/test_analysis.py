import contextlib
import dataclasses
import io
import random
import subprocess
import sys
from itertools import combinations, product

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
    class_rank_caps,
    class_symbols,
    decodable,
    distance_bound_udlrc,
    distance_bound_measured,
    erank,
    grank,
    load_spec_file,
    locality_witness_search,
    min_distance_oracle,
    punctured_code_profile,
    rank_deficiency_witness,
    tightness_budget_size,
    transform_pattern,
    validate_spec,
    worst_case_pattern,
)
from conftest import REVERSED_SPEC, cli_env, load_workloads, usual_grid
from udlrc import fields
from udlrc.analysis import _first_deficient, _is_moore, prefix_oracles
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
    for size in range(9):
        for subset in combinations(range(8), size):
            by_grank = decodable(ref_instance.gen, subset)
            by_erank = erank(ref_instance, subset) >= ref_instance.k
            assert by_grank == by_erank
    assert decodable(ref_instance.gen, range(8))
    assert not decodable(ref_instance.gen, (0, 1, 2))  # fewer than k symbols


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
    from udlrc import ExtField, lift_to_ext, mds_local_generator, moore_matrix

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
    small.append(lift_to_ext(f8, binary_parity))
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


def test_oracle_matches_scan_on_sweep_rows(monkeypatch):
    from udlrc import cli

    checked = []

    def differential(gen, budget):
        assert _is_moore(gen)  # so every k-row prefix takes the point walk
        certs = prefix_oracles(gen, budget)
        for k, cert in enumerate(certs, 1):
            prefix = dataclasses.replace(gen, rows=gen.rows[:k])
            assert cert == _scan_oracle(prefix) == _reduced_basis_oracle(prefix)
            checked.append(prefix.ncols)
        return certs

    monkeypatch.setattr(cli, "prefix_oracles", differential)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(load_workloads().Sweep.ORACLE) == 0
    assert len(checked) == 80 and max(checked) <= 10


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
        hit = _first_deficient(pk, columns, k, size, 0, [], [])
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
        permuted = gen.take_columns(order)
        assert _is_moore(permuted)
        certs.append(min_distance_oracle(permuted))
        assert certs[-1] == _downward_oracle(permuted)
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
        assert not _is_moore(mixed)
        cert = min_distance_oracle(inst.gen)
        assert min_distance_oracle(mixed) == cert == _downward_oracle(mixed)
        if inst is not gf7_9:
            assert cert == _scan_oracle(mixed)


def test_oracle_work_on_the_large_reference_code(gf7_9, monkeypatch):
    # A count of kernel steps, not a timing: the downward scan over raw
    # columns made 14,911 canon calls here, the upward scan over the
    # reduced basis 6,250, and the walk over the points makes 724.
    calls = []
    canon = fields._Packing.canon

    def counted(self, x):
        calls.append(1)
        return canon(self, x)

    monkeypatch.setattr(fields._Packing, "canon", counted)
    assert min_distance_oracle(gf7_9.gen).d == 6
    assert 0 < len(calls) <= 8000


def _reduced_basis_oracle(gen):
    """The walk the point walk replaced on Moore generators, and still the
    path of every other generator: the upward scan over the columns of the
    generator's reduced basis over its own field."""
    n, k = gen.ncols, gen.nrows
    pn = fields._packing(gen.field, n)
    basis = pn.reduced(map(pn.pack, gen.rows), n)
    if len(basis) < k:
        raise RankDeficientGenerator(f"generator rank below k={k}")
    pk = fields._packing(gen.field, k)
    columns = [pk.pack(col) for col in zip(*(pn.unpack(row) for _, row in basis))]
    cert = None
    for size in range(max(k - 1, 0), n):
        hit = _first_deficient(pk, columns, k, size, 0, [], [])
        if hit is None:
            break
        cert = DistanceCertificate(d=n - size, witness=hit[0], witness_rank=hit[1])
    return cert


@pytest.fixture(scope="module")
def grid_instances():
    return [build_code(validate_spec(spec)) for spec in usual_grid()]


def test_point_walk_matches_reduced_basis_walk(all_instances, reversed_instance, gf7_9, grid_instances):
    # Row j of a built generator is the Frobenius image of row j - 1, so a
    # column subset's rank is min(k, F_q-rank of its points).
    instances = [*all_instances, reversed_instance, gf7_9, *grid_instances]
    assert len(grid_instances) == 2298
    for inst in instances:
        assert _is_moore(inst.gen)
        assert list(inst.gen.rows[0]) == list(inst.points)
        assert min_distance_oracle(inst.gen) == _reduced_basis_oracle(inst.gen)


def test_point_walk_on_column_permuted_generators(all_instances, grid_instances):
    # Permuting columns keeps a Moore matrix Moore and moves the witness.
    rng = random.Random(20261021)
    instances = [*all_instances, *rng.sample(grid_instances, 300)]
    moved = 0
    for inst in instances:
        order = rng.sample(range(inst.n), inst.n)
        permuted = inst.gen.take_columns(order)
        assert _is_moore(permuted)
        cert, unpermuted = min_distance_oracle(permuted), min_distance_oracle(inst.gen)
        assert cert == _reduced_basis_oracle(permuted)
        assert cert.d == unpermuted.d
        moved += cert.witness != unpermuted.witness
    assert moved > 100


def test_row_mixed_grid_generators_take_the_generic_path(grid_instances):
    rng = random.Random(20261022)
    mixed_count = 0
    for inst in rng.sample(grid_instances, 300):
        if inst.k < 2:
            continue  # one row is Moore under any scaling
        mixed = _random_invertible(inst.gen.field, inst.k, rng) @ inst.gen
        assert not _is_moore(mixed)
        assert min_distance_oracle(mixed) == _reduced_basis_oracle(mixed) == min_distance_oracle(inst.gen)
        mixed_count += 1
    assert mixed_count > 200


def _sweep_generators():
    """The generators the benchmark's oracle sweep hands to prefix_oracles,
    one per class tuple, each built at the last k of its table."""
    from udlrc import cli

    gens = []

    def record(gen, budget):
        gens.append(gen)
        return prefix_oracles(gen, budget)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "prefix_oracles", record)
        assert cli.main(load_workloads().Sweep.ORACLE) == 0
    return gens


def test_prefix_oracles_match_the_oracle_on_every_prefix(all_instances, grid_instances):
    # A Moore generator is checked and its points packed once for all k;
    # each certificate must still be what a fresh oracle call on that
    # prefix gives.  Grid codes at k = n_gab have every smaller grid code
    # of their class tuple as a prefix.
    sweep = _sweep_generators()
    assert len(sweep) == 17
    full = [inst.gen for inst in grid_instances if inst.k == inst.spec.n_gab]
    assert len(full) > 100
    rng = random.Random(20261026)
    mixed = [_random_invertible(inst.gen.field, inst.k, rng) @ inst.gen for inst in all_instances]
    prefixes = 0
    for gen in [*sweep, *full, *mixed]:
        certs = prefix_oracles(gen)
        assert len(certs) == gen.nrows
        for k, cert in enumerate(certs, 1):
            prefix = dataclasses.replace(gen, rows=gen.rows[:k])
            assert cert == min_distance_oracle(prefix) == _reduced_basis_oracle(prefix)
            prefixes += 1
    assert prefixes > 500


def test_points_of_low_rank_raise_on_both_paths():
    from udlrc import ExtField, moore_matrix

    f5_5, f5_2 = ExtField(F5, 5), ExtField(F5, 2)
    duplicated = moore_matrix(f5_5, [f5_5.one, f5_5.alpha, f5_5.alpha, f5_5.one], 3).transpose()
    beyond_t = moore_matrix(f5_2, [f5_2.one, f5_2.alpha, (1, 1), (2, 3)], 3).transpose()
    rng = random.Random(20261023)
    for gen in (duplicated, beyond_t):
        assert _is_moore(gen) and gen.rank() < gen.nrows == 3
        mixed = _random_invertible(gen.field, 3, rng) @ gen
        assert not _is_moore(mixed)
        messages = set()
        for g in (gen, mixed):
            with pytest.raises(RankDeficientGenerator) as exc:
                min_distance_oracle(g)
            messages.add(str(exc.value))
        assert messages == {"generator rank below k=3"}


def test_a_generator_without_rows_takes_the_generic_path():
    from udlrc import ExtField

    for field in (F5, ExtField(F5, 3)):
        assert not _is_moore(Matrix(field, []))
        with pytest.raises(AssertionError, match="unreachable"):
            min_distance_oracle(Matrix(field, []))


def _count_extension_reduces(monkeypatch):
    calls = []
    reduce = fields._Packing.reduce

    def counted(self, row, basis):
        if self.t > 1:
            calls.append(1)
        return reduce(self, row, basis)

    monkeypatch.setattr(fields._Packing, "reduce", counted)
    return calls


def test_large_reference_oracle_makes_no_extension_field_reduce(gf7_9, monkeypatch):
    # The reduced-basis walk made 2,040 reduce steps over GF(7^9) here.
    mixed = _random_invertible(gf7_9.gen.field, gf7_9.k, random.Random(20261024)) @ gf7_9.gen
    calls = _count_extension_reduces(monkeypatch)
    assert min_distance_oracle(gf7_9.gen).d == 6
    assert calls == []
    # A row-mixed generator still walks over the extension field.
    assert min_distance_oracle(mixed).d == 6
    assert len(calls) > 1000


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
    # python -O strips every assert, so the Moore test must be a plain if:
    # were it an assert, this row-mixed generator would walk its first row.
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
    assert punctured_code_profile(gen, (0,)) == (0, None)
    dim, dist = punctured_code_profile(gen, (0, 1, 2))
    assert (dim, dist) == (2, 1)


def test_locality_witness_search_reference(ref_instance):
    spec = ref_instance.spec
    for l, group in enumerate(ref_instance.layout.groups):
        c = spec.classes[ref_instance.layout.class_of[l]]
        for i in group:
            witness = locality_witness_search(
                ref_instance.gen, i, class_symbols(ref_instance, ref_instance.layout.class_of[l] + 1), c.r, c.delta
            )
            assert witness == group  # the containing group is the smallest witness here


def test_locality_witness_search_none_on_identity():
    ident = Matrix.identity(F5, 3)
    assert locality_witness_search(ident, 0, (0, 1, 2), 1, 2) is None


def test_locality_witness_search_zero_column_cases():
    # a zero column never carries distance by itself; larger sets can
    gen = Matrix(F5, [[0, 1, 1]])
    assert locality_witness_search(gen, 0, (0, 1, 2), 2, 2) == (0, 1, 2)
    gen2 = Matrix(F5, [[0, 1, 0], [0, 0, 1]])
    assert locality_witness_search(gen2, 0, (0, 1, 2), 1, 2) is None


def test_locality_witness_search_guards():
    gen = Matrix.identity(F5, 3)
    with pytest.raises(ValueError):
        locality_witness_search(gen, 5, (0, 1, 2), 1, 2)
    wide = Matrix.identity(F5, 3)
    with pytest.raises(TooLarge):
        locality_witness_search(wide, 0, tuple(range(3)), 1, 2, max_support=2)


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


def test_class_rank_caps(ref_instance, ref_full_instance, all_instances):
    rows = class_rank_caps(ref_instance)
    assert [(r.grank, r.cap) for r in rows] == [(2, 2), (3, 3)]
    assert all(r.within_cap for r in rows)
    full_rows = class_rank_caps(ref_full_instance)
    assert all(r.grank == r.cap for r in full_rows)
    for inst in all_instances:
        rows = class_rank_caps(inst)
        assert all(r.within_cap for r in rows)
        assert sum(r.grank for r in rows) >= inst.k


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
    assert transform_pattern(layout, (0, 1, 2, 3, 4)) == []
    # group-2 symbols migrate into group 1, then align inside the group
    steps = transform_pattern(layout, (5, 7))
    assert steps[-1].remaining == (0, 1)
    steps = transform_pattern(layout, (0, 1, 2, 3, 5, 7))
    assert steps[-1].remaining == (0, 1, 2, 3, 4, 5)
    for remaining in combinations(range(8), 4):
        steps = transform_pattern(layout, remaining)
        expected = worst_case_pattern(layout, 4).remaining
        final = steps[-1].remaining if steps else remaining
        assert tuple(final) == expected


def test_transform_pattern_rank_never_increases(ref_instance):
    layout = ref_instance.layout
    for size in range(9):
        for remaining in combinations(range(8), size):
            ranks = [erank(ref_instance, remaining)]
            for pattern in transform_pattern(layout, remaining):
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
            steps = transform_pattern(layout, remaining)
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
