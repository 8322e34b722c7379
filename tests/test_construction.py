import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import pytest

import udlrc
from udlrc import construction, fields
from udlrc import (
    ErasurePattern,
    FieldTooSmall,
    LengthMismatch,
    LinearizedPoly,
    LocalityClass,
    LocalitySpec,
    NotOnCode,
    PrimeField,
    SpecInvalid,
    Undecodable,
    base_rank,
    build_code,
    decode_erasures,
    encode,
    encode_via_pipeline,
    erank,
    erasure_decodable,
    lin_eval,
    load_spec_file,
    mds_local_generator,
    min_distance_oracle,
    validate_spec,
)
from udlrc.construction import _lagrange_weights, _local_columns
from conftest import (
    REF_SPEC,
    SINGLE_SPEC,
    THREE_SPEC,
    REVERSED_SPEC,
    SRC,
    counting_cached,
    counting_method,
    load_workloads,
    one_point_moves,
    ref_build_rows,
    ref_decode_erasures,
    ref_left_multiply,
    ref_local_columns,
    ref_local_generator,
    ref_local_groups,
    ref_punctured_code_profile,
    ref_solve,
    usual_grid,
    without_asserts,
)


def test_locality_class_derived_quantities():
    c = LocalityClass(r=2, delta=3, n=10)
    assert (c.width, c.p, c.rem) == (4, 2, 2)
    assert c.k_cap == 10 - 3 * 2  # ceil branch: rem = 2 >= delta - 1
    assert not c.has_whole_groups
    even = LocalityClass.from_groups(2, 3, 1)
    assert (even.n, even.rem, even.k_cap, even.groups) == (4, 0, 2, 1)
    # Kept quantities leave equality, hashing and repr to (r, delta, n).
    fresh = LocalityClass(r=2, delta=3, n=10)
    assert fresh == c and hash(fresh) == hash(c) and {fresh: 1}[c] == 1
    assert repr(fresh) == repr(c) == "LocalityClass(r=2, delta=3, n=10)"


def test_locality_class_floor_branch():
    c = LocalityClass(r=3, delta=4, n=13)  # width 6, rem 1 <= delta - 2
    assert c.k_cap == 2 * 3


def test_locality_class_validation():
    with pytest.raises(SpecInvalid):
        LocalityClass(r=0, delta=2, n=3)
    with pytest.raises(SpecInvalid):
        LocalityClass(r=1, delta=1, n=3)
    with pytest.raises(SpecInvalid):
        LocalityClass.from_groups(1, 2, 0)
    with pytest.raises(SpecInvalid):
        LocalityClass(r=2, delta=2, n=7).groups  # 7 not a multiple of 3


def test_validate_spec_reference():
    spec = validate_spec(REF_SPEC)
    assert spec.n == 8
    assert spec.n_gab == 5
    assert spec.k_caps == (2, 3)
    assert spec.ordered_condition
    assert not REVERSED_SPEC.ordered_condition


def test_a_spec_sums_its_length_once(monkeypatch):
    # A spec keeps its length n as a class keeps its derived fields; the
    # decodes read it (through CodeInstance.n) without summing the classes
    # again, and equality, hashing and dataclasses.replace see only the
    # fields.
    counts = counting_cached(monkeypatch, LocalitySpec, ["n"])
    spec = replace(REF_SPEC)
    inst = build_code(spec)
    rng = random.Random(3900)
    pattern = ErasurePattern.from_erased(inst.n, (0,))
    for _ in range(3):
        decode_erasures(inst, _repair_decode(inst, rng, pattern), pattern)
    assert counts["n"] == 1 and spec == REF_SPEC and hash(spec) == hash(REF_SPEC)
    longer = replace(spec, classes=spec.classes + spec.classes[:1])
    assert longer.n == spec.n + spec.classes[0].n and counts["n"] == 2


def test_validate_spec_dimension_overflow():
    bad = LocalitySpec(classes=(LocalityClass.from_groups(2, 3, 1),), k=3, q=5, t=5)
    with pytest.raises(SpecInvalid, match="dimension overflow"):
        validate_spec(bad)


def test_validate_spec_field_too_small():
    bad = LocalitySpec(classes=(LocalityClass.from_groups(3, 3, 1),), k=2, q=3, t=5)
    with pytest.raises(FieldTooSmall):
        validate_spec(bad)


def test_validate_spec_extension_too_small():
    bad = LocalitySpec(classes=(LocalityClass.from_groups(3, 2, 2),), k=4, q=7, t=5)
    with pytest.raises(SpecInvalid, match="extension degree"):
        validate_spec(bad)


def test_validate_spec_requires_prime_q():
    bad = LocalitySpec(classes=(LocalityClass.from_groups(2, 2, 1),), k=2, q=4, t=2)
    with pytest.raises(SpecInvalid, match="prime"):
        validate_spec(bad)


def test_validate_spec_ragged_class():
    bad = LocalitySpec(classes=(LocalityClass(r=2, delta=3, n=10),), k=2, q=5, t=5)
    with pytest.raises(SpecInvalid, match="multiple"):
        validate_spec(bad)


def test_mds_local_generator_frozen_values():
    f5 = PrimeField(5)
    assert mds_local_generator(2, 3, f5).rows == [[1, 0, 4, 3], [0, 1, 2, 3]]
    assert mds_local_generator(3, 2, f5).rows == [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]]


def test_mds_local_generator_distances():
    f5 = PrimeField(5)
    f7 = PrimeField(7)
    cases = [(2, 3, f5), (1, 4, f5), (3, 2, f5), (2, 2, f5), (3, 3, f7)]
    for r, delta, base in cases:
        gen = mds_local_generator(r, delta, base)
        assert min_distance_oracle(gen).d == delta, (r, delta)


def test_mds_local_generator_any_r_columns_independent():
    f5 = PrimeField(5)
    for r, delta in [(2, 3), (3, 2), (2, 2)]:
        gen = mds_local_generator(r, delta, f5)
        for cols in combinations(range(r + delta - 1), r):
            assert gen.take_columns(cols).rank() == r


def test_mds_local_generator_repetition_and_parity():
    f5 = PrimeField(5)
    rep = mds_local_generator(1, 4, f5)
    assert rep.rows == [[1, 1, 1, 1]]
    parity = mds_local_generator(2, 2, f5)
    assert min_distance_oracle(parity).d == 2


def test_mds_local_generator_field_too_small():
    with pytest.raises(FieldTooSmall):
        mds_local_generator(3, 4, PrimeField(5))


@pytest.mark.parametrize(
    "r, delta, message",
    [
        (0, 2, "locality r must be >= 1, got 0"),
        (-1, 3, "locality r must be >= 1, got -1"),
        (2, 1, "local distance delta must be >= 2, got 1"),
    ],
)
def test_mds_local_generator_refuses_what_a_locality_class_refuses(r, delta, message):
    # These once returned an empty matrix, an empty matrix and the 2 x 2 identity.
    for refuse in (lambda: mds_local_generator(r, delta, PrimeField(5)), lambda: LocalityClass(r, delta, 4)):
        with pytest.raises(SpecInvalid) as raised:
            refuse()
        assert str(raised.value) == message


def test_mds_local_generator_is_the_vandermonde_route():
    # The Lagrange columns equal the Vandermonde matrix times the inverse of
    # its first r columns, on every (r, delta) a prime q <= 13 admits, and
    # the local columns (unit vectors on the first r locators, then the
    # weights) equal the weights at every locator, as build_code took them.
    checked = 0
    for q in (2, 3, 5, 7, 11, 13):
        base = PrimeField(q)
        for w in range(2, q + 1):
            for r in range(1, w):
                assert mds_local_generator(r, w - r + 1, base) == ref_local_generator(r, w - r + 1, base), (q, r, w)
                assert _local_columns(r, w - r + 1, q) == ref_local_columns(r, w - r + 1, q), (q, r, w)
                checked += 1
    assert checked == 168


def _spec_files():
    """The benchmark's five certify specs and the three reach specs."""
    root = Path(__file__).resolve().parent.parent
    return sorted((root / "perfbench" / "specs").glob("*.json")) + sorted((root / "tests" / "specs").glob("*.json"))


def test_local_groups_read_the_local_columns():
    # Every grid code at k = n_gab with three one-point moves each, and the
    # three reach codes: the groups that keep their local code are those
    # ref_local_groups finds.  Almost every move (of 1,470) takes a group
    # out of its local code.
    rng = random.Random(4201)
    reach = [build_code(validate_spec(load_spec_file(path)[0])) for path in _spec_files()[-3:]]
    lost = 0
    for spec in usual_grid():
        if spec.k == spec.n_gab:
            inst = build_code(spec)
            assert inst._local_groups == ref_local_groups(inst) == frozenset(range(len(inst.layout.groups)))
            for moved in one_point_moves(inst, 3, rng):
                assert moved._local_groups == ref_local_groups(moved)
                lost += len(moved._local_groups) < len(inst.layout.groups)
    for inst in reach:
        assert inst._local_groups == ref_local_groups(inst) == frozenset(range(len(inst.layout.groups)))
    assert [len(inst.layout.groups) for inst in reach] == [50, 6, 18] and lost > 1400


def test_build_packs_the_points_it_places():
    # build_code packs each class's columns once and shifts them to each
    # group's offset: the points packed one by one, on every grid code, the
    # benchmark's certify codes and the reach codes.
    specs = [*usual_grid(), *(validate_spec(load_spec_file(path)[0]) for path in _spec_files())]
    for spec in specs:
        inst = build_code(spec)
        pk = inst._point_packing
        assert inst._points_packed == [pk.pack(y) for y in inst.points], spec
    assert len(specs) == 2298 + 8


def test_a_replaced_code_packs_its_own_points(ref_instance):
    # dataclasses.replace starts a fresh instance, so the moved points are
    # packed from themselves, not taken from the built code.
    pk = ref_instance._point_packing
    moves = 0
    for moved in one_point_moves(ref_instance, 20, random.Random(4202)):
        assert "_points_packed" not in vars(moved)
        assert moved._points_packed == [pk.pack(y) for y in moved.points]
        moves += moved._points_packed != ref_instance._points_packed
    assert moves == 20


def test_build_reference_frozen_points(ref_instance):
    # evaluation points composed from the local generators by hand
    assert ref_instance.points == (
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (4, 2, 0, 0, 0),
        (3, 3, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 1, 2, 3),
    )
    # Each group's first r points are its precode points, the unit vectors.
    heads = [ref_instance.points[i] for i in (0, 1, 4, 5, 6)]
    assert heads == [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert ref_instance.layout.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert ref_instance.layout.class_of == (0, 1)


def test_build_generator_is_power_tower_of_points(
    ref_instance, ref_full_instance, single_instance, three_instance, reversed_instance
):
    # The [14, 6] code over GF(7^9) that the benchmark certifies.
    spec_file = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "gf7_9.json"
    gf7_9 = build_code(load_spec_file(spec_file)[0])
    instances = [ref_instance, ref_full_instance, single_instance, three_instance, reversed_instance]
    for inst in instances + [gf7_9]:
        field = inst.field
        for col, y in enumerate(inst.points):
            power = y
            for row in range(inst.k):
                assert inst.gen.rows[row][col] == power
                power = field.frobenius(power)


def test_build_full_rank(ref_instance, ref_full_instance):
    assert ref_instance.gen.rank() == 4
    assert ref_full_instance.gen.rank() == 5


def test_encode_zero_and_length_check(ref_instance):
    field = ref_instance.field
    assert encode(ref_instance, [field.zero] * 4) == [field.zero] * 8
    with pytest.raises(LengthMismatch):
        encode(ref_instance, [field.zero] * 3)
    # A symbol of the wrong length, short (was padded with zeros) or long
    # (was folded mod the modulus), encoded another message.
    for coords in (3, 9):
        with pytest.raises(LengthMismatch, match="symbol 2"):
            encode(ref_instance, [field.one] * 2 + [(1,) * coords, field.one])


def test_encode_paths_agree(ref_instance, rng):
    field = ref_instance.field
    for _ in range(100):
        message = [field.random_element(rng) for _ in range(4)]
        assert encode(ref_instance, message) == encode_via_pipeline(ref_instance, message)
    # The two-stage route reads each group's first r points, so it agrees
    # with encode on every built code and on a copy with its points scaled
    # by one field element, whose groups keep their local codes.
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "perfbench" / "specs").glob("*.json")) + [root / "tests" / "specs" / "reach_n27.json"]
    assert len(files) == 6
    specs = list(usual_grid()) + [validate_spec(load_spec_file(path)[0]) for path in files]
    for spec in specs:
        inst = build_code(spec)
        field = inst.field
        c = field.random_element(rng)
        while c in (field.zero, field.one):
            c = field.random_element(rng)
        scaled = replace(inst, points=tuple(field.mul(c, y) for y in inst.points))
        message = [field.random_element(rng) for _ in range(inst.k)]
        for code in (inst, scaled):
            assert encode_via_pipeline(code, message) == encode(code, message), spec
    assert len(specs) == 2298 + 6


def test_encode_via_pipeline_refuses_a_group_that_lost_its_local_code(ref_instance):
    # A moved point leaves its group's local code, where the precode values
    # at the group's first r points no longer give its symbols.
    field = ref_instance.field
    message = [field.one] * ref_instance.k
    for moved in one_point_moves(ref_instance, 20, random.Random(3)):
        lost = [l for l in range(len(moved.layout.groups)) if l not in moved._local_groups]
        assert lost
        with pytest.raises(ValueError, match=f"group {lost[0]} does not keep its local code"):
            encode_via_pipeline(moved, message)


def test_every_symbol_is_an_evaluation_at_its_point(ref_instance, rng):
    field = ref_instance.field
    for _ in range(20):
        message = [field.random_element(rng) for _ in range(4)]
        codeword = encode(ref_instance, message)
        poly = LinearizedPoly(field, tuple(message))
        for i, y in enumerate(ref_instance.points):
            assert codeword[i] == lin_eval(poly, y)


def test_erank_examples(ref_instance):
    assert erank(ref_instance, ()) == 0
    assert erank(ref_instance, (0, 1, 2, 3)) == 2
    assert erank(ref_instance, (4, 5, 6, 7)) == 3
    assert erank(ref_instance, range(8)) == 5
    with pytest.raises(IndexError):
        erank(ref_instance, (8,))


def test_group_point_rank_is_min_of_size_and_r(all_instances):
    for inst in all_instances:
        for l, group in enumerate(inst.layout.groups):
            r = inst.spec.classes[inst.layout.class_of[l]].r
            for size in range(len(group) + 1):
                for subset in combinations(group, size):
                    assert erank(inst, subset) == min(size, r)


def test_erank_direct_sum_matches_pooled(all_instances):
    # The group point spans intersect trivially, so the pooled rank erank
    # takes is the sum of the per-group ranks on every symbol set.
    for inst in all_instances:
        for size in range(inst.n + 1):
            for subset in combinations(range(inst.n), size):
                per_group = sum(
                    base_rank(inst.field, [inst.points[i] for i in group if i in subset])
                    for group in inst.layout.groups
                )
                assert erank(inst, subset) == per_group


def test_group_punctured_distance_meets_delta(ref_instance, three_instance):
    for inst in (ref_instance, three_instance):
        for l, group in enumerate(inst.layout.groups):
            c = inst.spec.classes[inst.layout.class_of[l]]
            dim, dist = ref_punctured_code_profile(inst.gen, group)
            assert dim == min(inst.k, c.r)
            assert dist is not None and dist >= c.delta


def test_erasure_pattern_validation():
    pattern = ErasurePattern.from_erased(8, (1, 5))
    assert pattern.remaining == (0, 2, 3, 4, 6, 7)
    assert pattern.erased_sorted == (1, 5)
    with pytest.raises(IndexError):
        ErasurePattern.from_erased(8, (8,))
    with pytest.raises(IndexError):
        ErasurePattern.from_remaining(8, (-1,))


def test_decode_no_erasures(ref_instance, rng):
    field = ref_instance.field
    message = [field.random_element(rng) for _ in range(4)]
    codeword = encode(ref_instance, message)
    pattern = ErasurePattern.from_erased(8, ())
    result = decode_erasures(ref_instance, dict(enumerate(codeword)), pattern)
    assert result.message == tuple(message)
    assert result.codeword == tuple(codeword)
    assert result.phase == "none"


def test_decode_local_phase_per_group(ref_instance, rng):
    field = ref_instance.field
    message = [field.random_element(rng) for _ in range(4)]
    codeword = encode(ref_instance, message)
    # any delta_j - 1 erasures inside one group repair locally
    local_patterns = [c for c in combinations((0, 1, 2, 3), 2)] + [(i,) for i in range(8)]
    for erased in local_patterns:
        pattern = ErasurePattern.from_erased(8, erased)
        received = {i: codeword[i] for i in pattern.remaining}
        result = decode_erasures(ref_instance, received, pattern)
        assert result.message == tuple(message)
        assert result.phase == "local"
        assert result.codeword == tuple(codeword)


def test_decode_global_phase(ref_instance, rng):
    field = ref_instance.field
    message = [field.random_element(rng) for _ in range(4)]
    codeword = encode(ref_instance, message)
    # two erasures split across groups exceed no local budget only in group 2
    pattern = ErasurePattern.from_erased(8, (4, 5))
    received = {i: codeword[i] for i in pattern.remaining}
    result = decode_erasures(ref_instance, received, pattern)
    assert result.message == tuple(message)
    assert result.phase == "global"


def test_decode_round_trip_all_recoverable_patterns(single_instance, rng):
    field = single_instance.field
    n, k = single_instance.n, single_instance.k
    for _ in range(5):
        message = [field.random_element(rng) for _ in range(k)]
        codeword = encode(single_instance, message)
        for size in range(n + 1):
            for erased in combinations(range(n), size):
                pattern = ErasurePattern.from_erased(n, erased)
                received = {i: codeword[i] for i in pattern.remaining}
                if erasure_decodable(single_instance, pattern):
                    result = decode_erasures(single_instance, received, pattern)
                    assert result.message == tuple(message)
                else:
                    with pytest.raises(Undecodable):
                        decode_erasures(single_instance, received, pattern)


def test_decode_dichotomy_every_pattern_reference(ref_instance, rng):
    # all 256 patterns: decodable ones round trip, the rest raise with the
    # exact remaining rank
    field = ref_instance.field
    n, k = ref_instance.n, ref_instance.k
    for _ in range(3):
        message = [field.random_element(rng) for _ in range(k)]
        codeword = encode(ref_instance, message)
        for size in range(n + 1):
            for erased in combinations(range(n), size):
                pattern = ErasurePattern.from_erased(n, erased)
                received = {i: codeword[i] for i in pattern.remaining}
                if erasure_decodable(ref_instance, pattern):
                    result = decode_erasures(ref_instance, received, pattern)
                    assert result.message == tuple(message)
                else:
                    with pytest.raises(Undecodable) as exc_info:
                        decode_erasures(ref_instance, received, pattern)
                    assert exc_info.value.remaining_rank == erank(
                        ref_instance, pattern.remaining
                    )


def test_decode_undecodable_reports_rank(ref_instance, rng):
    field = ref_instance.field
    message = [field.random_element(rng) for _ in range(4)]
    codeword = encode(ref_instance, message)
    pattern = ErasurePattern.from_erased(8, (5, 6, 7))
    received = {i: codeword[i] for i in pattern.remaining}
    with pytest.raises(Undecodable) as exc_info:
        decode_erasures(ref_instance, received, pattern)
    assert exc_info.value.remaining_rank == 3
    assert exc_info.value.needed == 4


def test_decode_rejects_mismatched_received(ref_instance):
    field = ref_instance.field
    pattern = ErasurePattern.from_erased(8, (0,))
    with pytest.raises(LengthMismatch):
        decode_erasures(ref_instance, {i: field.zero for i in range(8)}, pattern)
    # A pattern sized for another code: on the [12,6] repair code, n = 10
    # left symbols 10 and 11 unreceived yet decoded, n = 13 read past the end.
    inst = load_workloads().Repair(udlrc, 1).inst
    for n in (10, 13):
        with pytest.raises(LengthMismatch):
            decode_erasures(inst, {i: inst.field.zero for i in range(n)}, ErasurePattern.from_erased(n, ()))
    # A received symbol of the wrong length is named, as encode names a
    # message symbol; it was a bare ValueError from the field.
    for width in (3, 9):
        received = {i: inst.field.zero for i in range(12)}
        received[4] = (0,) * width
        with pytest.raises(LengthMismatch, match=f"^received symbol 4 has {width} coordinates, not t = 8$"):
            decode_erasures(inst, received, ErasurePattern.from_erased(12, ()))


def _decode_outcomes():
    """How decode_erasures answers on 300 seeded one-point moves of the
    [8,4] reference code, each with a seeded message and 1 to 3 seeded
    erasures: the right message, a wrong one, or Undecodable."""
    inst = build_code(validate_spec(REF_SPEC))
    rng, tally = random.Random(0), Counter()
    for other in one_point_moves(inst, 300, rng):
        message = [inst.field.random_element(rng) for _ in range(inst.k)]
        pattern = ErasurePattern.from_erased(inst.n, rng.sample(range(inst.n), rng.randint(1, 3)))
        codeword = encode(other, message)
        try:
            result = decode_erasures(other, {i: codeword[i] for i in pattern.remaining}, pattern)
        except Undecodable:
            tally["undecodable"] += 1
            continue
        tally["right" if list(result.message) == message else "wrong"] += 1
    return dict(tally)


def test_decode_on_moved_points_repairs_only_the_groups_that_keep_their_local_code():
    # A moved point breaks its group's local code, which the local phase
    # read from the construction: 167 of these decodes failed the re-encode
    # assert, and under python -O 116 returned a wrong message.
    assert _decode_outcomes() == {"right": 297, "undecodable": 3}
    assert without_asserts("test_construction", "_decode_outcomes") == {"right": 297, "undecodable": 3}
    inst = build_code(validate_spec(REF_SPEC))
    assert inst._local_groups == {0, 1}
    points = list(inst.points)
    points[5] = points[4]
    moved = replace(inst, points=tuple(points))
    assert moved._local_groups == {0}
    # A decode counts as repaired locally only the symbols of a group that
    # keeps its local code: symbol 6 goes to the global phase on the moved
    # points, symbol 0 stays local.
    codeword = encode(moved, [moved.field.random_element(random.Random(1)) for _ in range(moved.k)])
    for erased, phase, repaired in (((6,), "global", ()), ((0,), "local", (0,)), ((0, 6), "global", (0,))):
        pattern = ErasurePattern.from_erased(moved.n, erased)
        result = decode_erasures(moved, {i: codeword[i] for i in pattern.remaining}, pattern)
        assert (result.phase, result.repaired_locally, result.codeword) == (phase, repaired, tuple(codeword))


def test_locality_definition_checklist(ref_instance):
    # every symbol sits in a short group whose punctured distance reaches delta
    spec = ref_instance.spec
    for l, group in enumerate(ref_instance.layout.groups):
        c = spec.classes[ref_instance.layout.class_of[l]]
        assert len(group) == c.r + c.delta - 1
        _, dist = ref_punctured_code_profile(ref_instance.gen, group)
        for i in group:
            assert i in group
            assert dist >= c.delta


def test_single_layout_multi_group(single_instance):
    assert single_instance.layout.groups == ((0, 1, 2), (3, 4, 5))
    assert single_instance.layout.class_of == (0, 0)
    assert single_instance.layout.group_of(4) == 1
    with pytest.raises(IndexError):
        single_instance.layout.group_of(6)


def test_encode_is_k_packed_steps_and_no_field_mul(monkeypatch):
    # A count, not a timing: on the benchmark's [12,6] GF(5^8) repair code
    # one encode adds the k packed products two at a time, one canon per
    # pair (k = 6 when each product was folded on its own), and calls no
    # element-by-element product.
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(7)
    message = [inst.field.random_element(rng) for _ in range(inst.k)]
    expected = ref_left_multiply(inst.gen, message)
    calls = {"canon": 0, "mul": 0}
    canon, mul = fields._Packing.canon, fields.ExtField.mul

    def counted_canon(self, x):
        calls["canon"] += 1
        return canon(self, x)

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    monkeypatch.setattr(fields._Packing, "canon", counted_canon)
    monkeypatch.setattr(fields.ExtField, "mul", counted_mul)
    assert encode(inst, message) == expected
    assert inst.k == 6 and calls == {"canon": 3, "mul": 0}


def test_a_second_encode_packs_only_the_message(monkeypatch):
    # The instance keeps its packed generator rows, so an encode after the
    # first packs one element per message symbol and no row (6 rows and 78
    # elements per encode when every call repacked the generator).
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(7)
    message = [inst.field.random_element(rng) for _ in range(inst.k)]
    expected = ref_left_multiply(inst.gen, message)
    assert encode(inst, message) == expected
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    elems = counting_method(monkeypatch, fields._Packing, "pack_elem")
    assert encode(inst, message) == expected
    assert (len(packs), len(elems)) == (0, inst.k)


def test_a_first_decode_reads_its_moore_rows_from_the_packed_generator(monkeypatch):
    # The packed generator rows that encode combines are the code's one
    # packed generator: a set's first decode takes its Moore rows out of
    # them as columns.  Once an encode has packed the rows and
    # erasure_decodable the points, a first decode packs no row (12, one
    # per symbol, when the instance also kept the transposed Moore rows).
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(3500)
    codeword = encode(inst, [inst.field.random_element(rng) for _ in range(inst.k)])
    pattern = ErasurePattern.from_erased(inst.n, (0, 5))
    assert erasure_decodable(inst, pattern)
    received = {i: codeword[i] for i in pattern.remaining}
    expected = ref_decode_erasures(inst, received, pattern)
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    assert decode_erasures(inst, received, pattern) == expected
    assert list(inst._inverses.values()) == [None] and len(packs) == 0


@pytest.mark.parametrize("erased, phase", [((0, 5), "local"), ((0, 1, 2), "global")], ids=["local", "global"])
def test_a_decode_makes_one_field_inversion(erased, phase, monkeypatch):
    # On the benchmark's [12,6] code: the decode repairs no symbol by its
    # own arithmetic (its codeword entry is its value), the message solve
    # inverts its six pivots with one kernel power a^(q^t - 2), and the
    # instance's packed rows and points are reused,
    # so a decode packs no row (6 inversions, and 36 and 19 packed rows,
    # when each call packed a fresh system and inverted each pivot).
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(8)
    message = [inst.field.random_element(rng) for _ in range(inst.k)]
    codeword = encode(inst, message)
    pattern = ErasurePattern.from_erased(inst.n, erased)
    received = {i: codeword[i] for i in pattern.remaining}
    expected = ref_decode_erasures(inst, received, pattern)
    assert decode_erasures(inst, received, pattern) == expected
    powers = counting_method(monkeypatch, fields._Packing, "pow", record=lambda pk, x, e: e)
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    result = decode_erasures(inst, received, pattern)
    assert result == expected and result.phase == phase and list(result.message) == message
    assert (powers.count(inst.field.q**inst.field.t - 2), len(packs)) == (1, 0)


@pytest.mark.parametrize("erased, phase", [((0, 5), "local"), ((0, 1, 2), "global")], ids=["local", "global"])
def test_a_repeat_decode_is_one_packed_combine(erased, phase, monkeypatch):
    # The second decode of an information set keeps [A^-1 | A^-1 G] for its
    # Moore block A, so the third solves no system: no field inversion, no
    # elimination and no packed row (1, 1 and 0 on a first or second decode).
    # Its canon count is exact: one combine gives the message and the
    # codeword, one canon per pair of products, 3 (6 with a combine for the
    # message and one for the re-encode, 15 and 9 while the local pass
    # repaired each symbol with its own canon, 21 and 15 at one canon per
    # product).  It stays packed from the received symbols to the result:
    # only the k chosen symbols are packed (every received one was), and
    # the message and the codeword are unpacked as one row (two rows before
    # the re-encode was kept; 10/17/20/2 element, pack_elem, unpack_elem and
    # unpack calls on the local set and 9/12/18/2 on the global one when
    # each symbol went through ExtField.element and the message was
    # re-encoded unpacked).
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(8)
    pattern = ErasurePattern.from_erased(inst.n, erased)
    decodes = []
    for _ in range(3):
        message = [inst.field.random_element(rng) for _ in range(inst.k)]
        codeword = encode(inst, message)
        received = {i: codeword[i] for i in pattern.remaining}
        decodes.append((message, received, ref_decode_erasures(inst, received, pattern)))
    for message, received, expected in decodes[:2]:
        assert decode_erasures(inst, received, pattern) == expected
    powers = counting_method(monkeypatch, fields._Packing, "pow", record=lambda pk, x, e: e)
    eliminations = counting_method(monkeypatch, fields._Packing, "reduced_echelon")
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    canons = counting_method(monkeypatch, fields._Packing, "canon")
    conversions = [
        counting_method(monkeypatch, owner, name)
        for owner, name in ((fields.ExtField, "element"), (fields._Packing, "pack_elem"),
                            (fields._Packing, "unpack_elem"), (fields._Packing, "unpack"))
    ]
    message, received, expected = decodes[2]
    result = decode_erasures(inst, received, pattern)
    assert result == expected and result.phase == phase and list(result.message) == message
    assert (powers.count(inst.field.q**inst.field.t - 2), len(eliminations), len(packs)) == (0, 0, 0)
    assert len(canons) == 3
    assert [len(calls) for calls in conversions] == [0, inst.k, 0, 1]
    assert len(pattern.remaining) == {"local": 10, "global": 9}[phase]


def _off_code_refusals():
    """The count of NotOnCode refusals over 40 words off the code: one
    received coordinate altered, with 0 to 2 erasures on the benchmark's
    [12,6] code.  Each pattern is first decoded twice on a word of the
    code, so the altered word is decoded through its set's kept rows
    [A^-1 | A^-1 G], whose codeword part is the re-encode."""
    inst = load_workloads().Repair(udlrc, 1).inst
    rng, q = random.Random(3200), inst.spec.q
    refused = 0
    for _ in range(40):
        pattern = ErasurePattern.from_erased(inst.n, rng.sample(range(inst.n), rng.randint(0, 2)))
        for _ in range(2):
            decode_erasures(inst, _repair_decode(inst, rng, pattern), pattern)
        if inst._inverses[inst._plans[pattern.erased][1]] is None:
            raise AssertionError("the set's rows were not kept")
        codeword = encode(inst, [inst.field.random_element(rng) for _ in range(inst.k)])
        received = {i: codeword[i] for i in pattern.remaining}
        i, j = rng.choice(pattern.remaining), rng.randrange(inst.spec.t)
        received[i] = tuple((v + rng.randrange(1, q)) % q if c == j else v for c, v in enumerate(received[i]))
        try:
            decode_erasures(inst, received, pattern)
        except NotOnCode as exc:
            refused += str(exc).endswith("disagrees with the codeword the chosen symbols decode to")
    return refused


def test_a_word_off_the_code_fails_the_re_encode_check():
    # The decoded codeword is compared with every received symbol block by
    # block, and a difference raises NotOnCode.  The check was an assert
    # until it ran in every mode: under python -O a word off the code then
    # returned a codeword that disagreed with a received symbol.
    assert _off_code_refusals() == 40


def test_a_word_off_the_code_is_refused_without_asserts():
    assert without_asserts("test_construction", "_off_code_refusals") == 40


def test_kept_inverses_stay_within_their_budget(monkeypatch):
    # The kept rows are bounded by one module constant of packed bytes,
    # 16 MiB: every one of the repair code's sets, each k(k + n) = 108
    # packed elements of 272 bits (15 slots of 18 bits, padded to whole
    # bytes; k^2 = 36 while only A^-1 was kept, and 560 bits, slots of 37,
    # while the fold left its slots unreduced).
    # Lowered to three sets, the map never holds more, drops the least
    # recently used set, and every decode still equals the reference decode.
    assert construction._INVERSES_BYTES == 16 << 20
    inst = load_workloads().Repair(udlrc, 1).inst
    bits = inst.k * (inst.k + inst.n) * fields._packing(inst.field, inst.k).bw
    assert bits == 29_376
    monkeypatch.setattr(construction, "_INVERSES_BYTES", 3 * bits // 8 + 1)
    rng = random.Random(2600)

    def decode(code, pattern):
        """Decode one seeded message; returns the most recently used set."""
        codeword = encode(code, [inst.field.random_element(rng) for _ in range(inst.k)])
        received = {i: codeword[i] for i in pattern.remaining}
        assert decode_erasures(code, received, pattern) == ref_decode_erasures(code, received, pattern)
        assert len(code._inverses) * bits <= 8 * construction._INVERSES_BYTES
        return next(reversed(code._inverses), None)

    patterns = [p for p in _repair_patterns(inst, rng, 40) if erasure_decodable(inst, p)]
    first = {}  # set -> the first pattern that used it
    inverted = 0
    # Each pattern twice in a row, so its set is inverted before it is dropped.
    for pattern in [p for p in patterns for _ in range(2)] * 2:
        used = decode(inst, pattern)
        first.setdefault(used, pattern)
        inverted += inst._inverses[used] is not None
    assert len(first) > 3 and len(inst._inverses) == 3 and inverted >= len(patterns)
    # After sets a, b, c, a, d the map keeps c, a, d: b was the least recently used.
    fresh = replace(inst)
    a, b, c, d = list(first)[:4]
    for key in (a, b, c, a, d):
        assert decode(fresh, first[key]) == key
    assert list(fresh._inverses) == [c, a, d]
    # A budget below one inverse keeps no set: one byte short of it, as
    # bits is a whole number of bytes.
    monkeypatch.setattr(construction, "_INVERSES_BYTES", (bits - 1) // 8)
    fresh = replace(inst)
    for pattern in patterns[:5] * 2:
        assert decode(fresh, pattern) is None


def test_kept_rows_are_the_inverse_and_its_codewords():
    # After two decodes of a set, the instance keeps row i = [x | x G] for
    # x = A^-1 e_i, A the set's Moore block (row s is column s of the
    # generator G): the reference solve and the reference product give
    # both halves.  On the repair code and on a copy with scaled points,
    # which has the same sets on other Moore blocks.
    inst = load_workloads().Repair(udlrc, 1).inst
    field, k, n = inst.field, inst.k, inst.n
    rng = random.Random(3800)
    c = field.random_element(rng)
    assert c not in (field.zero, field.one)
    scaled = replace(inst, points=tuple(field.mul(c, y) for y in inst.points))
    pk = fields._packing(field, k + n)
    patterns = [p for p in _repair_patterns(inst, rng, 12) if erasure_decodable(inst, p)]
    assert len(patterns) >= 6
    for code in (inst, scaled):
        for pattern in patterns:
            for _ in range(2):
                decode_erasures(code, _repair_decode(code, rng, pattern), pattern)
            chosen = code._plans[pattern.erased][1]
            block = code.gen.take_columns(chosen).transpose()
            kept = code._inverses[chosen]
            assert len(kept) == k
            for i, row in enumerate(kept):
                x = ref_solve(block, [field.one if j == i else field.zero for j in range(k)])
                assert pk.unpack(row) == x + ref_left_multiply(code.gen, x)


def _repair_decode(inst, rng, pattern):
    """The received symbols of one seeded codeword of the repair code on the pattern."""
    codeword = encode(inst, [inst.field.random_element(rng) for _ in range(inst.k)])
    return {i: codeword[i] for i in pattern.remaining}


@pytest.mark.parametrize("erased", [(0, 5), (0, 1, 2), (), (0, 1, 2, 3, 4, 5)], ids=["local", "global", "none", "undecodable"])
def test_a_repeat_pattern_is_planned_once(erased, monkeypatch):
    # The information set, the phase and the repaired symbols depend only on
    # the pattern, so a decode after its first reuses the instance's plan.
    # Once the set's inverse is kept too, no point is reduced against a
    # basis and no Lagrange weight is taken (one extend per known point
    # until rank k, and one weight list per repaired symbol, when every
    # decode planned again).  An undecodable pattern raises the same rank
    # from its plan.
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(3600)
    pattern = ErasurePattern.from_erased(inst.n, erased)
    decodes = []
    for _ in range(3):
        received = _repair_decode(inst, rng, pattern)
        decodes.append((received, _decode_outcome(ref_decode_erasures, inst, received, pattern)))
    for received, expected in decodes[:2]:
        assert _decode_outcome(decode_erasures, inst, received, pattern) == expected
    extends = counting_method(monkeypatch, fields._Packing, "extend")
    weights = counting_method(monkeypatch, construction, "_lagrange_weights")
    received, expected = decodes[2]
    assert _decode_outcome(decode_erasures, inst, received, pattern) == expected
    assert (len(extends), len(weights)) == (0, 0)
    assert list(inst._plans) == [pattern.erased]
    # A pattern made directly on a plain set meets the same plan.
    assert _decode_outcome(decode_erasures, inst, received, ErasurePattern(inst.n, set(erased))) == expected
    assert list(inst._plans) == [pattern.erased] and not extends
    if len(erased) == 6:
        assert {outcome for _, outcome in decodes} == {("undecodable", 5, 6)}


def test_a_planned_pattern_still_checks_its_received_symbols():
    # On a pattern already planned, decodable or not, a missing key, an
    # extra key and a wrong-length symbol raise LengthMismatch with the
    # messages of a first decode, before any Undecodable.
    inst = load_workloads().Repair(udlrc, 1).inst
    rng = random.Random(3700)
    for erased in ((0, 5), (0, 1, 2, 3, 4, 5)):
        pattern = ErasurePattern.from_erased(inst.n, erased)
        received = _repair_decode(inst, rng, pattern)
        _decode_outcome(decode_erasures, inst, received, pattern)
        assert pattern.erased in inst._plans
        missing = dict(received)
        del missing[pattern.remaining[-1]]
        extra = dict(received)
        extra[erased[0]] = inst.field.zero
        short = dict(received)
        short[pattern.remaining[2]] = (0,) * 3
        both = dict(missing)
        both[pattern.remaining[0]] = (0,) * 3
        cover = "^received symbols must cover exactly the remaining positions$"
        for bad, message in (
            (missing, cover),
            (extra, cover),
            (both, cover),
            (short, f"^received symbol {pattern.remaining[2]} has 3 coordinates, not t = 8$"),
        ):
            with pytest.raises(LengthMismatch, match=message):
                decode_erasures(inst, bad, pattern)


def test_received_coordinates_need_not_be_reduced():
    # A received coordinate is read mod q, as packing it always did: the
    # decode and its re-encode check take v + q for v, on a first and a
    # planned decode of each pattern.
    inst = load_workloads().Repair(udlrc, 1).inst
    rng, q = random.Random(3750), inst.spec.q
    for erased in ((), (0, 5), (0, 1, 2)):
        pattern = ErasurePattern.from_erased(inst.n, erased)
        for _ in range(2):
            received = _repair_decode(inst, rng, pattern)
            expected = decode_erasures(inst, received, pattern)
            lifted = {i: tuple(x + q * rng.randint(1, 3) for x in v) for i, v in received.items()}
            assert decode_erasures(inst, lifted, pattern) == expected


def test_kept_plans_stay_within_their_bound(monkeypatch):
    # The kept plans are bounded by one module constant, 4096 patterns: all
    # 2^12 erased sets of the repair code.  Lowered to three, the map never
    # holds more, drops the least recently used pattern, and every decode
    # still equals the reference decode.
    inst = load_workloads().Repair(udlrc, 1).inst
    assert construction._PLANS == 1 << 12 == 2**inst.n
    monkeypatch.setattr(construction, "_PLANS", 3)
    rng = random.Random(3800)

    def decode(code, pattern):
        received = _repair_decode(code, rng, pattern)
        got = _decode_outcome(decode_erasures, code, received, pattern)
        assert got == _decode_outcome(ref_decode_erasures, code, received, pattern)
        assert len(code._plans) <= 3
        return next(reversed(code._plans))

    patterns = list({p.erased: p for p in _repair_patterns(inst, rng, 20)}.values())
    assert len(patterns) > 4
    for pattern in patterns * 2:
        assert decode(inst, pattern) == pattern.erased
    assert list(inst._plans) == [p.erased for p in patterns[-3:]]
    # After patterns a, b, c, a, d the map keeps c, a, d: b was the least recently used.
    fresh = replace(inst)
    a, b, c, d = patterns[:4]
    for pattern in (a, b, c, a, d):
        decode(fresh, pattern)
    assert list(fresh._plans) == [c.erased, a.erased, d.erased]


def _repair_patterns(inst, rng, count):
    """Seeded erasure patterns of the repair workload's three kinds: local
    (every group loses at most delta - 1), global (one group loses more,
    with a few others) and beyond d - 1 (d to d + 2 erasures)."""
    groups, n = inst.layout.groups, inst.n
    deltas = [inst.spec.classes[j].delta for j in inst.layout.class_of]
    d = min_distance_oracle(inst).d
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            erased = {i for g, dl in zip(groups, deltas) for i in rng.sample(g, rng.randint(0, dl - 1))}
        elif kind == 1:
            l = rng.randrange(len(groups))
            erased = set(rng.sample(groups[l], rng.randint(min(deltas[l], len(groups[l])), len(groups[l]))))
            others = [i for i in range(n) if i not in groups[l]]
            erased.update(rng.sample(others, min(len(others), rng.randint(0, max(0, d - 1 - len(erased))))))
        else:
            erased = set(rng.sample(range(n), min(n, rng.randint(d, d + 2))))
        yield ErasurePattern.from_erased(n, erased)


def _decode_outcome(decode, inst, received, pattern):
    try:
        return decode(inst, received, pattern)
    except Undecodable as exc:
        return ("undecodable", exc.remaining_rank, exc.needed)


def _differential_decodes(inst, rng, count):
    """Decode count seeded patterns with decode_erasures and with the
    reference decode; returns the outcomes seen (phases and undecodable).

    Each pattern is decoded with three seeded messages, so an information
    set goes through its first, second and later decodes.  Each is then
    decoded on a copy whose points are scaled by one field element: the
    same ranks, hence the same information sets, on other Moore blocks, so
    an inverse carried over from the instance would decode wrongly.  Its
    checks raise, so that they run under python -O too."""
    field = inst.field
    c = field.zero
    while c in (field.zero, field.one):
        c = field.random_element(rng)
    scaled = replace(inst, points=tuple(field.mul(c, y) for y in inst.points))
    seen = set()
    for pattern in _repair_patterns(inst, rng, count):
        for code in (inst, scaled):
            for _ in range(3):
                message = [field.random_element(rng) for _ in range(inst.k)]
                codeword = encode(code, message)
                received = {i: codeword[i] for i in pattern.remaining}
                got = _decode_outcome(decode_erasures, code, received, pattern)
                if got != _decode_outcome(ref_decode_erasures, code, received, pattern):
                    raise AssertionError(f"decode differs from the reference on erased {sorted(pattern.erased)}")
                if isinstance(got, tuple):
                    seen.add("undecodable")
                elif list(got.message) != message or list(got.codeword) != codeword:
                    raise AssertionError(f"wrong decode on erased {sorted(pattern.erased)}")
                else:
                    seen.add(got.phase)
    return seen


def _named_instance(name):
    if name == "repair":
        return load_workloads().Repair(udlrc, 1).inst
    if name == "gf7_9":
        return build_code(load_spec_file(SRC.parent / "perfbench" / "specs" / "gf7_9.json")[0])
    return build_code({"ref": REF_SPEC, "single": SINGLE_SPEC, "three": THREE_SPEC}[name])


@pytest.mark.parametrize("name", ["repair", "ref", "single", "three", "gf7_9"])
def test_decode_matches_the_reference_decode(name):
    # Message, codeword, phase, repaired symbols and the Undecodable rank
    # agree with the decode that inverted each group's present columns and
    # solved a freshly packed system with one inverse per pivot.
    seen = _differential_decodes(_named_instance(name), random.Random(1900), 120)
    assert {"local", "global", "undecodable"} <= seen


def _repair_differential():
    return sorted(_differential_decodes(_named_instance("repair"), random.Random(1900), 120))


def test_decode_matches_the_reference_decode_without_asserts():
    # Under python -O no re-encode check runs, and the decode still equals
    # the reference decode: nothing in it leans on the assert.
    assert without_asserts("test_construction", "_repair_differential") == ["global", "local", "none", "undecodable"]


def test_decode_matches_the_reference_decode_on_the_grid():
    specs = random.Random(1901).sample(list(usual_grid()), 300)
    rng = random.Random(1902)
    seen = set()
    for spec in specs:
        seen |= _differential_decodes(build_code(spec), rng, 6)
    assert seen == {"none", "local", "global", "undecodable"}


def test_lagrange_weights_are_the_solved_local_columns():
    # Column pos of the local generator solved on the present columns
    # writes symbol pos through the present symbols; mds_local_generator
    # and CodeInstance._local_groups take the same weights as Lagrange
    # weights on the locators.
    classes = {(c.r, c.delta, spec.q) for spec in usual_grid() for c in spec.classes}
    checked = 0
    for r, delta, q in sorted(classes):
        local = mds_local_generator(r, delta, PrimeField(q))
        w = r + delta - 1
        for present in combinations(range(w), r):
            coeffs = local.take_columns(present).inverse() @ local
            for pos in range(w):
                assert _lagrange_weights(present, pos, q) == [row[pos] for row in coeffs.rows]
                checked += 1
    assert len(classes) == 12 and checked == 224


def test_code_at_k_is_the_prefix_of_the_code_at_full_dimension():
    # Row j of the generator is the q^j-th powers of the points, so the
    # sweep builds each class tuple once and runs the oracle on prefixes.
    choices = [(r, d, m) for r in (1, 2, 3) for d in (3, 2) for m in (1, 2)]
    checked = 0
    for q in (5, 7):
        for s in (1, 2):
            for combo in product(choices, repeat=s):
                classes = tuple(LocalityClass.from_groups(*c) for c in combo)
                spec = LocalitySpec(classes=classes, k=1, q=q, t=1)
                if not spec.ordered_condition or spec.n > 12:
                    continue
                full = build_code(replace(spec, k=spec.n_gab, t=spec.n_gab)).gen
                for k in range(1, spec.n_gab + 1):
                    assert build_code(replace(spec, k=k, t=spec.n_gab)).gen.rows == full.rows[:k]
                    checked += 1
    assert checked == 612


def test_build_from_the_points_matches_the_block_product_build():
    # Row 0 is each group's local generator columns placed in its precode
    # coordinates and row j the q-power of row j - 1; the reference
    # multiplies the precode Moore matrix by each lifted local generator
    # (ref_local_generator), block by block.
    choices = [(r, d, m) for r in (1, 2, 3) for d in (2, 3) for m in (1, 2)]
    specs = [load_spec_file(path)[0] for path in sorted((SRC.parent / "perfbench" / "specs").glob("*.json"))]
    assert len(specs) == 5
    for q in (5, 7):
        for s in (1, 2):
            for combo in product(choices, repeat=s):
                classes = tuple(LocalityClass.from_groups(*c) for c in combo)
                n_gab = sum(c.groups * c.r for c in classes)
                for k in (1, max(1, n_gab // 2), n_gab):
                    specs.append(LocalitySpec(classes=classes, k=k, q=q, t=n_gab))
    assert len(specs) == 5 + 936
    for spec in specs:
        inst = build_code(spec)
        rows = ref_build_rows(spec)
        assert inst.gen.rows == rows, spec
        assert inst.points == tuple(rows[0]), spec


def test_build_code_places_the_points_without_a_product(monkeypatch):
    # A count, not a timing: on the repair workload's [12, 6] spec each
    # point is a local generator column placed in its group's precode
    # coordinates, so the build makes no product and inverts nothing (3
    # left_multiply, 2 matrix products and 2 inverses when it multiplied the
    # precode points by each lifted local generator).
    repair = load_workloads().Repair
    spec = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(*c) for c in repair.CLASSES), k=repair.K, q=repair.Q, t=repair.T
    )
    calls = [
        counting_method(monkeypatch, owner, name)
        for owner, name in (
            (fields.ExtField, "mul"),
            (udlrc.Matrix, "left_multiply"),
            (udlrc.Matrix, "__matmul__"),
            (udlrc.Matrix, "inverse"),
        )
    ]
    inst = build_code(spec)
    assert [len(c) for c in calls] == [0, 0, 0, 0]
    monkeypatch.undo()
    assert inst.points == tuple(ref_build_rows(spec)[0])


def test_a_code_past_the_modulus_search_is_built_and_ranked_without_its_field(monkeypatch):
    # n_gab = 140 over GF(11): the modulus search refuses t >= 64 there,
    # yet the build, erank and the cover chains read only the points, so
    # none of them searches for a modulus or builds GF(11^140).
    from udlrc import check_cover_trace, class_cover_trace

    spec = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(r, d, m) for r, d, m in ((2, 3, 20), (3, 3, 20), (4, 2, 10))),
        k=100,
        q=11,
        t=140,
    )
    inits = counting_method(monkeypatch, fields.ExtField, "__init__")
    inst = build_code(validate_spec(spec))
    assert (inst.n, spec.n_gab) == (230, 140)
    assert erank(inst, range(inst.n)) == 140
    for j, c in enumerate(spec.classes, 1):
        trace = class_cover_trace(inst, j)
        assert check_cover_trace(trace, c.r, c.delta) == []
        assert trace.granks[-1] == c.k_cap
    assert inits == [] and "field" not in vars(inst)
    with pytest.raises(fields.ModulusSearchTooLarge):
        inst.field


def test_point_ranks_read_the_packed_points(monkeypatch):
    # erank and the cover traces reduce the instance's packed points and
    # pack nothing themselves (12 and 15 packed points on the repair code
    # when erank and the traces packed every point again).
    inst = load_workloads().Repair(udlrc, 1).inst
    assert len(inst._points_packed) == inst.n
    packs = counting_method(monkeypatch, fields._Packing, "pack")
    assert erank(inst, range(inst.n)) == inst.spec.n_gab
    traces = [udlrc.class_cover_trace(inst, j) for j in range(1, inst.spec.s + 1)]
    assert len(packs) == 0
    monkeypatch.undo()
    assert erank(inst, range(inst.n)) == base_rank(inst.field, inst.points)
    for trace in traces:
        assert trace.granks == tuple(min(inst.k, erank(inst, covered)) for covered in trace.sets)


def test_the_generator_follows_the_points():
    # gen is derived from the points on first use: build_code makes none,
    # and the code on other points (dataclasses.replace) gets their tower.
    # Reversing the classes keeps n, k, q and t, so the reversed build's
    # points drop into the original instance.
    choices = [(r, d, m) for r in (1, 2, 3) for d in (2, 3) for m in (1, 2)]
    specs = [load_spec_file(path)[0] for path in sorted((SRC.parent / "perfbench" / "specs").glob("*.json"))]
    for q in (5, 7):
        for combo in product(choices, repeat=2):
            classes = tuple(LocalityClass.from_groups(*c) for c in combo)
            n_gab = sum(c.groups * c.r for c in classes)
            specs += [LocalitySpec(classes=classes, k=k, q=q, t=n_gab) for k in (1, n_gab)]
    assert len(specs) == 5 + 576
    for spec in specs:
        flipped = replace(spec, classes=spec.classes[::-1])
        inst, other = build_code(spec), build_code(flipped)
        assert "gen" not in vars(inst)
        assert inst.gen.rows == ref_build_rows(spec), spec
        moved = replace(inst, points=other.points)
        assert "gen" not in vars(moved)
        assert moved.gen.rows == ref_build_rows(flipped), spec
        assert inst.gen.rows == ref_build_rows(spec), spec


def test_the_generator_makes_one_frobenius_image_per_entry_below_row_0(monkeypatch):
    # A count, not a timing: the repair workload's [12, 6] generator has
    # 12 * 5 entries below row 0, each the image of the entry above it; the
    # tower once made one more image per point, past its last row (72).
    repair = load_workloads().Repair
    spec = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(*c) for c in repair.CLASSES), k=repair.K, q=repair.Q, t=repair.T
    )
    inst = build_code(spec)
    calls = 0
    frobenius = fields.ExtField.frobenius

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return frobenius(self, *args)

    monkeypatch.setattr(fields.ExtField, "frobenius", counted)
    rows = inst.gen.rows
    assert (inst.n, inst.k, calls) == (12, 6, 60)
    monkeypatch.undo()
    assert rows == ref_build_rows(spec)
