import random
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import pytest

import udlrc
from udlrc import fields
from udlrc import (
    ErasurePattern,
    FieldTooSmall,
    LengthMismatch,
    LinearizedPoly,
    LocalityClass,
    LocalitySpec,
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
from conftest import REF_SPEC, REVERSED_SPEC, SRC, load_workloads, ref_build_rows, ref_left_multiply


def test_locality_class_derived_quantities():
    c = LocalityClass(r=2, delta=3, n=10)
    assert (c.width, c.p, c.rem) == (4, 2, 2)
    assert c.k_cap == 10 - 3 * 2  # ceil branch: rem = 2 >= delta - 1
    assert not c.has_whole_groups
    even = LocalityClass.from_groups(2, 3, 1)
    assert (even.n, even.rem, even.k_cap, even.groups) == (4, 0, 2, 1)


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
    assert list(ref_instance.gab_points) == [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    ]
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


def test_group_point_basis(ref_instance):
    assert ref_instance.group_point_basis(0) == tuple(ref_instance.gab_points[i] for i in (0, 1))
    assert ref_instance.group_point_basis(1) == tuple(ref_instance.gab_points[i] for i in (2, 3, 4))
    with pytest.raises(IndexError):
        ref_instance.group_point_basis(2)


def test_encode_zero_and_length_check(ref_instance):
    field = ref_instance.field
    assert encode(ref_instance, [field.zero] * 4) == [field.zero] * 8
    with pytest.raises(LengthMismatch):
        encode(ref_instance, [field.zero] * 3)


def test_encode_paths_agree(ref_instance, rng):
    field = ref_instance.field
    for _ in range(100):
        message = [field.random_element(rng) for _ in range(4)]
        assert encode(ref_instance, message) == encode_via_pipeline(ref_instance, message)


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
    from udlrc import punctured_code_profile

    for inst in (ref_instance, three_instance):
        for l, group in enumerate(inst.layout.groups):
            c = inst.spec.classes[inst.layout.class_of[l]]
            dim, dist = punctured_code_profile(inst.gen, group)
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


def test_locality_definition_checklist(ref_instance):
    # every symbol sits in a short group whose punctured distance reaches delta
    from udlrc import punctured_code_profile

    spec = ref_instance.spec
    for l, group in enumerate(ref_instance.layout.groups):
        c = spec.classes[ref_instance.layout.class_of[l]]
        assert len(group) == c.r + c.delta - 1
        _, dist = punctured_code_profile(ref_instance.gen, group)
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
    # one encode folds one packed row per message symbol and calls no
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
    assert calls == {"canon": inst.k, "mul": 0}


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
    # Row 0 is each group's precode points times its local generator and
    # row j the q-power of row j - 1; the reference multiplies the precode
    # Moore matrix by each lifted local generator, block by block.
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
