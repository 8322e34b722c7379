"""Acceptance checks for the whole library, one test per criterion.

Each test prints a single pass line (visible with -s or -rA) and enforces
the stated runtime budget where one applies.  Everything here is exact:
there are no tolerances anywhere in the package.
"""

import subprocess
import sys
import time
from itertools import combinations

import pytest

from udlrc import (
    ErasurePattern,
    LocalityClass,
    LocalitySpec,
    Undecodable,
    build_code,
    check_cover_trace,
    class_cover_trace,
    decode_erasures,
    dimension_bound,
    distance_bound_rdelta,
    distance_bound_udlrc,
    encode,
    erank,
    grank,
    min_distance_oracle,
    rank_deficiency_witness,
    validate_spec,
    worst_case_pattern,
)
from conftest import REF_SPEC, cli_env, ref_transform_pattern


def test_acceptance_1_distance_cap_tight_on_reference(ref_instance):
    start = time.time()
    cap = distance_bound_udlrc(REF_SPEC)
    assert cap.value == 3
    cert = min_distance_oracle(ref_instance.gen)
    assert cert.d == 3
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"acceptance 1: PASS  distance cap 3 met exactly by the oracle ({elapsed:.2f}s)")


def test_acceptance_2_dimension_cap_achieved_at_full_precode(ref_full_instance):
    spec = ref_full_instance.spec
    assert dimension_bound(spec) == 5
    assert spec.k == 5
    assert grank(ref_full_instance.gen, range(spec.n)) == 5
    print("acceptance 2: PASS  dimension cap 5 achieved with k = precode length")


def test_acceptance_3_group_point_rank_exhaustive(all_instances):
    start = time.time()
    checked = 0
    for inst in all_instances:
        for l, group in enumerate(inst.layout.groups):
            r = inst.spec.classes[inst.layout.class_of[l]].r
            for size in range(len(group) + 1):
                for subset in combinations(group, size):
                    assert erank(inst, subset) == min(size, r)
                    checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"acceptance 3: PASS  {checked} group subsets at rank min(size, r) ({elapsed:.2f}s)")


def test_acceptance_4_greedy_pattern_is_worst_case_exhaustive(ref_instance):
    start = time.time()
    layout = ref_instance.layout
    n = ref_instance.n
    floor_rank = {e: erank(ref_instance, worst_case_pattern(layout, e).remaining) for e in range(n + 1)}
    subsets_checked = 0
    for e in range(n + 1):
        for remaining in combinations(range(n), n - e):
            assert erank(ref_instance, remaining) >= floor_rank[e]
            ranks = [erank(ref_instance, remaining)]
            for pattern in ref_transform_pattern(layout, remaining):
                ranks.append(erank(ref_instance, pattern.remaining))
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            subsets_checked += 1
    elapsed = time.time() - start
    assert subsets_checked == 2**n
    assert elapsed < 30.0
    print(f"acceptance 4: PASS  all {subsets_checked} patterns dominate the greedy one ({elapsed:.2f}s)")


def test_acceptance_5_decoding_completeness(ref_instance, rng):
    start = time.time()
    field = ref_instance.field
    n, k = ref_instance.n, ref_instance.k
    patterns = [
        ErasurePattern.from_erased(n, erased)
        for size in range(3)  # up to d - 1 = 2 erasures
        for erased in combinations(range(n), size)
    ]
    for _ in range(100):
        message = [field.random_element(rng) for _ in range(k)]
        codeword = encode(ref_instance, message)
        for pattern in patterns:
            received = {i: codeword[i] for i in pattern.remaining}
            result = decode_erasures(ref_instance, received, pattern)
            assert result.message == tuple(message)
    # at least one pattern of d = 3 erasures must fail with a rank deficit
    message = [field.random_element(rng) for _ in range(k)]
    codeword = encode(ref_instance, message)
    failing = ErasurePattern.from_erased(n, (5, 6, 7))
    with pytest.raises(Undecodable) as exc_info:
        decode_erasures(ref_instance, {i: codeword[i] for i in failing.remaining}, failing)
    assert exc_info.value.remaining_rank < k
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"acceptance 5: PASS  100 messages x {len(patterns)} patterns decoded, "
        f"one 3-erasure pattern failed at rank {exc_info.value.remaining_rank} ({elapsed:.2f}s)"
    )


def test_acceptance_6_cover_chain_claims_on_every_class(all_instances):
    traces = 0
    for inst in all_instances:
        for j, c in enumerate(inst.spec.classes, 1):
            trace = class_cover_trace(inst, j)
            assert check_cover_trace(trace, c.r, c.delta) == []
            traces += 1
    print(f"acceptance 6: PASS  {traces} cover chains satisfy all growth claims")


def test_acceptance_7_deficiency_witness_bounds_distance(all_instances):
    for inst in all_instances:
        witness = rank_deficiency_witness(inst)
        wrank = grank(inst.gen, witness)
        assert wrank <= inst.k - 1
        d = min_distance_oracle(inst.gen).d
        assert inst.n - len(witness) >= d
        assert d <= inst.n - inst.k + 1 - (len(witness) - wrank)
    print("acceptance 7: PASS  witness sets stay rank deficient and bound the distance")


def test_acceptance_8_single_class_reduction_sweep():
    start = time.time()
    specs = []
    for r in range(1, 5):
        for delta in range(2, 5):
            for m in range(1, 4):
                for q in (5, 7):
                    if q < r + delta - 1:
                        continue
                    for k in range(1, m * r + 1):
                        specs.append(
                            LocalitySpec(
                                classes=(LocalityClass.from_groups(r, delta, m),),
                                k=k,
                                q=q,
                                t=m * r,
                            )
                        )
                        if len(specs) == 50:
                            break
                    if len(specs) == 50:
                        break
                if len(specs) == 50:
                    break
            if len(specs) == 50:
                break
        if len(specs) == 50:
            break
    assert len(specs) == 50
    assert {s.q for s in specs} == {5, 7}
    oracled = 0
    for spec in specs:
        c = spec.classes[0]
        cap = distance_bound_udlrc(spec).value
        assert cap == distance_bound_rdelta(spec.n, spec.k, c.r, c.delta)
        if spec.n <= 16:
            inst = build_code(validate_spec(spec))
            assert min_distance_oracle(inst.gen, budget=16).d == cap
            oracled += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"acceptance 8: PASS  50 single-class specs reduce to the classical cap, "
        f"{oracled} verified by the oracle ({elapsed:.1f}s)"
    )


def test_acceptance_9_delta2_comparison_sweep_reported(tmp_path):
    (tmp_path / "unused.spec").write_text("")
    args = [
        sys.executable,
        "-m",
        "udlrc",
        "sweep",
        "--q",
        "5",
        "--classes",
        "2",
        "--r",
        "1:3",
        "--delta",
        "2:2",
        "--m",
        "1:2",
        "--format",
        "machine",
    ]
    first = subprocess.run(args, cwd=tmp_path, env=cli_env(), capture_output=True, text=True)
    second = subprocess.run(args, cwd=tmp_path, env=cli_env(), capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    rows = [line.split("\t") for line in first.stdout.splitlines() if line.startswith("row\t(")]
    assert rows
    relations = [row[9] for row in rows]
    assert set(relations) <= {"tighter", "equal", "looser"}
    # observational criterion: both ceilings reported per row, no dominance asserted
    tallies = {rel: relations.count(rel) for rel in sorted(set(relations))}
    print(f"acceptance 9: PASS  {len(rows)} comparison rows, relation tallies {tallies}")
