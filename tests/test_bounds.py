import random
from itertools import product

import pytest

from udlrc import (
    DimensionInfeasible,
    LocalityClass,
    LocalitySpec,
    PreconditionViolated,
    RankInfeasible,
    TooManyClasses,
    bounds_table,
    ceil_div,
    dimension_bound,
    distance_bound_measured,
    distance_bound_rdelta,
    distance_bound_udlrc,
    distance_bound_unequal_r,
    permuted_tightest_bound,
    pivot_class,
)
import udlrc.bounds as bounds_module
from conftest import REF_SPEC, REF_FULL_SPEC, REVERSED_SPEC, ref_bounds_table, ref_permuted_tightest_bound


def two_class(k, q=5, t=5):
    return LocalitySpec(classes=REF_SPEC.classes, k=k, q=q, t=t)


def test_ceil_div():
    assert ceil_div(0, 3) == 0
    assert ceil_div(1, 3) == 1
    assert ceil_div(3, 3) == 1
    assert ceil_div(4, 3) == 2


def test_dimension_bound():
    assert dimension_bound(REF_SPEC) == 5
    single = LocalitySpec(classes=(LocalityClass(r=2, delta=3, n=10),), k=1, q=5, t=20)
    assert dimension_bound(single) == 4
    parity = LocalitySpec(classes=(LocalityClass.from_groups(3, 2, 1),), k=1, q=5, t=3)
    assert dimension_bound(parity) == 3


def test_pivot_class():
    assert pivot_class(two_class(4)) == 2
    assert pivot_class(two_class(2)) == 1  # first cap suffices
    assert pivot_class(two_class(5)) == 2  # full sum needed
    with pytest.raises(DimensionInfeasible):
        pivot_class(two_class(6))


def test_distance_cap_reference_values():
    report = distance_bound_udlrc(two_class(4))
    assert report.value == 3
    assert report.pivot == 2
    assert report.per_class_terms == (2, 0)
    assert distance_bound_udlrc(two_class(5)).value == 2


def test_distance_cap_single_class_equals_classical():
    for r in range(1, 5):
        for delta in range(2, 5):
            for m in range(1, 4):
                c = LocalityClass.from_groups(r, delta, m)
                for k in range(1, m * r + 1):
                    spec = LocalitySpec(classes=(c,), k=k, q=7, t=m * r)
                    assert (
                        distance_bound_udlrc(spec).value
                        == distance_bound_rdelta(spec.n, k, r, delta)
                    )


def test_classical_bound_values():
    assert distance_bound_rdelta(8, 4, 4, 2) == 5  # r >= k: Singleton
    assert distance_bound_rdelta(8, 4, 2, 2) == 4
    assert distance_bound_rdelta(8, 4, 2, 3) == 3
    with pytest.raises(PreconditionViolated):
        distance_bound_rdelta(8, 4, 0, 2)


def test_measured_bound_matches_cap_when_ranks_hit_caps():
    spec = two_class(4)
    cap = distance_bound_udlrc(spec)
    measured = distance_bound_measured(spec, list(spec.k_caps))
    assert measured.value == cap.value
    assert measured.pivot == cap.pivot


def test_measured_bound_degenerate_sigma_one():
    spec = two_class(4)
    report = distance_bound_measured(spec, [4, 4])
    # first class already reaches k: no head subtrahend
    assert report.pivot == 1
    assert report.value == spec.n - spec.k + 1 - (ceil_div(4, 2) - 1) * 2


def test_measured_bound_infeasible():
    with pytest.raises(RankInfeasible):
        distance_bound_measured(two_class(4), [1, 1])
    with pytest.raises(ValueError):
        distance_bound_measured(two_class(4), [4])


def test_unequal_r_bound_two_class_example():
    # classes (n=3, r=2) and (n=4, r=3), all delta = 2, k = 4
    spec = LocalitySpec(
        classes=(LocalityClass(r=2, delta=2, n=3), LocalityClass(r=3, delta=2, n=4)),
        k=4,
        q=5,
        t=10,
    )
    older = distance_bound_unequal_r(spec)
    assert older.value == 3
    assert older.pivot == 2
    newer = distance_bound_udlrc(spec)
    assert newer.value == 3  # both ceilings coincide here


def test_unequal_r_bound_single_class_reduction():
    for r in (1, 2, 3):
        for m in (1, 2, 3):
            c = LocalityClass.from_groups(r, 2, m)
            for k in range(2, m * r + 1):
                spec = LocalitySpec(classes=(c,), k=k, q=5, t=m * r)
                expected = spec.n - k + 2 - ceil_div(k, r)
                assert distance_bound_unequal_r(spec).value == expected


def test_unequal_r_bound_k_equals_one_pivot():
    spec = LocalitySpec(
        classes=(LocalityClass.from_groups(1, 2, 1), LocalityClass.from_groups(2, 2, 1)),
        k=1,
        q=5,
        t=3,
    )
    report = distance_bound_unequal_r(spec)
    assert report.pivot == 1  # empty feasible set, max taken as 0


def test_unequal_r_comparison_has_tighter_cases():
    # with ragged class lengths the group-count ceiling overshoots the
    # dimension cap, so the newer ceiling wins: 3 against 4 here
    spec = LocalitySpec(
        classes=(LocalityClass(r=2, delta=2, n=4), LocalityClass(r=3, delta=2, n=4)),
        k=4,
        q=5,
        t=20,
    )
    assert distance_bound_udlrc(spec).value == 3
    assert distance_bound_unequal_r(spec).value == 4


def test_unequal_r_bound_strict_pivot_rule():
    # Here sum_{j' <= j} g_j' r_j' equals k - 1 at the published pivot, so
    # a "< k" rule would move the pivot one class on.
    classes = (LocalityClass(r=1, delta=2, n=4), LocalityClass(r=2, delta=2, n=3), LocalityClass(r=3, delta=2, n=4))
    for k, value, pivot in ((3, 7, 1), (5, 4, 2)):
        report = distance_bound_unequal_r(LocalitySpec(classes=classes, k=k, q=5, t=20))
        assert (report.value, report.pivot) == (value, pivot)


def test_unequal_r_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        distance_bound_unequal_r(REF_SPEC)  # delta = 3 present
    unsorted_spec = LocalitySpec(
        classes=(LocalityClass.from_groups(3, 2, 1), LocalityClass.from_groups(2, 2, 1)),
        k=2,
        q=5,
        t=5,
    )
    with pytest.raises(PreconditionViolated):
        distance_bound_unequal_r(unsorted_spec)


def test_permuted_bound_reference():
    report = permuted_tightest_bound(two_class(4))
    assert report.value == 3
    assert report.permutation == (1, 2)  # identity ordering attains the minimum
    # swapped classes evaluate to 4, so the permuted minimum helps there
    swapped = permuted_tightest_bound(REVERSED_SPEC)
    assert distance_bound_udlrc(REVERSED_SPEC).value == 4
    assert swapped.value == 3
    assert swapped.permutation == (2, 1)


def test_permuted_bound_single_class_and_cap():
    single = LocalitySpec(classes=(LocalityClass.from_groups(2, 2, 2),), k=3, q=5, t=4)
    assert permuted_tightest_bound(single).value == distance_bound_udlrc(single).value
    too_many = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(1, 2, 1) for _ in range(9)), k=4, q=5, t=9
    )
    with pytest.raises(TooManyClasses):
        permuted_tightest_bound(too_many)


def test_permuted_bound_never_exceeds_unpermuted():
    zoo = [
        two_class(k) for k in range(1, 6)
    ] + [
        LocalitySpec(
            classes=(
                LocalityClass.from_groups(1, 3, 2),
                LocalityClass.from_groups(2, 2, 1),
            ),
            k=k,
            q=5,
            t=4,
        )
        for k in range(1, 5)
    ]
    for spec in zoo:
        assert permuted_tightest_bound(spec).value <= distance_bound_udlrc(spec).value


def test_all_distance_caps_below_singleton():
    zoo = []
    for k in range(1, 6):
        zoo.append(two_class(k))
    for k in range(1, 5):
        zoo.append(
            LocalitySpec(
                classes=(
                    LocalityClass.from_groups(1, 2, 2),
                    LocalityClass.from_groups(2, 2, 1),
                ),
                k=k,
                q=5,
                t=4,
            )
        )
    for spec in zoo:
        singleton = spec.n - spec.k + 1
        assert distance_bound_udlrc(spec).value <= singleton
        assert permuted_tightest_bound(spec).value <= singleton
        if all(c.delta == 2 for c in spec.classes):
            assert distance_bound_unequal_r(spec).value <= singleton


def test_distance_cap_monotone_in_k():
    values = [distance_bound_udlrc(two_class(k)).value for k in range(1, 6)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_full_dimension_reference():
    assert dimension_bound(REF_FULL_SPEC) == REF_FULL_SPEC.k == 5


def _permuted_zoo():
    """Seeded class tuples of length 1 to 6, each drawn from a pool of
    three classes (so from length 4 on some class repeats); ragged lengths
    give zero and partial caps."""
    rng = random.Random(90210)
    for s, count in ((1, 6), (2, 8), (3, 8), (4, 6), (5, 3), (6, 2)):
        for _ in range(count):
            pool = [LocalityClass(r=rng.randint(1, 4), delta=rng.randint(2, 4), n=rng.randint(1, 12)) for _ in range(3)]
            yield tuple(rng.choice(pool) for _ in range(s))


def test_permuted_bound_matches_ordering_search():
    checked = 0
    for classes in _permuted_zoo():
        dim = sum(c.k_cap for c in classes)
        for k in range(1, dim + 2):
            spec = LocalitySpec(classes=classes, k=k, q=7, t=99)
            if k > dim:
                for search in (permuted_tightest_bound, ref_permuted_tightest_bound):
                    with pytest.raises(DimensionInfeasible):
                        search(spec)
                continue
            assert permuted_tightest_bound(spec) == ref_permuted_tightest_bound(spec), (classes, k)
            checked += 1
    assert checked > 300


def test_permuted_bound_core_runs_once_per_head_and_pivot(monkeypatch):
    calls = 0
    core = bounds_module._cap_core

    def counted(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    monkeypatch.setattr(bounds_module, "_cap_core", counted)
    pool = [LocalityClass.from_groups(1, 2, 1), LocalityClass.from_groups(2, 3, 1), LocalityClass.from_groups(3, 2, 2)]
    classes = tuple(pool[i % 3] for i in range(8))
    dim = sum(c.k_cap for c in classes)
    for k in range(1, dim + 1):
        calls = 0
        permuted_tightest_bound(LocalitySpec(classes=classes, k=k, q=7, t=dim))
        assert 1 <= calls <= 8 * 2**7  # against 8! = 40,320 orderings


def _sweep_tuples(q, s, rs, deltas, ms):
    """Class tuples in the order and with the filters of `udlrc sweep`."""
    for combo in product(product(rs, deltas, ms), repeat=s):
        if any(a[0] > b[0] or a[1] < b[1] for a, b in zip(combo, combo[1:])):
            continue
        if any(q < r + d - 1 for r, d, _ in combo):
            continue
        yield tuple(LocalityClass.from_groups(r, d, m) for r, d, m in combo)


def test_bounds_table_matches_spec_functions():
    # The benchmark's bounds-only table grid, then a few other class counts.
    tuples = list(_sweep_tuples(7, 3, range(1, 4), range(2, 4), range(1, 3)))
    assert len(tuples) == 320
    tuples += [
        (LocalityClass.from_groups(2, 3, 2),),
        (LocalityClass.from_groups(1, 2, 3),),
        (LocalityClass.from_groups(3, 2, 1), LocalityClass.from_groups(1, 2, 2)),
        (LocalityClass.from_groups(1, 4, 1), LocalityClass.from_groups(2, 3, 2)),
        (LocalityClass.from_groups(1, 3, 1),) * 2 + (LocalityClass.from_groups(2, 2, 2),) * 2,
        tuple(LocalityClass.from_groups(r, 2, 1) for r in (1, 2, 2, 3)),
    ]
    rows = 0
    for classes in tuples:
        dim = sum(c.k_cap for c in classes)
        table = bounds_table(classes, dim)
        assert len(table) == dim
        for k, row in enumerate(table, 1):
            spec = LocalitySpec(classes=classes, k=k, q=7, t=dim)
            cap = distance_bound_udlrc(spec)
            try:
                older = distance_bound_unequal_r(spec).value
            except PreconditionViolated:
                older = None
            expected = (k, dimension_bound(spec), cap.value, cap.pivot, permuted_tightest_bound(spec).value, older)
            assert row == expected, (classes, row)
            rows += 1
    assert rows > 2880


def test_bounds_table_stops_at_the_last_k():
    classes = (LocalityClass.from_groups(1, 2, 2), LocalityClass.from_groups(2, 2, 1))
    assert bounds_table(classes, 0) == []
    assert bounds_table(classes, 2) == bounds_table(classes, 4)[:2]
    with pytest.raises(DimensionInfeasible):
        bounds_table(classes, 5)


def _ragged_tuples(count_by_s):
    """Seeded tuples of ragged classes, LocalityClass(r, delta, n) with
    n not a whole number of groups, so some caps are partial or zero."""
    rng = random.Random(20261027)
    for s, count in count_by_s:
        for _ in range(count):
            yield tuple(LocalityClass(r=rng.randint(1, 4), delta=rng.randint(2, 4), n=rng.randint(1, 12)) for _ in range(s))


def test_bounds_table_matches_the_per_row_core():
    grid = list(_sweep_tuples(7, 3, range(1, 4), range(2, 4), range(1, 3)))
    ragged = list(_ragged_tuples(((1, 20), (2, 30), (3, 30), (4, 20), (5, 10), (6, 5), (7, 3), (8, 2))))
    assert sum(any(c.k_cap == 0 for c in classes) for classes in ragged) > 30
    for classes in grid + ragged:
        dim = sum(c.k_cap for c in classes)
        for last_k in range(-1, dim + 1):
            assert bounds_table(classes, last_k) == ref_bounds_table(classes, last_k), (classes, last_k)
        for table in (bounds_table, ref_bounds_table):
            with pytest.raises(DimensionInfeasible):
                table(classes, dim + 1)


def test_bounds_table_refuses_nine_classes():
    for classes in [(LocalityClass.from_groups(1, 2, 1),) * 9, *_ragged_tuples(((9, 2),))]:
        dim = sum(c.k_cap for c in classes)
        for table in (bounds_table, ref_bounds_table):
            for last_k in (0, 1, dim):
                with pytest.raises(TooManyClasses):
                    table(classes, last_k)
            with pytest.raises(DimensionInfeasible):
                table(classes, dim + 1)


def test_bounds_table_makes_no_core_call(monkeypatch):
    # A count, not a timing: the benchmark's table made 14,400 _cap_core
    # calls when every (head set, pivot) pair ran the core once per row.
    calls = 0
    core = bounds_module._cap_core

    def counted(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    monkeypatch.setattr(bounds_module, "_cap_core", counted)
    rows = 0
    for classes in _sweep_tuples(7, 3, range(1, 4), range(2, 4), range(1, 3)):
        rows += len(bounds_table(classes, sum(c.k_cap for c in classes)))
    assert (rows, calls) == (2880, 0)
