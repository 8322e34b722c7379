"""Closed-form dimension and distance ceilings for multi-class local codes.

All bounds are exact integer formulas built from the per-class quantities
of LocalityClass.  Ceilings use integer arithmetic only: for a >= 0,
ceil(a / b) = (a + b - 1) // b.  Every distance ceiling here sits at or
below the Singleton value n - k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .construction import LocalitySpec


class DimensionInfeasible(ValueError):
    """k exceeds the sum of the per-class dimension caps."""


class RankInfeasible(ValueError):
    """Measured per-class ranks cannot reach the code dimension."""


class PreconditionViolated(ValueError):
    """Bound applied outside its stated parameter regime."""


# Most classes permuted_tightest_bound will permute (8! orderings).
PERMUTED_CLASS_LIMIT = 8


class TooManyClasses(ValueError):
    """Permutation search limited to factorial-friendly class counts."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value, the pivot class used, and the
    per-class subtrahends that produced it (for auditing)."""

    name: str
    value: int
    pivot: int | None
    per_class_terms: tuple[int, ...]
    permutation: tuple[int, ...] | None = None


def dimension_bound(spec: LocalitySpec) -> int:
    """Largest dimension the locality classes allow: sum of the class caps."""
    return sum(spec.k_caps)


def pivot_class(spec: LocalitySpec) -> int:
    """1-based index of the first class whose cumulative caps reach k."""
    return distance_bound_udlrc(spec).pivot


def distance_bound_udlrc(spec: LocalitySpec) -> BoundReport:
    """Distance ceiling for unequal disjoint localities: distance_bound_measured
    with every class at its dimension cap,

    d <= n - k + 1 - sum_{j < pivot} (n_j - k_cap_j)
                  - (ceil((k - sum_{j < pivot} k_cap_j) / r_pivot) - 1) * (delta_pivot - 1)

    No ordering of the classes is assumed, so permuting them yields a family
    of valid ceilings (see permuted_tightest_bound).
    """
    try:
        report = distance_bound_measured(spec, spec.k_caps)
    except RankInfeasible:
        raise DimensionInfeasible(
            f"k={spec.k} exceeds the dimension cap {dimension_bound(spec)} of the locality classes"
        ) from None
    return BoundReport("dist-cap", report.value, report.pivot, report.per_class_terms)


def distance_bound_measured(spec: LocalitySpec, granks: tuple[int, ...] | list[int]) -> BoundReport:
    """Distance ceiling phrased in per-class generator ranks.

    d <= n - k + 1 - sum_{j < pivot} (n_j - rank_j)
                  - (ceil((k - sum_{j < pivot} rank_j) / r_pivot) - 1) * (delta_pivot - 1)

    where the pivot is the first class whose cumulative ranks reach k.
    """
    if len(granks) != spec.s:
        raise ValueError(f"need one rank per class: got {len(granks)} for s={spec.s}")
    if sum(granks) < spec.k:
        raise RankInfeasible(f"total measured rank {sum(granks)} < k={spec.k}")
    total = 0
    sigma = spec.s
    for j, g in enumerate(granks, 1):
        total += g
        if total >= spec.k:
            sigma = j
            break
    head = spec.classes[: sigma - 1]
    head_rank = sum(granks[: sigma - 1])
    head_terms = [c.n - g for c, g in zip(head, granks)]
    piv = spec.classes[sigma - 1]
    tail_term = (ceil_div(spec.k - head_rank, piv.r) - 1) * (piv.delta - 1)
    value = spec.n - spec.k + 1 - sum(head_terms) - tail_term
    return BoundReport(
        name="dist-cap-measured",
        value=value,
        pivot=sigma,
        per_class_terms=tuple(head_terms) + (tail_term,),
    )


def distance_bound_rdelta(n: int, k: int, r: int, delta: int) -> int:
    """Classical single-class ceiling: n - k + 1 - (ceil(k/r) - 1)(delta - 1)."""
    if k < 1 or r < 1 or delta < 2:
        raise PreconditionViolated("need k >= 1, r >= 1, delta >= 2")
    return n - k + 1 - (ceil_div(k, r) - 1) * (delta - 1)


def distance_bound_unequal_r(spec: LocalitySpec) -> BoundReport:
    """Earlier ceiling for plain unequal locality (every delta = 2).

    With group-count ceilings g_j = ceil(n_j / (r_j + 1)):

      d <= n - k + 2 - sum_{j < pivot} g_j
                     - ceil((k - sum_{j < pivot} g_j r_j) / r_pivot)

    where the pivot is max{0 <= j <= s-1 : sum_{j' <= j} g_j' r_j' < k - 1} + 1,
    taking the max of an empty set as 0.  The strict "< k - 1" pivot rule is
    applied exactly as published, even where a "< k" variant would differ.
    """
    if any(c.delta != 2 for c in spec.classes):
        raise PreconditionViolated("this ceiling requires delta = 2 in every class")
    rs = [c.r for c in spec.classes]
    if any(a > b for a, b in zip(rs, rs[1:])):
        raise PreconditionViolated("classes must be sorted by nondecreasing r")
    counts = [ceil_div(c.n, c.r + 1) for c in spec.classes]
    feasible = []
    cum = 0
    for j in range(spec.s):  # j counts how many leading classes are summed
        if cum < spec.k - 1:
            feasible.append(j)
        cum += counts[j] * rs[j]
    sp = (max(feasible) if feasible else 0) + 1
    head_count = sum(counts[: sp - 1])
    head_rank = sum(counts[j] * rs[j] for j in range(sp - 1))
    value = spec.n - spec.k + 2 - head_count - ceil_div(spec.k - head_rank, rs[sp - 1])
    return BoundReport(
        name="dist-cap-unequal-r",
        value=value,
        pivot=sp,
        per_class_terms=tuple(counts),
    )


def permuted_tightest_bound(spec: LocalitySpec) -> BoundReport:
    """Minimum of distance_bound_udlrc over all class orderings.

    The identity ordering is included, so the result never exceeds the
    unpermuted bound.  Ties go to the lexicographically first permutation.
    """
    if spec.s > PERMUTED_CLASS_LIMIT:
        raise TooManyClasses(f"permutation search capped at {PERMUTED_CLASS_LIMIT} classes, got {spec.s}")
    best: BoundReport | None = None
    for perm in permutations(range(spec.s)):
        permuted = LocalitySpec(
            classes=tuple(spec.classes[i] for i in perm), k=spec.k, q=spec.q, t=spec.t
        )
        report = distance_bound_udlrc(permuted)
        if best is None or report.value < best.value:
            best = BoundReport(
                name="dist-cap-permuted",
                value=report.value,
                pivot=report.pivot,
                per_class_terms=report.per_class_terms,
                permutation=tuple(i + 1 for i in perm),
            )
    assert best is not None
    return best
